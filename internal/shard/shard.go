package shard

import (
	"fmt"
	"strings"
	"sync/atomic"

	"ktpm/internal/graph"
	"ktpm/internal/lazy"
	"ktpm/internal/query"
	"ktpm/internal/store"
)

// Partitioner assigns every data-graph vertex to one of n shards, fixing
// which shard enumerates the matches rooted at that vertex.
type Partitioner interface {
	// Partition returns the shard assignment: out[v] in [0, n) for every
	// node v of g. Implementations must be deterministic — the assignment
	// is part of the database's identity, and /stats reports it.
	Partition(g *graph.Graph, n int) []int32
	// Name identifies the strategy in flags, logs, and /stats.
	Name() string
}

// Hash spreads vertices by a multiplicative hash of their IDs. It ignores
// labels: total vertex counts balance well, but a rare label's candidates
// can clump onto few shards.
type Hash struct{}

// Name implements Partitioner.
func (Hash) Name() string { return "hash" }

// Partition implements Partitioner.
func (Hash) Partition(g *graph.Graph, n int) []int32 {
	out := make([]int32, g.NumNodes())
	for v := range out {
		// Knuth's multiplicative hash: decorrelates the dense sequential
		// IDs from the modulus so contiguous generator output (which often
		// correlates with topology) spreads across shards.
		h := uint32(v) * 2654435761
		out[v] = int32(h % uint32(n))
	}
	return out
}

// LabelBalanced deals each label's vertices round-robin across shards, so
// the root-candidate set of any query label splits near-evenly (counts
// differ by at most one) regardless of label skew. This is the
// label-aware strategy: the scatter-gather's critical path is the slowest
// shard, and per-label balance bounds it for every possible root label.
type LabelBalanced struct{}

// Name implements Partitioner.
func (LabelBalanced) Name() string { return "label" }

// Partition implements Partitioner.
func (LabelBalanced) Partition(g *graph.Graph, n int) []int32 {
	out := make([]int32, g.NumNodes())
	next := make([]int32, g.NumLabels())
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		l := g.Label(v)
		out[v] = next[l]
		next[l] = (next[l] + 1) % int32(n)
	}
	return out
}

// Parse resolves the flag spelling of a partitioner name ("hash",
// "label", case-insensitive); ok is false for unknown names, including
// the empty string — callers that want a default decide it themselves.
func Parse(name string) (Partitioner, bool) {
	switch strings.ToLower(name) {
	case "hash":
		return Hash{}, true
	case "label":
		return LabelBalanced{}, true
	}
	return nil, false
}

// DB is a root-partitioned view over one prepared closure: n shards, each
// holding a private store replica and the set of vertices it owns.
type DB struct {
	n      int
	name   string
	assign []int32        // assign[v] = shard owning vertex v
	sizes  []int          // vertices per shard
	stores []*store.Store // per-shard replicas of the base store
	merged []atomic.Int64 // matches each shard contributed to merges
}

// New partitions base's graph into n shards using p. The base store is
// left untouched (its caller may keep serving unsharded queries from it);
// each shard receives a replica sharing the base's derived-data plane, so
// summary tables and wildcard merges are derived once process-wide no
// matter the shard count, while I/O counters stay per shard.
func New(base *store.Store, n int, p Partitioner) (*DB, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d, want >= 1", n)
	}
	g := base.Graph()
	assign := p.Partition(g, n)
	if len(assign) != g.NumNodes() {
		return nil, fmt.Errorf("shard: partitioner %s assigned %d of %d vertices", p.Name(), len(assign), g.NumNodes())
	}
	d := &DB{
		n:      n,
		name:   p.Name(),
		assign: assign,
		sizes:  make([]int, n),
		stores: make([]*store.Store, n),
		merged: make([]atomic.Int64, n),
	}
	for v, s := range assign {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("shard: partitioner %s put vertex %d in shard %d of %d", p.Name(), v, s, n)
		}
		d.sizes[s]++
	}
	for i := 0; i < n; i++ {
		d.stores[i] = base.Replica()
	}
	return d, nil
}

// NumShards returns n.
func (d *DB) NumShards() int { return d.n }

// PartitionerName returns the name of the partitioner that built d.
func (d *DB) PartitionerName() string { return d.name }

// ShardSize returns how many vertices shard i owns.
func (d *DB) ShardSize(i int) int { return d.sizes[i] }

// Merged returns how many matches finished TopK calls and closed streams
// have taken from shard i (lazy.Merge.Taken).
func (d *DB) Merged(i int) int64 { return d.merged[i].Load() }

// ShardCounters returns shard i's private simulated-I/O counters.
func (d *DB) ShardCounters(i int) store.Counters { return d.stores[i].Counters() }

// Counters returns the shards' I/O counters summed.
func (d *DB) Counters() store.Counters {
	var total store.Counters
	for _, s := range d.stores {
		c := s.Counters()
		total.BlocksRead += c.BlocksRead
		total.EntriesRead += c.EntriesRead
		total.TableEntriesRead += c.TableEntriesRead
		total.TablesRead += c.TablesRead
		total.TableHits += c.TableHits
	}
	return total
}

// merge starts one query's scatter and returns the merge over it and the
// function that stops it, which credits each shard's takes to Merged,
// releases any producers still running and hands the shards' enumerators
// back to their pool. The matches the merge yields live in those
// enumerators, so callers copy what they keep before calling it. At one
// shard the enumerator is the merge's only source: shard 0 owns every
// vertex, so there is no ownership filter, no goroutine, and no
// run-ahead. Otherwise one producer goroutine per shard runs Topk-EN over
// the shard's replica, root-filtered to owned vertices (composed with any
// caller filter), and hands score-ordered chunks of up to chunk matches
// to the merge.
func (d *DB) merge(t *query.Tree, base lazy.Options, chunk int) (*lazy.Merge, func()) {
	srcs := make([]lazy.Source, d.n)
	var release func()
	if d.n == 1 {
		e := lazy.New(d.stores[0], t, base)
		srcs[0] = e
		release = e.Release
	} else {
		done := make(chan struct{})
		span := base.Trace.StartChild("shard_merge")
		span.SetAttr("shards", d.n)
		prods := make([]producer, d.n)
		for i := range srcs {
			// One buffered chunk lets a producer start its next chunk while
			// the merge consumes the previous one.
			ch := make(chan []*lazy.Match, 1)
			srcs[i] = lazy.NewChunks(ch)
			// The per-shard span is created here (attachment to the merge
			// span is not goroutine-start ordered) and ended by the producer.
			ssp := span.StartChild("shard_enumerate")
			ssp.SetAttr("shard", i)
			opt := base
			opt.Trace = ssp
			opt.RootFilter = func(v int32) bool {
				return d.assign[v] == int32(i) && (base.RootFilter == nil || base.RootFilter(v))
			}
			pr := &prods[i]
			pr.refs.Store(2)
			go func() {
				defer close(ch)
				defer ssp.End()
				e := lazy.New(d.stores[i], t, opt)
				pr.e = e
				defer pr.drop()
				for {
					buf := make([]*lazy.Match, chunk)
					n := e.NextBatch(buf)
					if n > 0 {
						select {
						case ch <- buf[:n:n]:
						case <-done:
							return
						}
					}
					if n < chunk {
						return // NextBatch ran dry: the shard is exhausted
					}
				}
			}()
		}
		release = func() {
			close(done)
			span.End()
			for i := range prods {
				prods[i].drop()
			}
		}
	}
	m := lazy.NewMerge(srcs)
	return m, func() {
		for i := range d.merged {
			d.merged[i].Add(int64(m.Taken(i)))
		}
		release()
	}
}

// producer is one shard's enumerator and its two owners: the producer
// goroutine and the merge's stop function. Whichever lets go last
// releases it. A producer that runs dry exits while its matches may still
// sit in its channel or in the merge's heads, so its exit alone never
// releases the enumerator; the stop function comes after every copy.
type producer struct {
	e    *lazy.Enumerator
	refs atomic.Int32
}

func (p *producer) drop() {
	if p.refs.Add(-1) == 0 {
		p.e.Release()
	}
}

// TopK scatter-gathers the k best matches of t across the shards and
// hands them to keep: every shard enumerates its slice of the match space
// concurrently and lazy.Merge gathers them, ceasing to pull from a shard
// once its head — the best score the shard can still produce — cannot
// beat the current k-th result. Equal scores are ordered by node
// bindings, so for a fixed store contents the result is byte-identical
// for every shard count and partitioner. A caller RootFilter in base
// composes with (restricts within) shard ownership. The matches are valid
// only during keep, which copies what it retains: the shards' enumerators
// are released when TopK returns.
func (d *DB) TopK(t *query.Tree, k int, base lazy.Options, keep func([]*lazy.Match)) {
	if k <= 0 {
		keep(nil)
		return
	}
	// Chunks larger than k would only make shards compute matches the
	// merge can never need before its first threshold check.
	m, stop := d.merge(t, base, min(k, lazy.ChunkSize))
	defer stop()
	keep(m.TopK(k))
}

// Stream incrementally enumerates t's matches across the shards in the
// same canonical order TopK returns: non-decreasing score, equal scores
// by node bindings. Consumers that do not know k up front drain exactly
// as far as they need; the merge buffers one tie group at a time, so
// memory is O(largest tie group drained). A match Next returns is valid
// until the next Next or Close, so consumers copy what they keep. Close
// releases the producers; callers that do not drain to exhaustion must
// call it.
func (d *DB) Stream(t *query.Tree, base lazy.Options) *Stream {
	m, stop := d.merge(t, base, lazy.ChunkSize)
	return &Stream{m: m, stop: stop}
}

// Stream is an incremental scatter-gather enumeration; see DB.Stream.
type Stream struct {
	m      *lazy.Merge
	stop   func()
	closed bool
}

// Next returns the next match in canonical order; ok is false when the
// match space is exhausted or the stream is closed.
func (s *Stream) Next() (*lazy.Match, bool) {
	if s.closed {
		return nil, false
	}
	m, ok := s.m.Next()
	if !ok {
		s.Close()
	}
	return m, ok
}

// Close stops the per-shard producers, credits the stream's takes to
// Merged and releases the shards' enumerators, so every match Next
// returned is invalid afterwards. Idempotent; exhaustion closes the
// stream itself.
func (s *Stream) Close() {
	if !s.closed {
		s.closed = true
		s.stop()
	}
}
