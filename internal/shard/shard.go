package shard

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"ktpm/internal/graph"
	"ktpm/internal/heap"
	"ktpm/internal/lazy"
	"ktpm/internal/obs"
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

// DefaultChunkSize is the gather transport's default chunk: how many
// matches a shard accumulates before handing them to the coordinator in
// one channel operation. Chosen from the chunk-size sweep in
// BENCH_topk.json: per-match hand-off (chunk 1) costs one channel
// synchronization per match, while chunks past ~32 only grow the
// run-ahead — work a shard computes past the termination threshold,
// bounded by one chunk in flight plus one buffered per shard. A
// single-shard DB skips the transport entirely (see TopK).
const DefaultChunkSize = 32

// chunkBuffer is the gather channel's capacity in chunks. One buffered
// chunk lets a producer start its next chunk while the coordinator
// consumes the previous; more would only grow abandoned work after the
// threshold stops a shard.
const chunkBuffer = 1

// DB is a root-partitioned view over one prepared closure: n shards, each
// holding a private store replica and the set of vertices it owns.
type DB struct {
	n      int
	name   string
	assign []int32        // assign[v] = shard owning vertex v
	sizes  []int          // vertices per shard
	stores []*store.Store // per-shard replicas of the base store
	merged []atomic.Int64 // matches each shard contributed to gathers
	chunk  atomic.Int32   // gather transport chunk size (matches per channel op)
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
	d.chunk.Store(DefaultChunkSize)
	return d, nil
}

// SetChunkSize tunes the gather transport: how many matches a shard
// accumulates before handing them to the coordinator in one channel
// operation. Values below 1 select DefaultChunkSize. Safe to call
// concurrently with queries; in-flight gathers keep the size they
// started with. The chunk size never affects results — only the number
// of channel synchronizations and the work a shard may compute past the
// termination threshold (at most one chunk in flight plus one buffered).
func (d *DB) SetChunkSize(n int) {
	if n < 1 {
		n = DefaultChunkSize
	}
	d.chunk.Store(int32(n))
}

// ChunkSize returns the current gather transport chunk size.
func (d *DB) ChunkSize() int { return int(d.chunk.Load()) }

// NumShards returns n.
func (d *DB) NumShards() int { return d.n }

// PartitionerName returns the name of the partitioner that built d.
func (d *DB) PartitionerName() string { return d.name }

// ShardSize returns how many vertices shard i owns.
func (d *DB) ShardSize(i int) int { return d.sizes[i] }

// Merged returns how many matches shard i has contributed to TopK merges.
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

// gather is the chunked scatter half shared by TopK and Stream: one
// producer goroutine per shard runs Topk-EN over the shard's replica
// (root-filtered to owned vertices, composed with any caller filter) and
// emits score-ordered []*lazy.Match chunks into a bounded channel — one
// channel synchronization per chunk instead of per match, which is what
// removes the per-match hand-off overhead the pre-chunk transport paid.
// The coordinator side keeps, per shard, the current chunk and a cursor;
// the head (first unconsumed match) is the best score the shard can
// still produce, so threshold reasoning is unchanged from the per-match
// transport and results stay byte-identical for every chunk size.
type gather struct {
	d     *DB
	done  chan struct{}
	chans []chan []*lazy.Match
	heads [][]*lazy.Match // heads[i] = shard i's current chunk, nil once exhausted
	cur   []int           // cur[i] = first unconsumed index into heads[i]
	hq    *heap.Indexed   // shard index keyed by head score
	merge *obs.Span       // "shard_merge" span covering the gather's lifetime; nil untraced
}

// newGather starts the per-shard producers. chunk is the transport chunk
// size; base carries caller options (RootFilter is composed with shard
// ownership, never replaced by it).
func (d *DB) newGather(t *query.Tree, base lazy.Options, chunk int) *gather {
	if chunk < 1 {
		chunk = d.ChunkSize()
	}
	g := &gather{
		d:     d,
		done:  make(chan struct{}),
		chans: make([]chan []*lazy.Match, d.n),
		heads: make([][]*lazy.Match, d.n),
		cur:   make([]int, d.n),
		hq:    heap.NewIndexed(d.n),
		merge: base.Trace.StartChild("shard_merge"),
	}
	g.merge.SetAttr("shards", d.n)
	for i := 0; i < d.n; i++ {
		ch := make(chan []*lazy.Match, chunkBuffer)
		g.chans[i] = ch
		// The per-shard span is created here (attachment to the merge span
		// is not goroutine-start ordered) and ended by the producer when it
		// exhausts or is released.
		ssp := g.merge.StartChild("shard_enumerate")
		ssp.SetAttr("shard", i)
		go func(shardID int32, ch chan<- []*lazy.Match, ssp *obs.Span) {
			defer close(ch)
			defer ssp.End()
			opt := base
			opt.Trace = ssp
			caller := base.RootFilter
			opt.RootFilter = func(v int32) bool {
				return d.assign[v] == shardID && (caller == nil || caller(v))
			}
			e := lazy.New(d.stores[shardID], t, opt)
			for {
				buf := make([]*lazy.Match, chunk)
				n := e.NextBatch(buf)
				if n > 0 {
					select {
					case ch <- buf[:n:n]:
					case <-g.done:
						return
					}
				}
				if n < chunk {
					return // NextBatch ran dry: the shard is exhausted
				}
			}
		}(int32(i), ch, ssp)
	}
	return g
}

// init blocks for every shard's first chunk and seeds the head heap.
func (g *gather) init() {
	for i, ch := range g.chans {
		if c := <-ch; c != nil { // nil once a shard closes exhausted
			g.heads[i] = c
			g.hq.Push(i, c[0].Score)
		}
	}
}

// take consumes shard i's head match, advancing to the next match in the
// chunk or blocking for the shard's next chunk, and re-keys the heap.
func (g *gather) take(i int) *lazy.Match {
	m := g.heads[i][g.cur[i]]
	g.d.merged[i].Add(1)
	g.cur[i]++
	if g.cur[i] < len(g.heads[i]) {
		g.hq.Update(i, g.heads[i][g.cur[i]].Score)
		return m
	}
	if c := <-g.chans[i]; c != nil {
		g.heads[i], g.cur[i] = c, 0
		g.hq.Update(i, c[0].Score)
	} else {
		g.heads[i] = nil
		g.hq.Remove(i)
	}
	return m
}

// stop releases the producers; they exit at their next send (or already
// have, if exhausted). Idempotence is the caller's concern.
func (g *gather) stop() {
	close(g.done)
	g.merge.End()
}

// TopK scatter-gathers the k best matches of t across the shards. Every
// shard enumerates its slice of the match space concurrently (Topk-EN
// with a root filter) into a bounded channel of score-ordered chunks;
// the coordinator k-way merges by head score and stops pulling from a
// shard once its head — the best score the shard can still produce —
// cannot beat the current k-th result. Equal scores are ordered by node
// bindings, so for a fixed store contents the result is byte-identical
// for every shard count, partitioner, and chunk size: all matches
// scoring strictly below the k-th score are always included, and ties at
// the k-th score are broken lexicographically.
func (d *DB) TopK(t *query.Tree, k int) []*lazy.Match {
	return d.TopKOpts(t, k, lazy.Options{})
}

// TopKOpts is TopK with caller-supplied enumeration options; a caller
// RootFilter composes with (restricts within) shard ownership.
//
// A single-shard DB skips the gather transport: the lone shard owns
// every vertex, so the coordinator pulls the enumerator directly — no
// producer goroutine, no channel synchronizations, and no run-ahead
// past the termination threshold, where the producer computes up to two
// chunks the merge never consumes. The output is byte-identical either
// way (GatherTopK forces the transport; benchmarks and tests compare the
// two).
func (d *DB) TopKOpts(t *query.Tree, k int, base lazy.Options) []*lazy.Match {
	if k <= 0 {
		return nil
	}
	if d.n == 1 {
		return d.topKInline(t, k, base)
	}
	return d.GatherTopK(t, k, base)
}

// topKInline answers TopK on a single-shard DB straight off the
// enumerator. Shard 0 owns every vertex, so no ownership filter is
// composed: the enumeration is exactly the unsharded one, and
// lazy.DrainTopK applies the same merge semantics GatherTopK does —
// gather everything at or below the k-th score, compact periodically,
// canonically sort — so the result is byte-identical to the transport's
// for every chunk size.
func (d *DB) topKInline(t *query.Tree, k int, base lazy.Options) []*lazy.Match {
	out, consumed := lazy.DrainTopK(lazy.New(d.stores[0], t, base), k)
	d.merged[0].Add(int64(consumed))
	return out
}

// GatherTopK is TopKOpts forced through the chunked scatter-gather
// transport regardless of shard count. Production callers want TopK /
// TopKOpts, which at one shard answer inline; this entry point exists
// for the benchmarks and tests that quantify the transport itself (the
// BENCH_topk.json chunk-size sweep measures it at shards=1 to record
// what the inline fast path saves).
func (d *DB) GatherTopK(t *query.Tree, k int, base lazy.Options) []*lazy.Match {
	if k <= 0 {
		return nil
	}
	// Chunks larger than k would only make shards compute matches the
	// merge can never need before its first threshold check.
	chunk := d.ChunkSize()
	if chunk > k {
		chunk = k
	}
	g := d.newGather(t, base, chunk)
	defer g.stop() // releases producers still buffering past the threshold
	g.init()
	// Gather in global score order; heads live in an indexed min-heap, so
	// each merge step costs O(log shards). Ties between shard heads may
	// pop in any order; the final canonical sort makes the output
	// independent of that order because every head at or below the k-th
	// score is drained regardless. out stays non-decreasing by score, so
	// out[k-1] is the current k-th result; a head strictly above it can
	// never contribute (per-shard emission is sorted), while heads equal
	// to it are drained so the tie-breaking below sees the whole tie
	// group. Draining compacts periodically — sort, keep the k smallest —
	// so a huge equal-score group (uniform-weight graphs tie
	// astronomically many matches) costs O(k) memory, not one entry per
	// tie: a compacted-away match is beaten by k gathered matches and no
	// later arrival can resurrect it.
	var out []*lazy.Match
	compactAt := 2*k + 64
	for g.hq.Len() > 0 {
		best, score := g.hq.Peek()
		if len(out) >= k && score > out[k-1].Score {
			break // threshold: no shard can still beat the k-th result
		}
		out = append(out, g.take(best))
		if len(out) >= compactAt {
			out = keepSmallest(out, k)
		}
	}
	// Canonical tie order: equal scores sort by node bindings. Everything
	// below the k-th score was gathered in full and the k-th score's tie
	// group was drained (compaction only ever drops matches already
	// beaten by k others), so the first k are a pure function of the
	// match space — independent of sharding.
	return keepSmallest(out, k)
}

// Stream incrementally enumerates t's matches across the shards in the
// same canonical order TopK returns: non-decreasing score, equal scores
// by node bindings. It is the pull-based form of the scatter-gather —
// consumers that do not know k up front drain exactly as far as they
// need, and the producers stay at most one chunk (plus one buffered)
// ahead of what was consumed.
//
// Canonical tie order requires seeing a whole equal-score group before
// emitting any of it (another shard may still hold a lexicographically
// smaller tie), so the stream buffers one tie group at a time. Unlike
// TopK, which compacts to O(k), a streaming consumer has no k to compact
// to: memory is O(largest tie group drained). Close releases the
// producers; callers that do not drain to exhaustion must call it.
//
// Like TopK, a single-shard DB streams straight off the enumerator: no
// producer goroutine, no channel, and run-ahead of a single match (the
// lookahead that detects the end of a tie group) instead of up to two
// transport chunks. The emitted sequence is identical either way.
func (d *DB) Stream(t *query.Tree, base lazy.Options) *Stream {
	if d.n == 1 {
		return &Stream{d: d, t: t, opt: base}
	}
	return &Stream{g: d.newGather(t, base, d.ChunkSize())}
}

// Stream is an incremental scatter-gather enumeration; see DB.Stream.
type Stream struct {
	g *gather // multi-shard transport; nil for the inline form
	// Inline single-shard form: the canonical stream is built on first
	// Next (so constructing a Stream never blocks on table loading).
	d        *DB
	t        *query.Tree
	opt      lazy.Options
	cs       *lazy.CanonicalStream
	consumed int64 // cs.Consumed() already credited to merged[0]

	tie    []*lazy.Match // current equal-score group, canonically sorted
	tiePos int
	inited bool
	closed bool
}

// Next returns the next match in canonical order; ok is false when the
// match space is exhausted or the stream is closed.
func (s *Stream) Next() (*lazy.Match, bool) {
	if s.tiePos < len(s.tie) {
		m := s.tie[s.tiePos]
		s.tiePos++
		return m, true
	}
	if s.closed {
		return nil, false
	}
	if s.g == nil {
		return s.nextInline()
	}
	if !s.inited {
		// Deferred past the constructor so building a Stream never blocks;
		// the first Next waits for every shard's opening chunk.
		s.inited = true
		s.g.init()
	}
	if s.g.hq.Len() == 0 {
		return nil, false
	}
	// Drain the entire tie group at the current minimum score: per-shard
	// emission is sorted, so once every head exceeds the score no shard
	// can add to the group, and sorting it fixes the canonical order.
	_, score := s.g.hq.Peek()
	group := s.tie[:0]
	for s.g.hq.Len() > 0 {
		best, sc := s.g.hq.Peek()
		if sc != score {
			break
		}
		group = append(group, s.g.take(best))
	}
	sort.Slice(group, func(i, j int) bool { return lessMatch(group[i], group[j]) })
	s.tie, s.tiePos = group, 1
	return group[0], true
}

// nextInline pulls from the single shard's canonical stream, crediting
// newly consumed matches to the merged counter as they are drained.
func (s *Stream) nextInline() (*lazy.Match, bool) {
	if !s.inited {
		s.inited = true
		s.cs = lazy.NewCanonicalStream(lazy.New(s.d.stores[0], s.t, s.opt))
	}
	m, ok := s.cs.Next()
	if delta := s.cs.Consumed() - s.consumed; delta > 0 {
		s.consumed += delta
		s.d.merged[0].Add(delta)
	}
	return m, ok
}

// Close stops the per-shard producers (the inline single-shard form has
// none). Idempotent; in the gather form, matches already buffered in
// the current tie group remain drainable.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.closed = true
	if s.g != nil {
		s.g.stop()
	}
}

// keepSmallest sorts ms canonically and truncates to the k smallest.
// Sorting keeps ms non-decreasing by score, which the merge loop's
// threshold test relies on after a compaction.
func keepSmallest(ms []*lazy.Match, k int) []*lazy.Match {
	return lazy.Canonicalize(ms, k)
}

// lessMatch is the canonical match order; see lazy.Less.
func lessMatch(a, b *lazy.Match) bool { return lazy.Less(a, b) }
