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
// which shard owns the matches rooted at that vertex.
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
// label-aware strategy: every shard owns a near-equal share of the root
// candidates of every possible root label.
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

// DB is a root-partitioned view over one prepared store: n shards, each
// owning a set of vertices and so the matches rooted at them. Every query
// runs one enumeration over the store; the shards are its accounting.
type DB struct {
	n      int
	name   string
	st     *store.Store
	assign []int32        // assign[v] = shard owning vertex v
	sizes  []int          // vertices per shard
	merged []atomic.Int64 // matches merges took, by root owner
}

// New partitions st's graph into n shards using p. st serves every query
// unchanged, so its I/O counters are the sharded database's.
func New(st *store.Store, n int, p Partitioner) (*DB, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d, want >= 1", n)
	}
	g := st.Graph()
	assign := p.Partition(g, n)
	if len(assign) != g.NumNodes() {
		return nil, fmt.Errorf("shard: partitioner %s assigned %d of %d vertices", p.Name(), len(assign), g.NumNodes())
	}
	d := &DB{
		n:      n,
		name:   p.Name(),
		st:     st,
		assign: assign,
		sizes:  make([]int, n),
		merged: make([]atomic.Int64, n),
	}
	for v, s := range assign {
		if s < 0 || int(s) >= n {
			return nil, fmt.Errorf("shard: partitioner %s put vertex %d in shard %d of %d", p.Name(), v, s, n)
		}
		d.sizes[s]++
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
// took whose root binding shard i owns: after one TopK(q, k), shard i's
// matches scoring at or below the k-th score.
func (d *DB) Merged(i int) int64 { return d.merged[i].Load() }

// open starts one enumeration of t over the store: Topk-EN under opt
// (its RootFilter passes through unchanged) behind the canonical merge,
// inside a "shard_merge" span. The returned stop function releases the
// enumerator and ends the span.
func (d *DB) open(t *query.Tree, opt lazy.Options) (*lazy.Merge, func()) {
	span := opt.Trace.StartChild("shard_merge")
	span.SetAttr("shards", d.n)
	opt.Trace = span
	c := &creditor{d: d, e: lazy.New(d.st, t, opt)}
	return lazy.NewMerge(c), func() {
		if c.head != nil {
			d.merged[d.assign[c.head.Nodes[0]]].Add(-1) // pulled, never taken
		}
		c.e.Release()
		span.End()
	}
}

// creditor is a merge's one source: the enumerator, crediting each match
// it hands over to the shard owning its root binding. The merge holds the
// last match pulled as its head without taking it until the next take,
// so stop debits that head: Merged counts exactly the matches taken.
type creditor struct {
	d    *DB
	e    *lazy.Enumerator
	head *lazy.Match // the last match pulled; nil once exhausted
}

// Next implements lazy.Source.
func (c *creditor) Next() (*lazy.Match, bool) {
	m, ok := c.e.Next()
	if !ok {
		c.head = nil
		return nil, false
	}
	c.d.merged[c.d.assign[m.Nodes[0]]].Add(1)
	c.head = m
	return m, true
}

// TopK hands the k best matches of t to keep in canonical order —
// non-decreasing score, equal scores by node bindings, the k-th score's
// tie group drained — so the answer is byte-identical to an unsharded
// database's for every shard count and partitioner. The matches are
// valid only during keep, which copies what it retains: the enumerator
// is released when TopK returns.
func (d *DB) TopK(t *query.Tree, k int, opt lazy.Options, keep func([]*lazy.Match)) {
	if k <= 0 {
		keep(nil)
		return
	}
	m, stop := d.open(t, opt)
	defer stop()
	keep(m.TopK(k))
}

// Stream incrementally enumerates t's matches in the order TopK returns.
// The merge takes one whole tie group at a time, so Merged counts every
// tie group the stream reached. A match Next returns is valid until the
// next Next or Close, so consumers copy what they keep. Callers that do
// not drain to exhaustion must call Close.
func (d *DB) Stream(t *query.Tree, opt lazy.Options) *Stream {
	m, stop := d.open(t, opt)
	return &Stream{m: m, stop: stop}
}

// Stream is an incremental enumeration; see DB.Stream.
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

// Close releases the enumerator, so every match Next returned is invalid
// afterwards. Idempotent; exhaustion closes the stream itself.
func (s *Stream) Close() {
	if !s.closed {
		s.closed = true
		s.stop()
	}
}
