// Package closure computes and stores the transitive closure G_c of a data
// graph (Section 3.1): for every ordered pair (v, v') with a directed path
// from v to v', the closure records the shortest distance δmin(v, v').
//
// Entries are organized into label-pair tables L^α_β = {(v_i, v_j, δ) |
// l(v_i)=α, l(v_j)=β}, the on-disk layout Sections 3.1 and 4.1 assume. The
// tables drive run-time graph identification (package rtg) and the
// simulated block store (package store).
//
// Closure computation is one BFS (unweighted) or Dijkstra (weighted) per
// source, O(n·m) / O(n(m + n log n)) — the technique the paper cites from
// [9]. A DistanceOracle interface abstracts the distance source so the
// 2-hop / pruned-landmark index (package pll) can substitute for the full
// closure (the Section 5 "Managing Closure Size" extension).
package closure

import (
	"runtime"
	"sort"
	"sync"

	"ktpm/internal/graph"
)

// Unreachable is returned by DistanceOracle.Distance for disconnected
// pairs.
const Unreachable = int32(-1)

// DistanceOracle answers reachability-with-distance queries on a fixed
// graph.
type DistanceOracle interface {
	// Distance returns δmin(u, v), or Unreachable.
	Distance(u, v int32) int32
}

// Entry is one closure edge: From reaches To at shortest distance Dist.
type Entry struct {
	From, To int32
	Dist     int32
}

// EntrySize is the encoded width of one Entry's three int32 fields, the
// unit of SizeBytes and of the snapshot reader's overflow-safe bound on
// a table's entry count.
const EntrySize = 12

// TableSource is read access to a closure organized as label-pair tables
// — the contract the store layout, the run-time graph builder, and the
// serializers consume. Both the fully in-memory *Closure and the
// disk-backed *Snapshot implement it. Table may fault data in lazily;
// TableLen and TableLens answer from the directory without touching
// entry payloads, so callers that only need sizes stay cheap on lazy
// sources.
type TableSource interface {
	// Graph returns the underlying data graph.
	Graph() *graph.Graph
	// NumEntries returns the total closure size.
	NumEntries() int64
	// NumTables returns the number of non-empty label-pair tables.
	NumTables() int
	// TableLen returns len(Table(alpha, beta)) without loading entries.
	TableLen(alpha, beta int32) int
	// TableLens calls fn for every non-empty table with its entry count,
	// without loading entries.
	TableLens(fn func(alpha, beta int32, count int) bool)
	// Table returns the L^α_β entries sorted by (To, Dist, From); the
	// slice is shared and must not be modified. May fault lazily.
	Table(alpha, beta int32) []Entry
	// Tables calls fn for every non-empty label-pair table. On a lazy
	// source this faults every table it visits.
	Tables(fn func(alpha, beta int32, entries []Entry) bool)
	// ComputeStats summarizes the closure for Table 2 reporting.
	ComputeStats() Stats
}

var _ TableSource = (*Closure)(nil)

// pairKey packs an ordered label pair into a map key.
type pairKey struct{ a, b int32 }

// Closure is the materialized transitive closure of a graph, with entries
// grouped into label-pair tables.
type Closure struct {
	g      *graph.Graph
	tables map[pairKey][]Entry
	// numEntries is the total closure size (number of reachable ordered
	// pairs).
	numEntries int64
	// dist is a per-source map used by Distance; nil until the closure is
	// built with distance lookup enabled.
	dist []map[int32]int32
}

// Options configures closure construction.
type Options struct {
	// KeepDistanceIndex retains a per-source hash index so the Closure can
	// serve as a DistanceOracle. Costs O(closure size) extra memory.
	KeepDistanceIndex bool
	// MaxDepth, when positive, truncates searches at the given distance;
	// pairs further apart are treated as unreachable. Zero means unbounded.
	// Used by tests and by experiments on bounded-reach variants.
	MaxDepth int32
	// Parallelism is the number of worker goroutines for the per-source
	// searches; 0 means GOMAXPROCS, 1 forces sequential. The result is
	// identical regardless (tables are canonically sorted).
	Parallelism int
}

// Compute builds the transitive closure of g.
func Compute(g *graph.Graph, opt Options) *Closure {
	c := &Closure{g: g, tables: make(map[pairKey][]Entry)}
	if opt.KeepDistanceIndex {
		c.dist = make([]map[int32]int32, g.NumNodes())
	}
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := g.NumNodes()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		c.numEntries = c.computeRange(0, int32(n), opt, c.tables)
		c.finalize()
		return c
	}
	// Shard the sources; each worker fills a private table map (and its
	// disjoint slice of the distance index), then the shards merge.
	type shard struct {
		tables map[pairKey][]Entry
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := int32(w * chunk)
		hi := lo + int32(chunk)
		if hi > int32(n) {
			hi = int32(n)
		}
		if lo >= hi {
			continue
		}
		shards[w].tables = make(map[pairKey][]Entry)
		wg.Add(1)
		go func(w int, lo, hi int32) {
			defer wg.Done()
			c.computeRange(lo, hi, opt, shards[w].tables)
		}(w, lo, hi)
	}
	wg.Wait()
	var total int64
	for _, sh := range shards {
		for k, tab := range sh.tables {
			c.tables[k] = append(c.tables[k], tab...)
			total += int64(len(tab))
		}
	}
	c.numEntries = total
	c.finalize()
	return c
}

// computeRange runs the per-source searches for sources in [lo, hi),
// appending entries into tables, and returns how many entries it added.
// Workers write disjoint c.dist slots, so no synchronization is needed
// beyond the WaitGroup.
func (c *Closure) computeRange(lo, hi int32, opt Options, tables map[pairKey][]Entry) int64 {
	g := c.g
	unweighted := g.Unweighted()
	n := g.NumNodes()
	distBuf := make([]int32, n)
	for i := range distBuf {
		distBuf[i] = -1
	}
	var queue []int32
	var added int64
	for src := lo; src < hi; src++ {
		var reached []int32
		if unweighted {
			reached = bfsFrom(g, src, distBuf, &queue, opt.MaxDepth)
		} else {
			reached = dijkstraFrom(g, src, distBuf, opt.MaxDepth)
		}
		srcLbl := g.Label(src)
		var idx map[int32]int32
		if c.dist != nil {
			idx = make(map[int32]int32, len(reached))
			c.dist[src] = idx
		}
		for _, v := range reached {
			d := distBuf[v]
			key := pairKey{srcLbl, g.Label(v)}
			tables[key] = append(tables[key], Entry{From: src, To: v, Dist: d})
			added++
			if idx != nil {
				idx[v] = d
			}
			distBuf[v] = -1 // reset scratch
		}
	}
	return added
}

// finalize sorts every table into the canonical (To, Dist, From) order the
// store layout requires.
func (c *Closure) finalize() {
	for _, tab := range c.tables {
		sort.Slice(tab, func(i, j int) bool {
			if tab[i].To != tab[j].To {
				return tab[i].To < tab[j].To
			}
			if tab[i].Dist != tab[j].Dist {
				return tab[i].Dist < tab[j].Dist
			}
			return tab[i].From < tab[j].From
		})
	}
}

// bfsFrom runs BFS from src over unit weights, writing distances of
// reached nodes (excluding src itself) into dist and returning their IDs.
func bfsFrom(g *graph.Graph, src int32, dist []int32, queue *[]int32, maxDepth int32) []int32 {
	q := (*queue)[:0]
	q = append(q, src)
	dist[src] = 0
	var reached []int32
	for head := 0; head < len(q); head++ {
		u := q[head]
		du := dist[u]
		if maxDepth > 0 && du >= maxDepth {
			continue
		}
		g.Out(u, func(to, w int32) bool {
			if dist[to] < 0 {
				dist[to] = du + 1
				reached = append(reached, to)
				q = append(q, to)
			}
			return true
		})
	}
	dist[src] = -1
	*queue = q
	return reached
}

// dijkstraFrom runs Dijkstra from src for weighted graphs.
func dijkstraFrom(g *graph.Graph, src int32, dist []int32, maxDepth int32) []int32 {
	type qi struct {
		d int32
		v int32
	}
	// Local binary heap; closure construction is offline so simplicity
	// beats sharing the indexed heap here.
	h := []qi{{0, src}}
	push := func(e qi) {
		h = append(h, e)
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h[p].d <= h[i].d {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() qi {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(h) && h[l].d < h[s].d {
				s = l
			}
			if r < len(h) && h[r].d < h[s].d {
				s = r
			}
			if s == i {
				break
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
		return top
	}
	dist[src] = 0
	var reached []int32
	for len(h) > 0 {
		cur := pop()
		if cur.d > dist[cur.v] {
			continue // stale
		}
		if maxDepth > 0 && cur.d >= maxDepth {
			continue
		}
		g.Out(cur.v, func(to, w int32) bool {
			nd := cur.d + w
			if dist[to] < 0 || nd < dist[to] {
				if dist[to] < 0 {
					reached = append(reached, to)
				}
				dist[to] = nd
				push(qi{nd, to})
			}
			return true
		})
	}
	dist[src] = -1
	return reached
}

// Graph returns the underlying data graph.
func (c *Closure) Graph() *graph.Graph { return c.g }

// NumEntries returns the closure size (reachable ordered pairs, excluding
// self-pairs).
func (c *Closure) NumEntries() int64 { return c.numEntries }

// Table returns the L^α_β table: all entries (v, v', δ) with l(v)=α and
// l(v')=β, sorted by (To, Dist, From). The slice is shared; callers must
// not modify it.
func (c *Closure) Table(alpha, beta int32) []Entry {
	return c.tables[pairKey{alpha, beta}]
}

// NumTables returns the number of non-empty label-pair tables.
func (c *Closure) NumTables() int { return len(c.tables) }

// TableLen returns the entry count of L^α_β.
func (c *Closure) TableLen(alpha, beta int32) int {
	return len(c.tables[pairKey{alpha, beta}])
}

// TableLens calls fn for every non-empty table with its entry count.
func (c *Closure) TableLens(fn func(alpha, beta int32, count int) bool) {
	for k, tab := range c.tables {
		if !fn(k.a, k.b, len(tab)) {
			return
		}
	}
}

// Tables calls fn for every non-empty label-pair table.
func (c *Closure) Tables(fn func(alpha, beta int32, entries []Entry) bool) {
	for k, tab := range c.tables {
		if !fn(k.a, k.b, tab) {
			return
		}
	}
}

// Distance implements DistanceOracle. It requires KeepDistanceIndex; on a
// closure built without it, Distance panics (programming error, not data).
func (c *Closure) Distance(u, v int32) int32 {
	if c.dist == nil {
		panic("closure: Distance requires Options.KeepDistanceIndex")
	}
	if u == v {
		return 0
	}
	if d, ok := c.dist[u][v]; ok {
		return d
	}
	return Unreachable
}

// Theta returns θ, the average number of closure entries per non-empty
// label-pair type (Sections 1 and 3.1): m_R = θ·n_T on average.
func (c *Closure) Theta() float64 {
	if len(c.tables) == 0 {
		return 0
	}
	return float64(c.numEntries) / float64(len(c.tables))
}

// SizeBytes is the closure's serialized payload size: the paper's triple
// layout (from, to, dist), priced at the real encoded entry width the
// serializers write.
func (c *Closure) SizeBytes() int64 { return c.numEntries * EntrySize }

// Stats summarizes the closure for Table 2 reporting.
type Stats struct {
	Entries    int64
	Tables     int
	Theta      float64
	SizeBytes  int64
	MaxTable   int
	AvgPerNode float64
}

// ComputeStats returns summary statistics.
func (c *Closure) ComputeStats() Stats {
	s := Stats{Entries: c.numEntries, Tables: len(c.tables), Theta: c.Theta(), SizeBytes: c.SizeBytes()}
	for _, tab := range c.tables {
		if len(tab) > s.MaxTable {
			s.MaxTable = len(tab)
		}
	}
	if n := c.g.NumNodes(); n > 0 {
		s.AvgPerNode = float64(c.numEntries) / float64(n)
	}
	return s
}
