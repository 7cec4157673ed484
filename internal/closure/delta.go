package closure

import (
	"fmt"
	"maps"
	"sort"

	"ktpm/internal/graph"
)

// Delta is the in-memory overlay the ingest path accumulates between
// compactions: for every (from, to) pair whose shortest distance a new
// edge may have created or improved, the overlay holds the candidate
// distance. Merging a Delta with the immutable base closure via
// NewMergedSource (or, epoch by epoch, MergedSource.Advance) yields
// exactly the closure of the updated graph (see AddEdges for the
// correctness argument), without recomputing the base.
//
// A Delta is not safe for concurrent mutation; the ingest path
// serializes AddEdges calls and publishes immutable MergedSources.
type Delta struct {
	tables  map[pairKey]map[fromTo]int32 // (alpha, beta) -> (from, to) -> min candidate dist
	dirty   map[pairKey]struct{}         // tables added to or lowered since the last Advance
	entries int
	edges   int
}

type fromTo struct{ from, to int32 }

// NewDelta returns an empty overlay.
func NewDelta() *Delta {
	return &Delta{tables: make(map[pairKey]map[fromTo]int32), dirty: make(map[pairKey]struct{})}
}

// Entries is the number of (from, to) pairs in the overlay.
func (d *Delta) Entries() int { return d.entries }

// TablesTouched is the number of label-pair tables the overlay affects.
func (d *Delta) TablesTouched() int { return len(d.tables) }

// EdgesApplied is the number of edges folded in via AddEdges.
func (d *Delta) EdgesApplied() int { return d.edges }

func (d *Delta) add(key pairKey, ft fromTo, dist int32) {
	tab := d.tables[key]
	if tab == nil {
		tab = make(map[fromTo]int32)
		d.tables[key] = tab
	}
	if old, ok := tab[ft]; ok {
		if dist >= old {
			return
		}
	} else {
		d.entries++
	}
	tab[ft] = dist
	d.dirty[key] = struct{}{}
}

// AddEdges folds the incremental closure of newly-added edges into the
// overlay. g must be the combined graph that already contains the
// edges (plus every edge from earlier AddEdges calls on this Delta).
//
// The edges are applied one at a time, each against the graph as it was
// before it: g minus the batch edges not yet applied. (g is simple —
// graph.Builder keeps the lightest of parallel edges — so a batch edge
// heavier than g's edge on its pair is dominated and skipped, and one
// that equals it is taken as new even if the pair had that weight
// before: starting from a subgraph of the true pre-batch graph can only
// enlarge what is recorded below.) For an edge (u, v, w) four searches
// over that pre-edge graph give d(x,u) and d(x,v) for every x, d(v,y)
// and d(u,y) for every y, and the overlay records the candidate
// d(x,u) + w + d(v,y) only for
//
//	x in S = {x : d(x,u) + w < d(x,v)}  and  y in T = {y : w + d(v,y) < d(u,y)}.
//
// Nothing is lost: the edge shortens x→y only if the new shortest path
// crosses it, once, at length d(x,u) + w + d(v,y) < d(x,y). Were x
// outside S, the pre-edge triangle inequality would give d(x,y) ≤
// d(x,v) + d(v,y) ≤ d(x,u) + w + d(v,y), a contradiction; y outside T
// likewise. So every pair the edge changes is in S × T with its exact
// new distance, and an edge that shortens nothing (d(u,v) ≤ w, hence S
// empty) records nothing. Every candidate is the length of a real path
// in g, so none undershoots the final distance; and a pair whose
// distance differs between the base and g was last changed by some
// edge, whose candidate is that final distance. Min-merging the overlay
// over the base closure therefore reproduces Compute(g) exactly. This
// holds across AddEdges calls on the same Delta as long as g grows
// monotonically: stale (larger) candidates from earlier edges are still
// real path lengths and lose the min to the exact ones.
//
// Depth-truncated closures (Options.MaxDepth > 0) are not supported —
// truncation is not reconstructible from per-edge searches.
func (d *Delta) AddEdges(g *graph.Graph, edges []graph.Edge) {
	// The batch edges that are g's edge on their pair and still to be
	// applied, by pair, with that weight; the searches skip them.
	absent := make(map[fromTo]int32, len(edges))
	for _, e := range edges {
		g.Out(e.From, func(to, w int32) bool {
			if to == e.To && w == e.Weight {
				absent[fromTo{e.From, e.To}] = w
			}
			return to != e.To
		})
	}
	n := g.NumNodes()
	var dist [4][]int32 // to u, to v, from v, from u
	for i := range dist {
		dist[i] = make([]int32, n)
		for j := range dist[i] {
			dist[i][j] = -1
		}
	}
	toU, toV, fromV, fromU := dist[0], dist[1], dist[2], dist[3]
	var reached [4][]int32
	var srcs, dsts []int32 // S and T of the current edge
	for _, e := range edges {
		d.edges++
		if w, ok := absent[fromTo{e.From, e.To}]; !ok || w != e.Weight {
			continue // heavier than g's edge on the pair, or a repeat of one applied
		}
		reached[0] = deltaSearch(g, e.From, toU, true, absent, reached[0])
		reached[1] = deltaSearch(g, e.To, toV, true, absent, reached[1])
		srcs, dsts = srcs[:0], dsts[:0]
		for _, x := range reached[0] {
			if dv := toV[x]; dv < 0 || toU[x]+e.Weight < dv {
				srcs = append(srcs, x)
			}
		}
		if len(srcs) > 0 {
			reached[2] = deltaSearch(g, e.To, fromV, false, absent, reached[2])
			reached[3] = deltaSearch(g, e.From, fromU, false, absent, reached[3])
			for _, y := range reached[2] {
				if du := fromU[y]; du < 0 || e.Weight+fromV[y] < du {
					dsts = append(dsts, y)
				}
			}
		}
		for _, x := range srcs {
			dx, lx := toU[x]+e.Weight, g.Label(x)
			for _, y := range dsts {
				if x != y { // the closure stores no self-pairs
					d.add(pairKey{lx, g.Label(y)}, fromTo{x, y}, dx+fromV[y])
				}
			}
		}
		for i, r := range reached {
			for _, v := range r {
				dist[i][v] = -1
			}
			reached[i] = r[:0]
		}
		delete(absent, fromTo{e.From, e.To})
	}
}

// deltaSearch is Dijkstra from src over g (reversed edges when rev)
// without the edges in absent, writing distances into dist and
// appending the reached nodes, src first, to reached. Unit-weight
// graphs take the same path — correct, marginally slower than BFS, and
// not worth a second code path on the write side.
func deltaSearch(g *graph.Graph, src int32, dist []int32, rev bool, absent map[fromTo]int32, reached []int32) []int32 {
	type qi struct{ d, v int32 }
	h := []qi{{0, src}}
	push := func(e qi) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
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
		for i := 0; ; {
			l, r, s := 2*i+1, 2*i+2, i
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
	visit := func(v int32, fn func(adj, w int32) bool) {
		if rev {
			g.In(v, fn)
		} else {
			g.Out(v, fn)
		}
	}
	dist[src] = 0
	reached = append(reached, src)
	for len(h) > 0 {
		cur := pop()
		if cur.d > dist[cur.v] {
			continue
		}
		visit(cur.v, func(adj, w int32) bool {
			ft := fromTo{cur.v, adj}
			if rev {
				ft = fromTo{adj, cur.v}
			}
			if _, skip := absent[ft]; skip {
				return true
			}
			nd := cur.d + w
			if dist[adj] < 0 || nd < dist[adj] {
				if dist[adj] < 0 {
					reached = append(reached, adj)
				}
				dist[adj] = nd
				push(qi{nd, adj})
			}
			return true
		})
	}
	return reached
}

// MergedSource is a TableSource presenting base ∪ delta: label-pair
// tables in which an overlay candidate beats the base are materialized
// (min-merged and re-sorted into the canonical (To, Dist, From) order);
// every other table passes through to the base unchanged, preserving
// its lazy/mmap faulting. A MergedSource is immutable — neither
// mutating the Delta afterwards nor calling Advance changes it.
type MergedSource struct {
	g          *graph.Graph
	base       TableSource
	merged     map[pairKey][]Entry // tables that differ from the base
	numEntries int64
	numTables  int
	remerged   int
}

var _ TableSource = (*MergedSource)(nil)

// NewMergedSource materializes all of delta over base. g is the
// combined graph the merged closure describes (base graph + delta
// edges); it becomes the source's Graph(). Touched base tables are
// faulted here, once, rather than at query time.
func NewMergedSource(g *graph.Graph, base TableSource, d *Delta) *MergedSource {
	m := &MergedSource{
		g:          g,
		base:       base,
		merged:     make(map[pairKey][]Entry, len(d.tables)),
		numEntries: base.NumEntries(),
		numTables:  base.NumTables(),
	}
	for key, overlay := range d.tables {
		m.remerge(key, overlay)
	}
	return m
}

// Advance returns the source for the next epoch: the tables d dirtied
// since the previous Advance are re-merged from the base and d's
// overlay, every other table is shared with m, and g becomes the
// Graph(). It clears d's dirty set, so one Delta feeds one chain of
// sources; each source in the chain equals NewMergedSource over the
// Delta as it stood at that Advance.
func (m *MergedSource) Advance(g *graph.Graph, d *Delta) *MergedSource {
	next := &MergedSource{
		g:          g,
		base:       m.base,
		merged:     maps.Clone(m.merged),
		numEntries: m.numEntries,
		numTables:  m.numTables,
	}
	for key := range d.dirty {
		next.remerge(key, d.tables[key])
	}
	clear(d.dirty)
	return next
}

// TablesRemerged is the number of tables the Advance (or
// NewMergedSource) that built m materialized.
func (m *MergedSource) TablesRemerged() int { return m.remerged }

// remerge rebuilds one table from the base and its overlay. A table in
// which no candidate beats the base keeps sharing the base's slice.
func (m *MergedSource) remerge(key pairKey, overlay map[fromTo]int32) {
	baseTab := m.base.Table(key.a, key.b)
	inBase, improves := 0, false
	for _, e := range baseTab {
		if dd, ok := overlay[fromTo{e.From, e.To}]; ok {
			inBase++
			improves = improves || dd < e.Dist
		}
	}
	if !improves && inBase == len(overlay) {
		return
	}
	out := make([]Entry, 0, len(baseTab)+len(overlay)-inBase)
	pending := maps.Clone(overlay)
	for _, e := range baseTab {
		if dd, ok := pending[fromTo{e.From, e.To}]; ok {
			if dd < e.Dist {
				e.Dist = dd
			}
			delete(pending, fromTo{e.From, e.To})
		}
		out = append(out, e)
	}
	for ft, dd := range pending {
		out = append(out, Entry{From: ft.from, To: ft.to, Dist: dd})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].To != out[j].To {
			return out[i].To < out[j].To
		}
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].From < out[j].From
	})
	old, ok := m.merged[key]
	if !ok {
		old = baseTab
	}
	m.numEntries += int64(len(out) - len(old))
	if len(old) == 0 {
		m.numTables++
	}
	m.merged[key] = out
	m.remerged++
}

// Graph returns the combined graph.
func (m *MergedSource) Graph() *graph.Graph { return m.g }

// NumEntries returns the merged closure size.
func (m *MergedSource) NumEntries() int64 { return m.numEntries }

// NumTables returns the merged table count.
func (m *MergedSource) NumTables() int { return m.numTables }

// TableLen returns the merged length of L^α_β without faulting
// untouched base tables.
func (m *MergedSource) TableLen(alpha, beta int32) int {
	if tab, ok := m.merged[pairKey{alpha, beta}]; ok {
		return len(tab)
	}
	return m.base.TableLen(alpha, beta)
}

// Table returns the merged L^α_β, canonical (To, Dist, From) order.
func (m *MergedSource) Table(alpha, beta int32) []Entry {
	if tab, ok := m.merged[pairKey{alpha, beta}]; ok {
		return tab
	}
	return m.base.Table(alpha, beta)
}

// TableLens iterates merged table sizes: base tables (with overlaid
// counts where touched) first, then overlay-only tables.
func (m *MergedSource) TableLens(fn func(alpha, beta int32, count int) bool) {
	stop := false
	m.base.TableLens(func(alpha, beta int32, count int) bool {
		if tab, ok := m.merged[pairKey{alpha, beta}]; ok {
			count = len(tab)
		}
		if !fn(alpha, beta, count) {
			stop = true
			return false
		}
		return true
	})
	if stop {
		return
	}
	for key, tab := range m.merged {
		if m.base.TableLen(key.a, key.b) > 0 {
			continue // already reported through the base pass
		}
		if !fn(key.a, key.b, len(tab)) {
			return
		}
	}
}

// Tables iterates every merged table; untouched base tables fault here.
func (m *MergedSource) Tables(fn func(alpha, beta int32, entries []Entry) bool) {
	stop := false
	m.base.TableLens(func(alpha, beta int32, _ int) bool {
		tab, ok := m.merged[pairKey{alpha, beta}]
		if !ok {
			tab = m.base.Table(alpha, beta)
		}
		if !fn(alpha, beta, tab) {
			stop = true
			return false
		}
		return true
	})
	if stop {
		return
	}
	for key, tab := range m.merged {
		if m.base.TableLen(key.a, key.b) > 0 {
			continue
		}
		if !fn(key.a, key.b, tab) {
			return
		}
	}
}

// ComputeStats summarizes the merged closure.
func (m *MergedSource) ComputeStats() Stats {
	s := Stats{Entries: m.numEntries, Tables: m.numTables, SizeBytes: m.numEntries * EntrySize}
	m.TableLens(func(_, _ int32, count int) bool {
		if count > s.MaxTable {
			s.MaxTable = count
		}
		return true
	})
	if s.Tables > 0 {
		s.Theta = float64(s.Entries) / float64(s.Tables)
	}
	if n := m.g.NumNodes(); n > 0 {
		s.AvgPerNode = float64(s.Entries) / float64(n)
	}
	return s
}

// CombineGraph rebuilds the combined graph: every node and edge of
// base plus the new edges, sharing base's label interner so canonical
// query strings parse identically across epochs. New edges must
// connect existing nodes; node-count growth is the compactor's job in
// a future PR.
func CombineGraph(base *graph.Graph, edges []graph.Edge) (*graph.Graph, error) {
	n := int32(base.NumNodes())
	b := graph.NewBuilderWithLabels(base.Labels)
	for v := int32(0); v < n; v++ {
		b.AddNodeLabelID(base.Label(v))
		if w := base.NodeWeight(v); w != 0 {
			b.SetNodeWeight(v, w)
		}
	}
	base.Edges(func(e graph.Edge) bool {
		b.AddWeightedEdge(e.From, e.To, e.Weight)
		return true
	})
	for _, e := range edges {
		if e.From < 0 || e.From >= n || e.To < 0 || e.To >= n {
			return nil, fmt.Errorf("edge (%d -> %d) references a node outside [0, %d)", e.From, e.To, n)
		}
		b.AddWeightedEdge(e.From, e.To, e.Weight)
	}
	return b.Build()
}
