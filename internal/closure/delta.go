package closure

import (
	"cmp"
	"fmt"
	"slices"

	"ktpm/internal/graph"
)

// Delta is the write path's change log. AddEdges appends, for every
// (from, to) pair whose shortest distance a new edge may have created or
// improved, the candidate distance to one flat log of (α, β, to, dist,
// from) records; MergedSource.Advance sorts that log once, splices it
// into the previous epoch's tables and empties it, so the log holds the
// batches since the last publish and nothing older. A chain of Advances
// from NewMergedSource over the base closure yields, epoch by epoch,
// exactly the closure of the updated graph (see AddEdges for the
// correctness argument), without recomputing the base.
//
// A Delta is not safe for concurrent mutation; the ingest path
// serializes AddEdges and Advance calls and publishes immutable
// MergedSources.
type Delta struct {
	log     []candidate // candidates logged since the last Advance
	entries int
	tables  int
	edges   int

	// Scratch reused across calls: AddEdges' four distance arrays, the
	// sort's second buffer, and the splice's per-node marks, winning
	// candidates, changed groups and index updates.
	dist   [4][]int32
	mark   []int32
	win    []Entry
	groups []spliceGroup
	ups    []indexUpdate
	spare  []candidate
}

// candidate is one logged distance: pair is (α, β) = (l(from), l(to))
// and key is (to, dist), high word first, so that comparing pair, key
// and from in turn orders the log by (α, β, to, dist, from).
type candidate struct {
	pair, key uint64
	from      int32
}

func newCandidate(a, b, to, dist, from int32) candidate {
	return candidate{uint64(a)<<32 | uint64(uint32(b)), uint64(to)<<32 | uint64(uint32(dist)), from}
}

func (c candidate) labels() (a, b int32) { return int32(c.pair >> 32), int32(uint32(c.pair)) }
func (c candidate) to() int32            { return int32(c.key >> 32) }
func (c candidate) dist() int32          { return int32(uint32(c.key)) }

// sortLog sorts the log into (α, β, to, dist, from) order. A least-
// significant-digit radix sort on the label pair, one counting pass per
// byte in which the pairs differ, groups the log by table; each table's
// few candidates are then sorted in place.
func (d *Delta) sortLog() {
	log := d.log
	if len(log) < 2 {
		return
	}
	var diff uint64
	for i := range log {
		diff |= log[i].pair ^ log[0].pair
	}
	if cap(d.spare) < len(log) {
		d.spare = make([]candidate, cap(log))
	}
	src, dst := log, d.spare[:len(log)]
	for shift := uint(0); shift < 64; shift += 8 {
		if diff>>shift&0xff == 0 {
			continue
		}
		var at [256]int
		for i := range src {
			at[uint8(src[i].pair>>shift)]++
		}
		sum := 0
		for k, n := range at {
			at[k] = sum
			sum += n
		}
		for i := range src {
			k := uint8(src[i].pair >> shift)
			dst[at[k]] = src[i]
			at[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &log[0] {
		copy(log, src)
	}
	for i := 0; i < len(log); {
		j := i + 1
		for j < len(log) && log[j].pair == log[i].pair {
			j++
		}
		slices.SortFunc(log[i:j], func(x, y candidate) int {
			return cmp.Or(cmp.Compare(x.key, y.key), cmp.Compare(x.from, y.from))
		})
		i = j
	}
}

type fromTo struct{ from, to int32 }

// NewDelta returns an empty change log.
func NewDelta() *Delta { return &Delta{} }

// Entries is the number of distinct (from, to) pairs the Advances fed
// by d have spliced candidates for, summed over Advances: a small
// superset of the pairs whose distance each batch changed, in which a
// pair two batches log counts twice.
func (d *Delta) Entries() int { return d.entries }

// TablesTouched is the number of label-pair tables the Advances fed by
// d have materialized: those that differ from the base.
func (d *Delta) TablesTouched() int { return d.tables }

// EdgesApplied is the number of edges folded in via AddEdges.
func (d *Delta) EdgesApplied() int { return d.edges }

// AddEdges logs the incremental closure of newly-added edges. g must be
// the combined graph that already contains the edges (plus every edge
// from earlier AddEdges calls since the last Advance).
//
// The edges are applied one at a time, each against the graph as it was
// before it: g minus the batch edges not yet applied. (g is simple —
// graph.Builder keeps the lightest of parallel edges — so a batch edge
// heavier than g's edge on its pair is dominated and skipped, and one
// that equals it is taken as new even if the pair had that weight
// before: starting from a subgraph of the true pre-batch graph can only
// enlarge what is recorded below.) For an edge (u, v, w) four searches
// over that pre-edge graph give d(x,u) and d(x,v) for every x, d(v,y)
// and d(u,y) for every y, and the log records the candidate
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
// distance differs between the closure merged last and g was last
// changed by some edge, whose candidate is that final distance.
// Min-merging the log into that closure (the previous epoch's, or the
// base for NewMergedSource) therefore reproduces Compute(g) exactly.
// This holds across AddEdges calls between two merges as long as g grows
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
	// Every search resets what it reached to -1 afterwards, so the
	// arrays are all -1 between calls.
	dist := &d.dist // to u, to v, from v, from u
	if n := g.NumNodes(); len(dist[0]) < n {
		for i := range dist {
			dist[i] = make([]int32, n)
			for j := range dist[i] {
				dist[i][j] = -1
			}
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
		d.log = slices.Grow(d.log, len(srcs)*len(dsts))
		for _, x := range srcs {
			dx, lx := toU[x]+e.Weight, g.Label(x)
			for _, y := range dsts {
				if x != y { // the closure stores no self-pairs
					d.log = append(d.log, newCandidate(lx, g.Label(y), y, dx+fromV[y], x))
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

// MergedSource is a TableSource presenting the base closure with the
// logged candidates spliced in: label-pair tables in which a candidate
// beat what the previous epoch held are materialized, in the canonical
// (To, Dist, From) order; every other table passes through to the base
// unchanged, preserving its lazy/mmap faulting. A MergedSource is
// immutable — neither mutating the Delta afterwards nor calling Advance
// changes it.
type MergedSource struct {
	g          *graph.Graph
	base       TableSource
	merged     tableIndex // tables that differ from the base
	numEntries int64
	numTables  int
	remerged   int
}

var _ TableSource = (*MergedSource)(nil)

// NewMergedSource splices d's log into base. g is the combined graph
// the merged closure describes (base graph + logged edges); it becomes
// the source's Graph(). Touched base tables are faulted here, once,
// rather than at query time. It leaves d as it was, so it can be called
// again after more AddEdges; Advance is what feeds a chain of epochs.
func NewMergedSource(g *graph.Graph, base TableSource, d *Delta) *MergedSource {
	m := &MergedSource{
		base:       base,
		merged:     newTableIndex(g.NumLabels()),
		numEntries: base.NumEntries(),
		numTables:  base.NumTables(),
	}
	next, _, _ := m.spliced(g, d)
	return next
}

// Advance returns the source for the next epoch: d's log, sorted once,
// is spliced into the tables it touches as m holds them, every other
// table and most of the merged-table index are shared with m, and g
// becomes the Graph(). It empties the log and adds to d's Entries and
// TablesTouched, so one Delta feeds one chain of sources.
func (m *MergedSource) Advance(g *graph.Graph, d *Delta) *MergedSource {
	next, pairs, fresh := m.spliced(g, d)
	d.log = d.log[:0]
	d.entries += pairs
	d.tables += fresh
	return next
}

// TablesRemerged is the number of tables the Advance (or
// NewMergedSource) that built m materialized.
func (m *MergedSource) TablesRemerged() int { return m.remerged }

// spliced is m with d's log merged in; pairs counts the distinct pairs
// logged, fresh the tables materialized for the first time.
func (m *MergedSource) spliced(g *graph.Graph, d *Delta) (next *MergedSource, pairs, fresh int) {
	next = &MergedSource{
		g:          g,
		base:       m.base,
		merged:     m.merged,
		numEntries: m.numEntries,
		numTables:  m.numTables,
	}
	log := d.log
	if len(log) == 0 {
		return next, 0, 0
	}
	d.sortLog()
	if n := g.NumNodes(); len(d.mark) < n {
		d.mark = make([]int32, n)
	}
	ups := d.ups[:0]
	for i := 0; i < len(log); {
		a, b := log[i].labels()
		j := i + 1
		for j < len(log) && log[j].pair == log[i].pair {
			j++
		}
		prev := m.merged.get(a, b)
		first := prev == nil
		if first {
			prev = m.base.Table(a, b)
		}
		out, logged, added := d.splice(prev, log[i:j])
		pairs += logged
		if out != nil {
			if len(prev) == 0 {
				next.numTables++
			}
			if first {
				fresh++
			}
			ups = append(ups, indexUpdate{a, b, out})
			next.numEntries += int64(added)
		}
		i = j
	}
	next.merged = m.merged.with(ups)
	next.remerged = len(ups)
	clear(ups) // drop the scratch's references to the tables
	d.ups = ups[:0]
	return next, pairs, fresh
}

// spliceGroup is one To group a splice changes: prev[lo:hi] is its old
// form, win[w0:w1] the candidates that beat it.
type spliceGroup struct{ lo, hi, w0, w1 int }

// splice merges one table's candidates, sorted by (To, Dist, From), into
// prev, the table's previous form in the same order. It returns the new
// table — each To group holding a winning candidate rebuilt, prev's runs
// between them copied as they are — or nil when no candidate beats
// prev; logged counts the distinct pairs among cands, added the entries
// inserted. d.mark must cover every node and is all zero between calls.
func (d *Delta) splice(prev []Entry, cands []candidate) (out []Entry, logged, added int) {
	mark, win, groups := d.mark, d.win[:0], d.groups[:0]
	pos := 0
	for i := 0; i < len(cands); {
		to := cands[i].to()
		j := i + 1
		for j < len(cands) && cands[j].to() == to {
			j++
		}
		lo, hi := pos, len(prev) // binary search for the group's start
		for lo < hi {
			if h := int(uint(lo+hi) >> 1); prev[h].To < to {
				lo = h + 1
			} else {
				hi = h
			}
		}
		for hi < len(prev) && prev[hi].To == to {
			hi++
		}
		pos = hi
		// A From's first candidate is its least; mark holds 1 + its dist
		// until prev shows it no better (-1).
		w0 := len(win)
		for _, c := range cands[i:j] {
			if mark[c.from] == 0 {
				mark[c.from] = c.dist() + 1
				win = append(win, Entry{From: c.from, To: to, Dist: c.dist()})
			}
		}
		lowered := 0
		for _, e := range prev[lo:hi] {
			if mk := mark[e.From]; mk > 0 {
				if mk-1 < e.Dist {
					lowered++
				} else {
					mark[e.From] = -1
				}
			}
		}
		w1 := w0
		for _, w := range win[w0:] {
			if mark[w.From] > 0 {
				win[w1] = w
				w1++
			}
			mark[w.From] = 0
		}
		logged += len(win) - w0
		win = win[:w1]
		if w1 > w0 {
			groups = append(groups, spliceGroup{lo, hi, w0, w1})
			added += w1 - w0 - lowered
		}
		i = j
	}
	d.win, d.groups = win, groups
	if len(groups) == 0 {
		return nil, logged, 0
	}
	out = make([]Entry, 0, len(prev)+added)
	copied := 0
	for _, gr := range groups {
		out = append(out, prev[copied:gr.lo]...)
		old, ws := prev[gr.lo:gr.hi], win[gr.w0:gr.w1]
		for _, w := range ws {
			mark[w.From] = 1
		}
		// Both runs are in (Dist, From) order; an old entry whose From
		// has a winner is the one it lowers.
		for a, b := 0, 0; a < len(old) || b < len(ws); {
			switch {
			case a < len(old) && mark[old[a].From] != 0:
				a++
			case b == len(ws) || a < len(old) && (old[a].Dist < ws[b].Dist || old[a].Dist == ws[b].Dist && old[a].From < ws[b].From):
				out = append(out, old[a])
				a++
			default:
				out = append(out, ws[b])
				b++
			}
		}
		for _, w := range ws {
			mark[w.From] = 0
		}
		copied = gr.hi
	}
	return append(out, prev[copied:]...), logged, added
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
	if tab := m.merged.get(alpha, beta); tab != nil {
		return len(tab)
	}
	return m.base.TableLen(alpha, beta)
}

// Table returns the merged L^α_β, canonical (To, Dist, From) order.
func (m *MergedSource) Table(alpha, beta int32) []Entry {
	if tab := m.merged.get(alpha, beta); tab != nil {
		return tab
	}
	return m.base.Table(alpha, beta)
}

// TableLens iterates merged table sizes: base tables (with merged
// counts where touched) first, then tables the base lacks.
func (m *MergedSource) TableLens(fn func(alpha, beta int32, count int) bool) {
	stop := false
	m.base.TableLens(func(alpha, beta int32, count int) bool {
		if tab := m.merged.get(alpha, beta); tab != nil {
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
	m.merged.each(func(alpha, beta int32, tab []Entry) bool {
		// Tables the base has were reported through the base pass.
		return m.base.TableLen(alpha, beta) > 0 || fn(alpha, beta, len(tab))
	})
}

// Tables iterates every merged table; untouched base tables fault here.
func (m *MergedSource) Tables(fn func(alpha, beta int32, entries []Entry) bool) {
	stop := false
	m.base.TableLens(func(alpha, beta int32, _ int) bool {
		tab := m.merged.get(alpha, beta)
		if tab == nil {
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
	m.merged.each(func(alpha, beta int32, tab []Entry) bool {
		return m.base.TableLen(alpha, beta) > 0 || fn(alpha, beta, tab)
	})
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
