// Package lazy implements Algorithms 2 and 3 of the paper (Topk-EN): top-k
// tree matching over a run-time graph that is loaded from the (simulated)
// disk store on demand, in priority order.
//
// The machinery follows Section 4 closely:
//
//   - A global minimum priority queue Qg holds "active" nodes — candidates
//     whose every child group already has at least one loaded edge — keyed
//     by lb(v) = bs̄(v) + e_v + L(q(v)), where bs̄ is the Equation-3 upper
//     bound over the loaded portion, e_v lower-bounds the unloaded incoming
//     distances (D-table minimum before any block is read, last loaded
//     distance afterwards — lists are distance-sorted), and L(u) =
//     n_T - 1 - |T_u| is the trivial remaining-edges bound. The LooseBound
//     option drops the L(u) term, which is the DP-P-style weaker trigger
//     (ablation A3 and the dp package's loading discipline).
//   - Popping Qg finalizes bs (Theorem 4.2) and loads the node's incoming
//     blocks while the re-estimated lb keeps it at the top (Algorithm 2,
//     Lines 14-17); loaded edges propagate (child, bs+δ) entries into
//     parents' child lists, activating or re-keying them (Line 13).
//   - Enumeration reuses the Lawler division of package core, but a
//     candidate computed from partial lists is only trusted once its score
//     is no larger than the current top of Qg (Theorem 4.1's monotonicity);
//     until then it parks in a pending set and is re-scored as loading
//     progresses, including the "empty now, nonempty later" ∞-score case
//     the paper calls out in Section 4.3.
package lazy

import (
	"math"
	"sync"
	"unsafe"

	"ktpm/internal/graph"
	"ktpm/internal/heap"
	"ktpm/internal/label"
	"ktpm/internal/obs"
	"ktpm/internal/query"
	"ktpm/internal/store"
)

// infScore marks a currently-empty subspace (Section 4.3). Kept well below
// MaxInt64 so additions cannot overflow.
const infScore = int64(math.MaxInt64 / 4)

// Bound selects the loading trigger.
type Bound int

const (
	// TightBound is the paper's lb with the remaining-edges term L(u).
	TightBound Bound = iota
	// LooseBound drops L(u), reproducing the weaker DP-P-style trigger;
	// it loads more edges but returns identical results.
	LooseBound
	// EdgeAwareBound strengthens L(u) beyond the paper: instead of
	// counting one unit per remaining query edge, it sums each remaining
	// edge's minimum possible distance as recorded in its D table. The
	// paper notes it can only identify "a trivial lower bound L(u)"
	// because it prices every edge at 1; the D tables loaded at
	// initialization already contain the per-edge minima, so this bound
	// is free to compute and never weaker. Results are identical; only
	// fewer edges are loaded (ablation A5 in docs/REPRODUCTION.md).
	EdgeAwareBound
)

// Options configures the enumerator.
type Options struct {
	Bound Bound
	// RootFilter, when non-nil, restricts enumeration to matches whose
	// root position binds a data node the filter accepts; candidates for
	// non-root positions are unaffected. Because every match binds the
	// root to exactly one data node, filters over disjoint vertex sets
	// partition the match space — the property internal/remote's workers
	// use to split top-k: each worker's emission stays sorted by score
	// and their union reconstructs the unrestricted enumeration.
	RootFilter func(v int32) bool
	// Trace, when non-nil, parents the enumerator's trace spans: store
	// slow paths (table carves and first derives) record "table_fault"
	// children under it. Nil disables tracing at zero cost.
	Trace *obs.Span
}

// admitsRoot reports whether data node v may bind the root position.
func (o *Options) admitsRoot(v int32) bool {
	return o.RootFilter == nil || o.RootFilter(v)
}

// Match is one enumerated match; Nodes holds the matched data node per
// query position (BFS order).
type Match struct {
	Nodes []int32
	Score int64

	gids  []int32
	pivot int32
	excl  int32
}

type candidate struct {
	score  int64
	parent *Match // nil for the top-1 sentinel
	pivot  int32  // -1 for the top-1 sentinel
	excl   int32
	// group is the pending group c is parked in (0 once it is not) and
	// slot its index in that group's cands.
	group, slot int32
}

// group holds the candidates parked on one child list: the list whose
// Inserts are the only events that can change their scores.
type group struct {
	list  *heap.ChildList
	cands []*candidate
	dirty bool
}

// laNode is one lazily discovered run-time-graph node (query node u, data
// node v).
type laNode struct {
	u, v int32
	gid  int32
	// lists[pos] collects loaded child edges toward u's pos-th child.
	// Stored by value (carved from the enumerator's slab) so creating a
	// node does not allocate one ChildList header per child position.
	lists []heap.ChildList
	// initChild dedups the E-table seed edge against later block loads.
	initChild []int32
	nonEmpty  int
	bsBar     int64
	active    bool
	popped    bool
	inRoots   bool
	nextBlock int
	blocksAll bool
	ev        int64
	// lh is the node's incoming list, resolved exactly once at the first
	// expansion; every later block load reuses it.
	lh   store.ListHandle
	lhOK bool
}

// slot is one entry of a query position's dense index. Both fields are
// stored plus one, so the zero slot means "no node, no D-table row".
type slot struct {
	gid  int32 // the laNode of (u, v), plus one
	dmin int32 // v's D-table minimum from the parent label, plus one
}

// qpos is the enumerator's state for one query position u.
type qpos struct {
	remainLB    int64 // L(u), or its edge-aware strengthening
	minEdge     int64 // min distance of the edge (parent, u)
	subSum      int64 // Σ minEdge over the edges inside T_u
	posInParent int32
	parentLabel int32
	childOnly   bool // the edge (parent, u) is '/'
	wild        bool // u's label is the wildcard
	// slots is the dense index of u's data nodes, by rank within u's
	// label (by node id for a wildcard). Its backing array outlives the
	// query, and reset zeroes exactly the slots the query wrote: those of
	// the nodes it created and of the D-table rows in dtab.
	slots []slot
	dtab  []store.DEntry // D^{parent label}_{label(u)}, a published table
	// tab resolves the incoming lists of u's nodes from the parent label
	// once per query edge; tabOK is false when they must be opened one by
	// one (a wildcard side, or a carve that came up short).
	tab   store.Table
	tabOK bool
}

// Enumerator streams matches in non-decreasing score order while loading
// as little of the run-time graph as the bound allows.
//
// All of an enumeration's state lives in the enumerator's own slabs and
// dense indexes, and Release hands it to a package pool for the next New,
// so a query in steady state allocates almost nothing. That makes every
// emitted Match a view into pooled memory: it is valid until Release, and
// a caller that keeps a match past it copies it first.
type Enumerator struct {
	q   *query.Tree
	s   *store.Store
	g   *graph.Graph
	opt Options

	nT  int32
	pos []qpos // per query position; cap outlives the query

	nodes []*laNode

	qg       heap.Indexed
	rootList heap.ChildList
	queue    heap.Min
	emitted  int

	// The pending pool. Every parked candidate sits in the group of its
	// governing list (groups[list.Group]; index 0 is unused) and, while
	// its score is finite, in pool under that score. An Insert marks the
	// list's group dirty, so a recheck re-scores the dirty groups only
	// and pops pool down to the Qg top; an entry whose candidate has been
	// promoted or re-scored since it was pushed is stale and skipped.
	groups  []group
	dirty   []int32
	pool    heap.Min
	touched int
	// qgOps and listOps count Qg pushes, pops and key updates, and
	// child-list inserts and order-statistic reads: with created nodes
	// and touched candidates, the work of Algorithm 2's rounds.
	qgOps, listOps int

	// Slabs for everything an enumeration creates. Carves never move, so
	// pointers into them (laNode, ChildList, Match, candidate) stay valid
	// until reset rewinds them for the next query.
	nodeSlab  heap.Slab[laNode]
	listSlab  heap.Slab[heap.ChildList]
	entries   heap.Slab[heap.Entry] // every ChildList's H and L
	i32Slab   heap.Slab[int32]      // initChild, Match.gids and Match.Nodes
	matchSlab heap.Slab[Match]
	candSlab  heap.Slab[candidate]
	candPtrs  heap.Slab[*candidate] // group.cands
	// candFree recycles candidates popped from the queue (dead after
	// materialization).
	candFree []*candidate
	// inSubtree is materialize's reusable scratch, cleared per call.
	inSubtree []bool
}

// maxPooledBytes caps the memory a released enumerator may hold and still
// be pooled: one that grew past it (a huge k, a graph-wide wildcard) is
// left to the collector, so what the pool keeps per enumeration in
// flight is bounded.
const maxPooledBytes = 4 << 20

var enumPool = sync.Pool{New: func() any { return new(Enumerator) }}

// newNode carves one laNode from the slab.
func (e *Enumerator) newNode() *laNode { return &e.nodeSlab.Carve(1)[0] }

// newCandidate returns a zeroed candidate with the given fields, reusing
// one retired by Next when possible. A candidate has exactly one owner at
// a time (pending, then queue, then popped), so recycling after
// materialization cannot alias a live reference; stale pool entries still
// point at it, and recheckPending checks them against its current state.
func (e *Enumerator) newCandidate(parent *Match, pivot, excl int32) *candidate {
	var c *candidate
	if n := len(e.candFree); n > 0 {
		c = e.candFree[n-1]
		e.candFree = e.candFree[:n-1]
	} else {
		c = &e.candSlab.Carve(1)[0]
	}
	*c = candidate{parent: parent, pivot: pivot, excl: excl}
	return c
}

// New initializes an enumerator, reusing a released one's memory when the
// pool holds one: it loads the D tables for every query edge and the E
// tables for leaf edges (Algorithm 2, Line 1), creates the leaf and
// leaf-parent nodes, and seeds Qg with every active node.
func New(s *store.Store, q *query.Tree, opt Options) *Enumerator {
	e := enumPool.Get().(*Enumerator)
	e.init(s, q, opt)
	return e
}

// Release resets e and returns its memory to the pool. Every match e
// emitted is invalid afterwards, so callers copy what they keep first; e
// itself must not be used again. Release drops every reference the
// enumeration held (store, query, graph, filter, trace), so a pooled
// enumerator pins no old data. It is idempotent.
func (e *Enumerator) Release() {
	if e.s == nil {
		return
	}
	e.reset()
	if e.heldBytes() <= maxPooledBytes {
		enumPool.Put(e)
	}
}

// reset returns e to its zero state, keeping its storage. It costs what
// the enumeration wrote — the slots of created nodes and D-table rows,
// and the carved slab prefixes — never O(|label|) or O(V).
func (e *Enumerator) reset() {
	for _, nd := range e.nodes {
		e.pos[nd.u].slots[e.idx(nd.u, nd.v)].gid = 0
	}
	for u := range e.pos[:e.nT] {
		p := &e.pos[u]
		for _, d := range p.dtab {
			p.slots[e.idx(int32(u), d.V)].dmin = 0
		}
		*p = qpos{slots: p.slots[:0]}
	}
	clear(e.nodes)
	clear(e.groups)
	clear(e.candFree)
	e.nodes, e.groups, e.candFree, e.dirty = e.nodes[:0], e.groups[:0], e.candFree[:0], e.dirty[:0]
	e.nodeSlab.Reset()
	e.listSlab.Reset()
	e.entries.Reset()
	e.i32Slab.Reset()
	e.matchSlab.Reset()
	e.candSlab.Reset()
	e.candPtrs.Reset()
	e.qg.Reset()
	e.queue.Reset()
	e.pool.Reset()
	e.rootList = heap.ChildList{}
	e.q, e.s, e.g, e.opt = nil, nil, nil, Options{}
	e.nT, e.emitted, e.touched, e.qgOps, e.listOps = 0, 0, 0, 0, 0
}

// heldBytes is the memory e keeps across a reset, what maxPooledBytes
// caps.
func (e *Enumerator) heldBytes() int {
	n := e.nodeSlab.Bytes() + e.listSlab.Bytes() + e.entries.Bytes() + e.i32Slab.Bytes() +
		e.matchSlab.Bytes() + e.candSlab.Bytes() + e.candPtrs.Bytes() +
		e.qg.Bytes() + e.queue.Bytes() + e.pool.Bytes()
	for _, p := range e.pos[:cap(e.pos)] {
		n += 8 * cap(p.slots)
	}
	return n + 8*(cap(e.nodes)+cap(e.candFree)) + int(unsafe.Sizeof(group{}))*cap(e.groups)
}

// init is New over a reset (or fresh) enumerator.
func (e *Enumerator) init(s *store.Store, q *query.Tree, opt Options) {
	if opt.Trace != nil {
		s = s.WithTrace(opt.Trace)
	}
	g := s.Graph()
	nT := int32(q.NumNodes())
	e.q, e.s, e.g, e.opt, e.nT = q, s, g, opt, nT
	if int(nT) > cap(e.pos) {
		grown := make([]qpos, nT)
		copy(grown, e.pos[:cap(e.pos)])
		e.pos = grown
	}
	e.pos = e.pos[:nT]
	if int(nT) > cap(e.inSubtree) {
		e.inSubtree = make([]bool, nT)
	}
	e.inSubtree = e.inSubtree[:nT]
	e.groups = append(e.groups, group{}) // index 0 is unused
	e.rootList.SetSlab(&e.entries)
	for u := int32(0); u < nT; u++ {
		node := &q.Nodes[u]
		p := &e.pos[u]
		if lb := int64(nT) - 1 - int64(node.SubtreeSize); lb > 0 {
			p.remainLB = lb
		}
		for pos, c := range node.Children {
			e.pos[c].posInParent = int32(pos)
		}
		if node.Parent >= 0 {
			p.parentLabel = q.Nodes[node.Parent].Label
			p.childOnly = node.EdgeFromParent == query.Child
		}
		p.wild = node.Label == label.Wildcard
		need := g.NumNodes()
		if !p.wild {
			need = len(g.NodesWithLabel(node.Label))
		}
		if need > cap(p.slots) {
			p.slots = make([]slot, need)
		}
		p.slots = p.slots[:need]
	}
	if nT == 1 {
		// Degenerate single-node query: every label candidate is a root
		// match scoring only its own node weight.
		root := func(v int32) {
			if !opt.admitsRoot(v) {
				return
			}
			nd := e.getNode(0, v)
			nd.active, nd.popped, nd.inRoots = true, true, true
			nd.bsBar = int64(g.NodeWeight(v))
			e.listOps++
			e.rootList.Insert(heap.Entry{Key: nd.bsBar, Node: nd.gid})
		}
		if e.pos[0].wild {
			for v := int32(0); int(v) < g.NumNodes(); v++ {
				root(v)
			}
		} else {
			for _, v := range g.NodesWithLabel(q.Nodes[0].Label) {
				root(v)
			}
		}
		e.park(e.newCandidate(nil, -1, 0))
		return
	}
	// D tables for every query edge, and the closure table each edge's
	// incoming lists come from. Leaf nodes activate after the bound
	// refinement below so their initial lb already uses the final L(u).
	for u := int32(1); u < nT; u++ {
		p := &e.pos[u]
		p.dtab = s.LoadD(p.parentLabel, q.Nodes[u].Label, p.childOnly)
		p.minEdge = 1
		for i, d := range p.dtab {
			p.slots[e.idx(u, d.V)].dmin = d.Min + 1
			if i == 0 || int64(d.Min) < p.minEdge {
				p.minEdge = int64(d.Min)
			}
		}
		p.tab, p.tabOK = s.OpenTable(p.parentLabel, q.Nodes[u].Label)
	}
	if opt.Bound == EdgeAwareBound {
		// L'(u) = Σ of per-edge minima over the query edges outside
		// T_u ∪ (parent(u), u), never weaker than the unit-priced bound.
		for u := nT - 1; u >= 0; u-- {
			for _, c := range q.Nodes[u].Children {
				e.pos[u].subSum += e.pos[c].subSum + e.pos[c].minEdge
			}
		}
		var total int64
		for u := int32(1); u < nT; u++ {
			total += e.pos[u].minEdge
		}
		for u := int32(0); u < nT; u++ {
			p := &e.pos[u]
			lb := total - p.subSum - p.minEdge
			if u == 0 {
				lb = total - p.subSum
			}
			p.remainLB = max(p.remainLB, lb)
		}
	}
	for u := int32(1); u < nT; u++ {
		if len(q.Nodes[u].Children) != 0 {
			continue
		}
		for _, d := range e.pos[u].dtab {
			nd := e.getNode(u, d.V)
			nd.active = true
			nd.bsBar = int64(g.NodeWeight(d.V)) // a leaf's bs is its node weight
			nd.ev = int64(d.Min)
			e.qgOps++
			e.qg.Push(int(nd.gid), e.lbOf(nd))
		}
	}
	// E tables seed leaf-edge parents with the minimum child edge.
	for u := int32(0); u < nT; u++ {
		for pos, cIdx := range q.Nodes[u].Children {
			if len(q.Nodes[cIdx].Children) != 0 {
				continue
			}
			etab := s.LoadE(q.Nodes[u].Label, q.Nodes[cIdx].Label, e.pos[cIdx].childOnly)
			for _, en := range etab {
				childGid, ok := e.lookup(cIdx, en.To)
				if !ok {
					continue // defensive: E target missing from D
				}
				p := e.getNode(u, en.From)
				p.initChild[pos] = childGid
				e.insertEntry(p, pos, heap.Entry{
					Key:  int64(en.Dist) + e.nodes[childGid].bsBar,
					Node: childGid,
				})
			}
		}
	}
	e.park(e.newCandidate(nil, -1, 0))
}

// idx is v's slot in position u's dense index: its rank within u's
// label, or its id when u is a wildcard.
func (e *Enumerator) idx(u, v int32) int32 {
	if e.pos[u].wild {
		return v
	}
	return e.g.Rank(v)
}

func (e *Enumerator) lookup(u, v int32) (int32, bool) {
	gid := e.pos[u].slots[e.idx(u, v)].gid
	return gid - 1, gid != 0
}

// getNode returns the laNode for (u, v), creating an inactive one on first
// sight.
func (e *Enumerator) getNode(u, v int32) *laNode {
	sl := &e.pos[u].slots[e.idx(u, v)]
	if sl.gid != 0 {
		return e.nodes[sl.gid-1]
	}
	nc := len(e.q.Nodes[u].Children)
	nd := e.newNode()
	nd.u, nd.v = u, v
	nd.gid = int32(len(e.nodes))
	if nc > 0 {
		nd.lists = e.listSlab.Carve(nc) // zero-valued ChildLists are empty lists
		for i := range nd.lists {
			nd.lists[i].SetSlab(&e.entries)
		}
		nd.initChild = e.i32Slab.Carve(nc)
		for i := range nd.initChild {
			nd.initChild[i] = -1
		}
	}
	e.nodes = append(e.nodes, nd)
	sl.gid = nd.gid + 1
	return nd
}

// lbOf computes the Qg key of nd under the configured bound.
func (e *Enumerator) lbOf(nd *laNode) int64 {
	lb := nd.bsBar + nd.ev
	if e.opt.Bound != LooseBound {
		lb += e.pos[nd.u].remainLB
	}
	return lb
}

// insertEntry adds a loaded child edge into nd's pos-th list, maintaining
// activation state and the Line-13 key update.
func (e *Enumerator) insertEntry(nd *laNode, pos int, entry heap.Entry) {
	list := &nd.lists[pos]
	oldMin, hadMin := list.Min()
	list.Insert(entry)
	e.listOps += 2
	e.listChanged(list)
	if !hadMin {
		nd.nonEmpty++
		if !nd.active && nd.nonEmpty == len(nd.lists) {
			e.activate(nd)
		}
		return
	}
	if nd.active && !nd.popped && entry.Key < oldMin.Key {
		nd.bsBar += entry.Key - oldMin.Key
		if e.qg.Contains(int(nd.gid)) {
			e.qgOps++
			e.qg.Update(int(nd.gid), e.lbOf(nd))
		}
	}
}

// activate computes bs̄ (Equation 3) and queues the node, unless it is a
// non-root with no incoming edge from its parent label, which can never
// join a match.
func (e *Enumerator) activate(nd *laNode) {
	nd.active = true
	// bs'(v) = node weight of v plus Equation 3 over the loaded lists;
	// keys already carry each child's own bs', so node weights compose.
	nd.bsBar = int64(e.g.NodeWeight(nd.v))
	for i := range nd.lists {
		min, _ := nd.lists[i].Min()
		nd.bsBar += min.Key
	}
	e.listOps += len(nd.lists)
	if nd.u > 0 {
		d := e.pos[nd.u].slots[e.idx(nd.u, nd.v)].dmin
		if d == 0 {
			return
		}
		nd.ev = int64(d - 1)
	} else if !e.opt.admitsRoot(nd.v) {
		// A filtered-out root binding belongs to another worker: it never
		// enters Qg or the root list, so no match rooted here is emitted.
		// Its subtree still loads normally on behalf of admitted roots.
		return
	}
	e.qgOps++
	e.qg.Push(int(nd.gid), e.lbOf(nd))
}

// expandTop implements Algorithm 2's pop-and-Expand step: finalize bs for
// the popped node, then for non-roots load incoming blocks while the
// re-estimated lb keeps the node at the front of Qg.
func (e *Enumerator) expandTop() {
	gidInt, _ := e.qg.Pop()
	e.qgOps++
	nd := e.nodes[gidInt]
	nd.popped = true
	if nd.u == 0 {
		if !nd.inRoots {
			nd.inRoots = true
			e.listOps++
			e.rootList.Insert(heap.Entry{Key: nd.bsBar, Node: nd.gid})
			e.listChanged(&e.rootList)
		}
		return
	}
	p := &e.pos[nd.u]
	childOnly := p.childOnly
	pu := e.q.Nodes[nd.u].Parent
	pos := int(p.posInParent)
	if !nd.lhOK {
		// Resolve the incoming list exactly once per node, through the
		// query edge's table when New resolved one; every block of this
		// expansion (and any later re-expansion) reuses the handle.
		if p.tabOK {
			nd.lh = p.tab.List(nd.v)
		} else {
			nd.lh = e.s.OpenList(p.parentLabel, nd.v)
		}
		nd.lhOK = true
	}
	for {
		if nd.blocksAll {
			return
		}
		// Block kernel: dist[] is sorted within the list, so the e_v update
		// is the block's tail lane, and the child-edge scan walks the
		// from[]/dist[]/direct[] columns directly.
		bc, last := nd.lh.BlockCols(nd.nextBlock)
		nd.nextBlock++
		if last {
			nd.blocksAll = true
		}
		if n := len(bc.Dist); n > 0 {
			if d := int64(bc.Dist[n-1]); d > nd.ev {
				nd.ev = d
			}
		}
		for i := range bc.From {
			if childOnly && !bc.Direct[i] {
				continue
			}
			p := e.getNode(pu, bc.From[i])
			if p.initChild[pos] == nd.gid {
				continue // E-table seed already inserted this edge
			}
			e.insertEntry(p, pos, heap.Entry{Key: nd.bsBar + int64(bc.Dist[i]), Node: nd.gid})
		}
		if nd.blocksAll {
			return
		}
		lbnew := e.lbOf(nd)
		if e.qg.Len() > 0 && lbnew > e.qg.PeekKey() {
			e.qgOps++
			e.qg.Push(int(nd.gid), lbnew)
			return
		}
	}
}

// listAt returns the child list governing query position x in match m.
func (e *Enumerator) listAt(m *Match, x int32) *heap.ChildList {
	if x == 0 {
		return &e.rootList
	}
	p := e.q.Nodes[x].Parent
	return &e.nodes[m.gids[p]].lists[e.pos[x].posInParent]
}

// govList returns the child list governing candidate c — the list whose
// Inserts are the only events that can change c's score.
func (e *Enumerator) govList(c *candidate) *heap.ChildList {
	if c.pivot < 0 {
		return &e.rootList
	}
	return e.listAt(c.parent, c.pivot)
}

// candScoreList evaluates a candidate against its governing list (the
// current, possibly partial state); infScore marks a currently-empty
// subspace. The result is a pure function of (c, list contents): the
// parent score is immutable and Kth never changes what it returns for a
// given state, so the score stays valid until the list's next Insert.
func (e *Enumerator) candScoreList(c *candidate, list *heap.ChildList) int64 {
	e.listOps += 2
	if c.pivot < 0 {
		if best, ok := list.Kth(0); ok {
			return best.Key
		}
		return infScore
	}
	old, ok1 := list.Kth(int(c.excl) - 1)
	next, ok2 := list.Kth(int(c.excl))
	if !ok1 || !ok2 {
		return infScore
	}
	return c.parent.Score + next.Key - old.Key
}

// park adds c to the pending pool: into the group of its governing list
// (list pointers are stable — ChildLists live in slab chunks that are
// never reallocated), and, when its score is finite, into pool.
func (e *Enumerator) park(c *candidate) {
	l := e.govList(c)
	if l.Group == 0 {
		l.Group = int32(len(e.groups))
		e.groups = append(e.groups, group{list: l})
	}
	g := &e.groups[l.Group]
	c.group, c.slot = l.Group, int32(len(g.cands))
	g.cands = heap.Append(&e.candPtrs, g.cands, c)
	c.score = e.candScoreList(c, l)
	e.touched++
	if c.score < infScore {
		e.pool.Push(heap.Item{Key: c.score, Val: c})
	}
}

// listChanged marks the candidates parked on l for re-scoring; it follows
// every Insert.
func (e *Enumerator) listChanged(l *heap.ChildList) {
	if g := &e.groups[l.Group]; len(g.cands) > 0 && !g.dirty {
		g.dirty = true
		e.dirty = append(e.dirty, l.Group)
	}
}

// recheckPending re-scores the candidates of dirty groups and promotes
// every parked candidate scoring at or below the Qg top into the global
// queue. With Qg exhausted every finite score is final and ∞ subspaces
// are truly empty, so they stay parked for good.
func (e *Enumerator) recheckPending() {
	for _, gi := range e.dirty {
		g := &e.groups[gi]
		g.dirty = false
		for _, c := range g.cands {
			e.touched++
			if s := e.candScoreList(c, g.list); s != c.score {
				c.score = s
				if s < infScore {
					e.pool.Push(heap.Item{Key: s, Val: c})
				}
			}
		}
	}
	e.dirty = e.dirty[:0]
	qgEmpty := e.qg.Len() == 0
	for e.pool.Len() > 0 && (qgEmpty || e.pool.Peek().Key <= e.qg.PeekKey()) {
		it := e.pool.Pop()
		c := it.Val.(*candidate)
		if c.group == 0 || c.score != it.Key {
			continue // stale: promoted already, or re-scored since this push
		}
		g := &e.groups[c.group]
		last := g.cands[len(g.cands)-1]
		g.cands[c.slot], last.slot = last, c.slot
		g.cands = g.cands[:len(g.cands)-1]
		c.group = 0
		e.queue.Push(it)
	}
}

// materialize recovers the full match, as in package core but over lazily
// discovered nodes.
func (e *Enumerator) materialize(c *candidate) *Match {
	m := &e.matchSlab.Carve(1)[0]
	buf := e.i32Slab.Carve(2 * int(e.nT)) // gids and Nodes share one carve
	*m = Match{
		gids:  buf[:e.nT:e.nT],
		Nodes: buf[e.nT:],
		Score: c.score,
		pivot: c.pivot,
		excl:  c.excl,
	}
	inSubtree := e.inSubtree
	for i := range inSubtree {
		inSubtree[i] = false
	}
	var from int32
	if c.parent == nil {
		best, _ := e.rootList.Kth(0)
		m.gids[0] = best.Node
		m.pivot = -1
		inSubtree[0] = true
		from = 1
	} else {
		copy(m.gids, c.parent.gids)
		list := e.listAt(c.parent, c.pivot)
		entry, ok := list.Kth(int(c.excl))
		if !ok {
			panic("lazy: confirmed candidate points past its child list")
		}
		m.gids[c.pivot] = entry.Node
		inSubtree[c.pivot] = true
		from = c.pivot + 1
	}
	e.listOps++
	for y := from; y < e.nT; y++ {
		p := e.q.Nodes[y].Parent
		if !inSubtree[p] {
			continue
		}
		inSubtree[y] = true
		e.listOps++
		best, ok := e.nodes[m.gids[p]].lists[e.pos[y].posInParent].Min()
		if !ok {
			panic("lazy: best completion missing below a confirmed match")
		}
		m.gids[y] = best.Node
	}
	for u := int32(0); u < e.nT; u++ {
		m.Nodes[u] = e.nodes[m.gids[u]].v
	}
	return m
}

// divide parks the Lawler children of m (Cases 1 and 2) and lets
// recheckPending promote whichever are already confirmed.
func (e *Enumerator) divide(m *Match) {
	if m.pivot >= 0 {
		e.park(e.newCandidate(m, m.pivot, m.excl+1))
	}
	for x := m.pivot + 1; x < e.nT; x++ {
		e.park(e.newCandidate(m, x, 1))
	}
	e.recheckPending()
}

// Next returns the next match in non-decreasing score order, loading only
// as much of the run-time graph as confirmation requires.
func (e *Enumerator) Next() (*Match, bool) {
	for {
		for e.qg.Len() > 0 && (e.queue.Len() == 0 || e.qg.PeekKey() < e.queue.Peek().Key) {
			e.expandTop()
			e.recheckPending()
		}
		if e.queue.Len() > 0 {
			break
		}
		if e.qg.Len() == 0 {
			e.recheckPending()
			if e.queue.Len() == 0 {
				return nil, false
			}
		}
	}
	c := e.queue.Pop().Val.(*candidate)
	m := e.materialize(c)
	e.candFree = append(e.candFree, c) // dead once materialized
	e.divide(m)
	e.emitted++
	return m, true
}

// Emitted returns how many matches have been produced.
func (e *Enumerator) Emitted() int { return e.emitted }

// Stats reports how much of the run-time graph enumeration touched; the
// quantities of Theorem 4.3 (m'_R via the store counters, n'_R here).
type Stats struct {
	// CreatedNodes counts lazily instantiated (query node, data node)
	// pairs.
	CreatedNodes int
	// ActiveNodes is n'_R, the nodes that ever activated.
	ActiveNodes int
	// CandidatesTouched counts pending-pool score evaluations: one per
	// parked candidate plus one per re-score after an Insert into its
	// governing list. Per emitted match it is the pool's share of the
	// enumeration cost.
	CandidatesTouched int
	// QgOps counts Qg pushes, pops and key updates.
	QgOps int
	// ListOps counts child-list operations: inserts, and the
	// order-statistic reads (Min, Kth) that score candidates, activate
	// nodes and materialize matches.
	ListOps int
}

// ComputeStats returns enumeration statistics.
func (e *Enumerator) ComputeStats() Stats {
	s := Stats{CreatedNodes: len(e.nodes), CandidatesTouched: e.touched, QgOps: e.qgOps, ListOps: e.listOps}
	for _, nd := range e.nodes {
		if nd.active {
			s.ActiveNodes++
		}
	}
	return s
}

// TopK returns up to k matches of q over the store in non-decreasing score
// order. Ties at the k-th score are returned in enumeration order — use
// TopKCanonical when the result must be a pure function of the store.
func TopK(s *store.Store, q *query.Tree, k int, opt Options) []*Match {
	e := New(s, q, opt)
	var out []*Match
	for len(out) < k {
		m, ok := e.Next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	return out
}

// TopKCanonical returns up to k matches of q in the canonical order
// (score, then node bindings) — the result is a pure function of the
// store contents, byte-identical to what a sharded database returns
// at any shard count. It costs draining the tie group at the
// k-th score beyond plain TopK.
func TopKCanonical(s *store.Store, q *query.Tree, k int, opt Options) []*Match {
	return NewMerge(New(s, q, opt)).TopK(k)
}
