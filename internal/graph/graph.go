// Package graph implements the node-labeled directed data graphs of
// Section 2: G = (V, E, l) with integer-weighted edges (weight 1 unless
// stated otherwise). Graphs are built through a Builder and then frozen
// into an immutable compressed-sparse-row form, which every downstream
// stage (closure computation, run-time graph extraction) reads.
package graph

import (
	"fmt"
	"sort"

	"ktpm/internal/label"
)

// Edge is a directed weighted edge.
type Edge struct {
	From, To int32
	Weight   int32
}

// Builder accumulates nodes and edges before freezing into a Graph.
type Builder struct {
	labels  *label.Interner
	nodeLbl []int32
	nodeW   []int32
	edges   []Edge
}

// NewBuilder returns a Builder using its own label interner.
func NewBuilder() *Builder {
	return &Builder{labels: label.NewInterner()}
}

// NewBuilderWithLabels returns a Builder sharing an existing interner, so
// that data graphs and query trees agree on label IDs.
func NewBuilderWithLabels(in *label.Interner) *Builder {
	return &Builder{labels: in}
}

// AddNode appends a node with the given label name and returns its ID.
func (b *Builder) AddNode(labelName string) int32 {
	id := int32(len(b.nodeLbl))
	b.nodeLbl = append(b.nodeLbl, int32(b.labels.Intern(labelName)))
	b.nodeW = append(b.nodeW, 0)
	return id
}

// AddNodeLabelID appends a node with an already-interned label ID.
func (b *Builder) AddNodeLabelID(lbl int32) int32 {
	id := int32(len(b.nodeLbl))
	b.nodeLbl = append(b.nodeLbl, lbl)
	b.nodeW = append(b.nodeW, 0)
	return id
}

// SetNodeWeight assigns a non-negative penalty weight to node v; matching
// a query node to v adds the weight to the match score (the footnote-2
// extension of Definition 2.2). The default is zero.
func (b *Builder) SetNodeWeight(v, w int32) { b.nodeW[v] = w }

// AddEdge appends a unit-weight edge from u to v.
func (b *Builder) AddEdge(u, v int32) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge appends an edge with the given positive weight.
func (b *Builder) AddWeightedEdge(u, v, w int32) {
	b.edges = append(b.edges, Edge{From: u, To: v, Weight: w})
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.nodeLbl) }

// Build validates and freezes the accumulated graph. Self-loops are
// rejected (a tree-pattern edge maps to a path between distinct nodes;
// self-loops only add noise), as are non-positive weights and out-of-range
// endpoints. Parallel edges are merged keeping the minimum weight.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.nodeLbl)
	for _, e := range b.edges {
		if e.From < 0 || int(e.From) >= n || e.To < 0 || int(e.To) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) references unknown node (n=%d)", e.From, e.To, n)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self-loop on node %d", e.From)
		}
		if e.Weight <= 0 {
			return nil, fmt.Errorf("graph: edge (%d,%d) has non-positive weight %d", e.From, e.To, e.Weight)
		}
	}
	for v, w := range b.nodeW {
		if w < 0 {
			return nil, fmt.Errorf("graph: node %d has negative weight %d", v, w)
		}
	}
	sort.Slice(b.edges, func(i, j int) bool {
		a, c := b.edges[i], b.edges[j]
		if a.From != c.From {
			return a.From < c.From
		}
		if a.To != c.To {
			return a.To < c.To
		}
		return a.Weight < c.Weight
	})
	// Merge parallel edges, keeping the minimum weight.
	dedup := b.edges[:0]
	for _, e := range b.edges {
		if k := len(dedup); k > 0 && dedup[k-1].From == e.From && dedup[k-1].To == e.To {
			continue
		}
		dedup = append(dedup, e)
	}
	g := &Graph{
		Labels:  b.labels,
		nodeLbl: b.nodeLbl,
		nodeW:   b.nodeW,
		outOff:  make([]int32, n+1),
		outTo:   make([]int32, len(dedup)),
		outW:    make([]int32, len(dedup)),
	}
	for i, e := range dedup {
		g.outOff[e.From+1]++
		g.outTo[i] = e.To
		g.outW[i] = e.Weight
	}
	for i := 0; i < n; i++ {
		g.outOff[i+1] += g.outOff[i]
	}
	g.buildIncoming(dedup)
	g.buildLabelIndex()
	return g, nil
}

// Graph is an immutable node-labeled directed graph in CSR form.
type Graph struct {
	// Labels maps label IDs to names; shared with queries over this graph.
	Labels *label.Interner

	nodeLbl []int32
	nodeW   []int32
	outOff  []int32
	outTo   []int32
	outW    []int32
	inOff   []int32
	inFrom  []int32
	inW     []int32
	// The label index, a CSR over labels: the nodes with label l are
	// lblNodes[lblOff[l]:lblOff[l+1]], ascending, and rank[v] is v's
	// position within its label's run. It covers the labels interned when
	// the graph was built; a label interned later carries no node.
	lblOff   []int32
	lblNodes []int32
	rank     []int32
}

// buildLabelIndex fills the label CSR and the per-node ranks in two
// passes over the node labels.
func (g *Graph) buildLabelIndex() {
	n := g.NumNodes()
	g.lblOff = make([]int32, g.NumLabels()+1)
	for _, l := range g.nodeLbl {
		g.lblOff[l+1]++
	}
	for l := 1; l < len(g.lblOff); l++ {
		g.lblOff[l] += g.lblOff[l-1]
	}
	g.lblNodes = make([]int32, n)
	g.rank = make([]int32, n)
	next := make([]int32, len(g.lblOff)-1)
	for v, l := range g.nodeLbl {
		r := next[l]
		next[l]++
		g.rank[v] = r
		g.lblNodes[g.lblOff[l]+r] = int32(v)
	}
}

func (g *Graph) buildIncoming(edges []Edge) {
	n := g.NumNodes()
	g.inOff = make([]int32, n+1)
	for _, e := range edges {
		g.inOff[e.To+1]++
	}
	for i := 0; i < n; i++ {
		g.inOff[i+1] += g.inOff[i]
	}
	g.inFrom = make([]int32, len(edges))
	g.inW = make([]int32, len(edges))
	cur := make([]int32, n)
	for _, e := range edges {
		p := g.inOff[e.To] + cur[e.To]
		g.inFrom[p] = e.From
		g.inW[p] = e.Weight
		cur[e.To]++
	}
}

// NumNodes returns |V|.
func (g *Graph) NumNodes() int { return len(g.nodeLbl) }

// NumEdges returns |E| after parallel-edge merging.
func (g *Graph) NumEdges() int { return len(g.outTo) }

// Label returns the label ID of node v.
func (g *Graph) Label(v int32) int32 { return g.nodeLbl[v] }

// NodeWeight returns the penalty weight of node v (zero by default).
func (g *Graph) NodeWeight(v int32) int32 { return g.nodeW[v] }

// LabelName returns the label name of node v.
func (g *Graph) LabelName(v int32) string { return g.Labels.Name(int(g.nodeLbl[v])) }

// NumLabels returns the number of distinct labels in the interner.
func (g *Graph) NumLabels() int { return g.Labels.Len() }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v int32) int { return int(g.outOff[v+1] - g.outOff[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v int32) int { return int(g.inOff[v+1] - g.inOff[v]) }

// Out calls fn for each outgoing edge (v, to, weight); fn returning false
// stops the iteration.
func (g *Graph) Out(v int32, fn func(to, w int32) bool) {
	for i := g.outOff[v]; i < g.outOff[v+1]; i++ {
		if !fn(g.outTo[i], g.outW[i]) {
			return
		}
	}
}

// In calls fn for each incoming edge (from, v, weight).
func (g *Graph) In(v int32, fn func(from, w int32) bool) {
	for i := g.inOff[v]; i < g.inOff[v+1]; i++ {
		if !fn(g.inFrom[i], g.inW[i]) {
			return
		}
	}
}

// Edges calls fn for every edge in the graph.
func (g *Graph) Edges(fn func(e Edge) bool) {
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		for i := g.outOff[v]; i < g.outOff[v+1]; i++ {
			if !fn(Edge{From: v, To: g.outTo[i], Weight: g.outW[i]}) {
				return
			}
		}
	}
}

// NodesWithLabel returns all node IDs carrying label lbl, ascending: a
// read-only view of the label index, so callers must not modify it. A
// label no node carries (the wildcard, one interned after Build) has
// none.
func (g *Graph) NodesWithLabel(lbl int32) []int32 {
	if lbl < 0 || int(lbl) >= g.IndexedLabels() {
		return nil
	}
	lo, hi := g.lblOff[lbl], g.lblOff[lbl+1]
	return g.lblNodes[lo:hi:hi]
}

// IndexedLabels returns how many labels the label index covers: every
// label interned when the graph was built. Labels at or past it were
// interned later (query-only labels) and carry no node.
func (g *Graph) IndexedLabels() int { return len(g.lblOff) - 1 }

// Rank returns v's position among the nodes sharing its label, the
// dense index NodesWithLabel(Label(v))[Rank(v)] == v.
func (g *Graph) Rank(v int32) int32 { return g.rank[v] }

// LabelHistogram returns a map from label ID to node count.
func (g *Graph) LabelHistogram() map[int32]int {
	h := make(map[int32]int)
	for _, l := range g.nodeLbl {
		h[l]++
	}
	return h
}

// Unweighted reports whether every edge has weight 1, in which case
// closure computation may use plain BFS instead of Dijkstra.
func (g *Graph) Unweighted() bool {
	for _, w := range g.outW {
		if w != 1 {
			return false
		}
	}
	return true
}

// MaxWeight returns the largest edge weight, or 0 for an edgeless graph.
func (g *Graph) MaxWeight() int32 {
	var m int32
	for _, w := range g.outW {
		if w > m {
			m = w
		}
	}
	return m
}

// Undirected returns a new graph with every edge mirrored, keeping minimum
// weights on parallel pairs — the Section 5 construction for embedding the
// tree matcher into the undirected kGPM framework of [7].
func (g *Graph) Undirected() *Graph {
	b := NewBuilderWithLabels(g.Labels)
	for v, l := range g.nodeLbl {
		b.AddNodeLabelID(l)
		b.SetNodeWeight(int32(v), g.nodeW[v])
	}
	g.Edges(func(e Edge) bool {
		b.AddWeightedEdge(e.From, e.To, e.Weight)
		b.AddWeightedEdge(e.To, e.From, e.Weight)
		return true
	})
	ug, err := b.Build()
	if err != nil {
		// The source graph was validated; mirroring cannot invalidate it.
		panic("graph: Undirected: " + err.Error())
	}
	return ug
}

// Stats summarizes a graph for experiment reporting.
type Stats struct {
	Nodes, Edges, Labels int
	AvgOutDegree         float64
	MaxOutDegree         int
}

// ComputeStats returns summary statistics.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), Labels: g.NumLabels()}
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		d := g.OutDegree(v)
		if d > s.MaxOutDegree {
			s.MaxOutDegree = d
		}
	}
	if s.Nodes > 0 {
		s.AvgOutDegree = float64(s.Edges) / float64(s.Nodes)
	}
	return s
}
