package rtg

import (
	"math/rand"
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
	"ktpm/internal/query"
)

// fig4 builds the paper's Figure 4 example: query a(b,c(d)) over a small
// weighted graph whose distances match Examples 3.3/3.4:
//
//	δ(v1,v2)=1; δ(v1,v3)=1, δ(v1,v4)=1, δ(v1,v5)=1, δ(v1,v6)=2;
//	δ(v3,v7)=3, δ(v4,v7)=4, δ(v5,v7)=1, δ(v6,v7)=1.
//
// Data nodes 0..6 = v1..v7.
func fig4(t testing.TB) (*graph.Graph, *query.Tree) {
	t.Helper()
	b := graph.NewBuilder()
	for _, l := range []string{"a", "b", "c", "c", "c", "c", "d"} {
		b.AddNode(l)
	}
	edges := [][3]int32{
		{0, 1, 1},
		{0, 2, 1}, {0, 3, 1}, {0, 4, 1}, {0, 5, 2},
		{2, 6, 3}, {3, 6, 4}, {4, 6, 1}, {5, 6, 1},
	}
	for _, e := range edges {
		b.AddWeightedEdge(e[0], e[1], e[2])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := query.MustParse(g.Labels, "a(b,c(d))")
	return g, q
}

func buildRTG(t testing.TB, g *graph.Graph, q *query.Tree) *Graph {
	t.Helper()
	c := closure.Compute(g, closure.Options{})
	return Build(c, q)
}

func TestFig4Shape(t *testing.T) {
	g, q := fig4(t)
	r := buildRTG(t, g, q)
	// Query BFS order: a=0, b=1, c=2, d=3.
	if got := r.NumCands(0); got != 1 {
		t.Fatalf("a candidates = %d, want 1", got)
	}
	if got := r.NumCands(1); got != 1 {
		t.Fatalf("b candidates = %d, want 1", got)
	}
	if got := r.NumCands(2); got != 4 {
		t.Fatalf("c candidates = %d, want 4", got)
	}
	if got := r.NumCands(3); got != 1 {
		t.Fatalf("d candidates = %d, want 1", got)
	}
	if r.NumNodes() != 7 {
		t.Fatalf("NumNodes = %d, want 7", r.NumNodes())
	}
	// a's child groups: b (1 edge), c (4 edges); each c has 1 edge to d.
	if got := len(r.Edges(0, 0, 0)); got != 1 {
		t.Fatalf("a->b edges = %d", got)
	}
	if got := len(r.Edges(0, 0, 1)); got != 4 {
		t.Fatalf("a->c edges = %d", got)
	}
	if r.NumEdges() != 1+4+4 {
		t.Fatalf("NumEdges = %d, want 9", r.NumEdges())
	}
}

func TestFig4Weights(t *testing.T) {
	g, q := fig4(t)
	r := buildRTG(t, g, q)
	// δ(v1, c-node)+... reproduce the keys of Example 3.3:
	// (v5,2),(v6,3),(v3,4),(v4,5) where key = δ(v1,·)+δ(·,v7).
	want := map[int32]int32{2: 4, 3: 5, 4: 2, 5: 3} // data node -> key
	for _, e := range r.Edges(0, 0, 1) {
		dataC := r.DataNode(2, e.ToLocal)
		dEdges := r.Edges(2, e.ToLocal, 0)
		if len(dEdges) != 1 {
			t.Fatalf("c node %d has %d d-edges", dataC, len(dEdges))
		}
		key := e.W + dEdges[0].W
		if key != want[dataC] {
			t.Fatalf("key of c-node v%d = %d, want %d", dataC+1, key, want[dataC])
		}
	}
}

func TestPruningRemovesDeadCandidates(t *testing.T) {
	// c2 has no d child: must be pruned; then if a2 only reached c2, a2
	// is pruned too.
	b := graph.NewBuilder()
	a1 := b.AddNode("a")
	a2 := b.AddNode("a")
	c1 := b.AddNode("c")
	c2 := b.AddNode("c")
	d1 := b.AddNode("d")
	b.AddEdge(a1, c1)
	b.AddEdge(a2, c2)
	b.AddEdge(c1, d1)
	g, _ := b.Build()
	q := query.MustParse(g.Labels, "a(c(d))")
	r := buildRTG(t, g, q)
	if got := r.NumCands(0); got != 1 {
		t.Fatalf("a candidates = %d, want 1 (a2 pruned)", got)
	}
	if r.DataNode(0, 0) != a1 {
		t.Fatalf("surviving a = %d, want %d", r.DataNode(0, 0), a1)
	}
	if got := r.NumCands(1); got != 1 {
		t.Fatalf("c candidates = %d, want 1 (c2 pruned)", got)
	}
	_ = c2
	_ = a2
}

func TestTopDownPruning(t *testing.T) {
	// d2 is only reachable from the pruned c2: it must disappear even
	// though it is a valid leaf.
	b := graph.NewBuilder()
	a1 := b.AddNode("a")
	c1 := b.AddNode("c")
	c2 := b.AddNode("c")
	d1 := b.AddNode("d")
	d2 := b.AddNode("d")
	e1 := b.AddNode("e")
	b.AddEdge(a1, c1)
	b.AddEdge(c1, d1)
	b.AddEdge(c2, d2)
	b.AddEdge(c1, e1)
	b.AddEdge(c2, e1)
	g, _ := b.Build()
	q := query.MustParse(g.Labels, "a(c(d,e))")
	r := buildRTG(t, g, q)
	if got := r.NumCands(2); got != 1 {
		t.Fatalf("d candidates = %d, want 1 (d2 unreachable)", got)
	}
	if r.DataNode(2, 0) != d1 {
		t.Fatalf("surviving d = %d, want %d", r.DataNode(2, 0), d1)
	}
	_ = d2
}

func TestChildEdgeSemantics(t *testing.T) {
	// a -> b directly and a -> x -> b2; '/' must admit only the direct one.
	b := graph.NewBuilder()
	a := b.AddNode("a")
	b1 := b.AddNode("b")
	x := b.AddNode("x")
	b2 := b.AddNode("b")
	b.AddEdge(a, b1)
	b.AddEdge(a, x)
	b.AddEdge(x, b2)
	g, _ := b.Build()

	qSlash := query.MustParse(g.Labels, "a(/b)")
	r := buildRTG(t, g, qSlash)
	if got := r.NumCands(1); got != 1 {
		t.Fatalf("'/' candidates = %d, want 1", got)
	}
	if r.DataNode(1, 0) != b1 {
		t.Fatalf("'/' admitted %d, want direct child %d", r.DataNode(1, 0), b1)
	}

	qDesc := query.MustParse(g.Labels, "a(b)")
	r2 := buildRTG(t, g, qDesc)
	if got := r2.NumCands(1); got != 2 {
		t.Fatalf("'//' candidates = %d, want 2", got)
	}
}

func TestWildcardCandidates(t *testing.T) {
	b := graph.NewBuilder()
	a := b.AddNode("a")
	x := b.AddNode("x")
	y := b.AddNode("y")
	b.AddEdge(a, x)
	b.AddEdge(a, y)
	g, _ := b.Build()
	q := query.MustParse(g.Labels, "a(*)")
	r := buildRTG(t, g, q)
	if got := r.NumCands(1); got != 2 {
		t.Fatalf("wildcard candidates = %d, want 2 (x and y)", got)
	}
	_ = x
	_ = y
}

func TestDuplicateLabelsGetSeparateLevels(t *testing.T) {
	// Query a(b(b)): two query nodes with label b at different levels.
	b := graph.NewBuilder()
	a := b.AddNode("a")
	b1 := b.AddNode("b")
	b2 := b.AddNode("b")
	b.AddEdge(a, b1)
	b.AddEdge(b1, b2)
	g, _ := b.Build()
	q := query.MustParse(g.Labels, "a(b(b))")
	r := buildRTG(t, g, q)
	// Level 1 b-candidates: b1 (only node with a b-child below an a).
	if got := r.NumCands(1); got != 1 {
		t.Fatalf("level-1 b candidates = %d, want 1", got)
	}
	if got := r.NumCands(2); got != 1 {
		t.Fatalf("level-2 b candidates = %d, want 1", got)
	}
	if r.DataNode(1, 0) != b1 || r.DataNode(2, 0) != b2 {
		t.Fatalf("levels mapped to %d,%d want %d,%d",
			r.DataNode(1, 0), r.DataNode(2, 0), b1, b2)
	}
	_ = a
}

func TestEmptyRTGWhenNoMatch(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("a")
	b.AddNode("b")
	// no edges
	g, _ := b.Build()
	q := query.MustParse(g.Labels, "a(b)")
	r := buildRTG(t, g, q)
	if r.NumCands(0) != 0 {
		t.Fatalf("root candidates = %d, want 0", r.NumCands(0))
	}
	if r.NumEdges() != 0 {
		t.Fatalf("edges = %d, want 0", r.NumEdges())
	}
}

func TestEdgesMatchClosureOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		g := gen.ErdosRenyi(40, 150, 6, int64(trial))
		c := closure.Compute(g, closure.Options{KeepDistanceIndex: true})
		q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 4, DistinctLabels: true}, rng)
		if err != nil {
			continue
		}
		r := Build(c, q)
		// Every RTG edge's weight equals the closure distance of its
		// endpoints and endpoints carry the right labels.
		for u := int32(0); int(u) < q.NumNodes(); u++ {
			for local := int32(0); int(local) < r.NumCands(u); local++ {
				v := r.DataNode(u, local)
				if q.Nodes[u].Label != g.Label(v) {
					t.Fatalf("candidate label mismatch at query node %d", u)
				}
				for pos, cIdx := range q.Nodes[u].Children {
					for _, e := range r.Edges(u, local, pos) {
						vc := r.DataNode(cIdx, e.ToLocal)
						if d := c.Distance(v, vc); d != e.W {
							t.Fatalf("edge weight %d != closure distance %d", e.W, d)
						}
					}
				}
			}
		}
		// Every surviving candidate has all child groups non-empty.
		for u := int32(0); int(u) < q.NumNodes(); u++ {
			for local := int32(0); int(local) < r.NumCands(u); local++ {
				for pos := range q.Nodes[u].Children {
					if len(r.Edges(u, local, pos)) == 0 {
						t.Fatalf("pruning failed: empty child group survives")
					}
				}
			}
		}
	}
}

func TestMaxDegreeAndStats(t *testing.T) {
	g, q := fig4(t)
	r := buildRTG(t, g, q)
	if d := r.MaxDegree(); d != 4 {
		t.Fatalf("MaxDegree = %d, want 4 (a's c-group)", d)
	}
	s := r.ComputeStats()
	if s.Nodes != 7 || s.Edges != 9 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestNodeWeightFoldedIntoEdges(t *testing.T) {
	b := graph.NewBuilder()
	a := b.AddNode("a")
	x := b.AddNode("b")
	b.AddEdge(a, x)
	b.SetNodeWeight(x, 7)
	b.SetNodeWeight(a, 3)
	g, _ := b.Build()
	c := closure.Compute(g, closure.Options{})
	r := Build(c, query.MustParse(g.Labels, "a(b)"))
	edges := r.Edges(0, 0, 0)
	if len(edges) != 1 || edges[0].W != 8 {
		t.Fatalf("edge weight = %v, want 1+7", edges)
	}
	if r.RootExtra(0) != 3 {
		t.Fatalf("RootExtra = %d, want 3", r.RootExtra(0))
	}
}
