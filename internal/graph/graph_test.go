package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// paperFig2b builds the data graph of Figure 2(b): 13 nodes labeled
// a,a,b,b,c,c,d,d,e,e,s,s,s with unit edges forming the paper's example.
func paperFig2b(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	labels := []string{"a", "a", "b", "b", "c", "c", "d", "d", "e", "e", "s", "s", "s"}
	for _, l := range labels {
		b.AddNode(l)
	}
	// v1..v13 are 0..12. A consistent rendering of Figure 2(b)'s edges.
	edges := [][2]int32{
		{0, 2}, {0, 4}, {1, 3}, {1, 4}, {2, 5}, {3, 5},
		{4, 6}, {4, 8}, {5, 6}, {5, 11}, {6, 9}, {7, 9},
		{5, 7}, {6, 10}, {8, 12}, {9, 12}, {2, 7},
	}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildBasics(t *testing.T) {
	g := paperFig2b(t)
	if g.NumNodes() != 13 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 17 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if g.LabelName(0) != "a" || g.LabelName(12) != "s" {
		t.Fatalf("labels wrong: %s %s", g.LabelName(0), g.LabelName(12))
	}
	if !g.Unweighted() {
		t.Fatal("expected unweighted")
	}
}

func TestOutInConsistency(t *testing.T) {
	g := paperFig2b(t)
	type edge struct{ u, v, w int32 }
	var outs, ins []edge
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		g.Out(v, func(to, w int32) bool { outs = append(outs, edge{v, to, w}); return true })
		g.In(v, func(from, w int32) bool { ins = append(ins, edge{from, v, w}); return true })
	}
	if len(outs) != len(ins) || len(outs) != g.NumEdges() {
		t.Fatalf("edge counts: out %d in %d want %d", len(outs), len(ins), g.NumEdges())
	}
	seen := make(map[edge]bool)
	for _, e := range outs {
		seen[e] = true
	}
	for _, e := range ins {
		if !seen[e] {
			t.Fatalf("incoming edge %v missing from outgoing view", e)
		}
	}
}

func TestDegrees(t *testing.T) {
	g := paperFig2b(t)
	total := 0
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		total += g.OutDegree(v)
		if g.OutDegree(v) < 0 || g.InDegree(v) < 0 {
			t.Fatal("negative degree")
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("sum of out-degrees %d != edges %d", total, g.NumEdges())
	}
}

func TestParallelEdgesMergedMinWeight(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a")
	b.AddNode("b")
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(0, 1, 2)
	b.AddWeightedEdge(0, 1, 9)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want merged 1", g.NumEdges())
	}
	g.Out(0, func(to, w int32) bool {
		if to != 1 || w != 2 {
			t.Fatalf("merged edge = (%d,%d), want (1,2)", to, w)
		}
		return true
	})
}

func TestBuildRejectsSelfLoop(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a")
	b.AddEdge(0, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestBuildRejectsBadEndpoint(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a")
	b.AddEdge(0, 3)
	if _, err := b.Build(); err == nil {
		t.Fatal("dangling endpoint accepted")
	}
}

func TestBuildRejectsNonPositiveWeight(t *testing.T) {
	b := NewBuilder()
	b.AddNode("a")
	b.AddNode("b")
	b.AddWeightedEdge(0, 1, 0)
	if _, err := b.Build(); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestNodesWithLabel(t *testing.T) {
	g := paperFig2b(t)
	sID, ok := g.Labels.Lookup("s")
	if !ok {
		t.Fatal("label s missing")
	}
	got := g.NodesWithLabel(int32(sID))
	want := []int32{10, 11, 12}
	if len(got) != len(want) {
		t.Fatalf("NodesWithLabel(s) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("NodesWithLabel(s) = %v, want %v", got, want)
		}
	}
}

// TestLabelIndex checks the label CSR against a scan of every node, on
// a graph built directly and on its decoded copy, and that the views it
// hands out cannot be appended into the index.
func TestLabelIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewBuilder()
	for i := 0; i < 300; i++ {
		b.AddNode(string(rune('a' + rng.Intn(12))))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, gr := range []*Graph{g, g2} {
		seen := 0
		for l := int32(0); int(l) < gr.IndexedLabels(); l++ {
			var want []int32
			for v := int32(0); int(v) < gr.NumNodes(); v++ {
				if gr.Label(v) == l {
					want = append(want, v)
				}
			}
			got := gr.NodesWithLabel(l)
			if len(got) != len(want) || cap(got) != len(got) {
				t.Fatalf("label %d: %d nodes (cap %d), want %d", l, len(got), cap(got), len(want))
			}
			for r, v := range want {
				if got[r] != v || gr.Rank(v) != int32(r) {
					t.Fatalf("label %d rank %d: node %d (rank %d), want %d", l, r, got[r], gr.Rank(v), v)
				}
			}
			seen += len(got)
		}
		if seen != gr.NumNodes() {
			t.Fatalf("index covers %d of %d nodes", seen, gr.NumNodes())
		}
		if gr.NodesWithLabel(-1) != nil || gr.NodesWithLabel(int32(gr.IndexedLabels())) != nil {
			t.Fatal("a label outside the index has nodes")
		}
	}
	late := int32(g.Labels.Intern("interned-after-build"))
	if g.NodesWithLabel(late) != nil {
		t.Fatal("a label interned after Build has nodes")
	}
}

func TestLabelHistogram(t *testing.T) {
	g := paperFig2b(t)
	h := g.LabelHistogram()
	count := 0
	for _, c := range h {
		count += c
	}
	if count != g.NumNodes() {
		t.Fatalf("histogram sums to %d, want %d", count, g.NumNodes())
	}
}

func TestUndirected(t *testing.T) {
	g := paperFig2b(t)
	u := g.Undirected()
	if u.NumEdges() != 2*g.NumEdges() {
		t.Fatalf("undirected edges = %d, want %d", u.NumEdges(), 2*g.NumEdges())
	}
	// Every directed edge must have its mirror.
	u.Edges(func(e Edge) bool {
		found := false
		u.Out(e.To, func(to, w int32) bool {
			if to == e.From {
				found = true
				return false
			}
			return true
		})
		if !found {
			t.Fatalf("edge (%d,%d) lacks mirror", e.From, e.To)
		}
		return true
	})
}

func TestComputeStats(t *testing.T) {
	g := paperFig2b(t)
	s := g.ComputeStats()
	if s.Nodes != 13 || s.Edges != 17 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MaxOutDegree < 2 {
		t.Fatalf("MaxOutDegree = %d", s.MaxOutDegree)
	}
	if s.AvgOutDegree <= 0 {
		t.Fatalf("AvgOutDegree = %f", s.AvgOutDegree)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := paperFig2b(t)
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		if g.LabelName(v) != g2.LabelName(v) {
			t.Fatalf("node %d label %q vs %q", v, g.LabelName(v), g2.LabelName(v))
		}
	}
}

func TestEncodeDecodeWeighted(t *testing.T) {
	b := NewBuilder()
	b.AddNode("x")
	b.AddNode("y")
	b.AddWeightedEdge(0, 1, 7)
	g, _ := b.Build()
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g2.Out(0, func(to, w int32) bool {
		if w != 7 {
			t.Fatalf("weight = %d, want 7", w)
		}
		return true
	})
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct{ name, input string }{
		{"non-dense ids", "n 1 a\n"},
		{"bad record", "x 1 2\n"},
		{"short node", "n 0\n"},
		{"bad edge endpoint", "n 0 a\ne 0 zz\n"},
		{"edge to missing node", "n 0 a\ne 0 5\n"},
		{"bad weight", "n 0 a\nn 1 b\ne 0 1 ww\n"},
	}
	for _, c := range cases {
		if _, err := Decode(strings.NewReader(c.input)); err == nil {
			t.Errorf("%s: Decode accepted %q", c.name, c.input)
		}
	}
}

func TestDecodeSkipsCommentsAndBlanks(t *testing.T) {
	in := "# hello\n\nn 0 a\nn 1 b\n# mid\ne 0 1\n"
	g, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("decoded %d/%d", g.NumNodes(), g.NumEdges())
	}
}

func TestLargeRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	b := NewBuilder()
	const n = 500
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a' + rng.Intn(20))))
	}
	for i := 0; i < 2000; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			b.AddWeightedEdge(u, v, int32(1+rng.Intn(4)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d vs %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestNodeWeights(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("a")
	c := b.AddNode("c")
	b.SetNodeWeight(a, 5)
	b.AddEdge(a, c)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NodeWeight(a) != 5 || g.NodeWeight(c) != 0 {
		t.Fatalf("weights = %d,%d", g.NodeWeight(a), g.NodeWeight(c))
	}
	u := g.Undirected()
	if u.NodeWeight(a) != 5 {
		t.Fatal("Undirected dropped node weights")
	}
}

func TestNegativeNodeWeightRejected(t *testing.T) {
	b := NewBuilder()
	v := b.AddNode("a")
	b.SetNodeWeight(v, -1)
	if _, err := b.Build(); err == nil {
		t.Fatal("negative node weight accepted")
	}
}

func TestEncodeDecodeNodeWeights(t *testing.T) {
	b := NewBuilder()
	a := b.AddNode("a")
	b.AddNode("b")
	b.SetNodeWeight(a, 9)
	g, _ := b.Build()
	var buf bytes.Buffer
	if err := Encode(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NodeWeight(a) != 9 {
		t.Fatalf("round-trip weight = %d", g2.NodeWeight(a))
	}
}

func TestDecodeBadNodeWeight(t *testing.T) {
	if _, err := Decode(strings.NewReader("n 0 a zz\n")); err == nil {
		t.Fatal("bad node weight accepted")
	}
}
