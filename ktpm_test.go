package ktpm

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ktpm/internal/bench"
	"ktpm/internal/kgpm"
)

// paperFig1 builds the Figure 1 patent citation example: a C node that
// reaches an E node and an S node, with top scores 2, 2 and a total of a
// handful of matches.
func paperFig1(t testing.TB) *Database {
	t.Helper()
	gb := NewGraphBuilder()
	v1 := gb.AddNode("C")
	v2 := gb.AddNode("C")
	v3 := gb.AddNode("C")
	v4 := gb.AddNode("S")
	v5 := gb.AddNode("E")
	v6 := gb.AddNode("E")
	v7 := gb.AddNode("S")
	// v1 cites into E and S directly; v2 reaches both in two hops; v3
	// reaches E and S directly.
	gb.AddEdge(v1, v4)
	gb.AddEdge(v1, v5)
	gb.AddEdge(v2, v6)
	gb.AddEdge(v6, v4)
	gb.AddEdge(v3, v6)
	gb.AddEdge(v3, v7)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildDatabase(g, DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_ = []int32{v1, v2, v3, v4, v5, v6, v7}
	return db
}

func TestQuickstartFlow(t *testing.T) {
	db := paperFig1(t)
	q, err := db.ParseQuery("C(E,S)")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := db.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no matches")
	}
	if ms[0].Score != 2 {
		t.Fatalf("top-1 score = %d, want 2", ms[0].Score)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Score < ms[i-1].Score {
			t.Fatal("scores not sorted")
		}
	}
	// Bindings resolve by label.
	c, ok := ms[0].Binding(q, "C")
	if !ok {
		t.Fatal("no C binding")
	}
	if got := db.Graph().LabelOf(c); got != "C" {
		t.Fatalf("binding label = %s", got)
	}
	if _, ok := ms[0].Binding(q, "zzz"); ok {
		t.Fatal("bogus binding resolved")
	}
}

// TestAllAlgorithmsAgree holds Topk-EN to the brute-force oracle match
// for match, and the three baselines to the oracle's score sequence.
func TestAllAlgorithmsAgree(t *testing.T) {
	db := paperFig1(t)
	q, _ := db.ParseQuery("C(E,S)")
	want := oracleTopK(db, q, 10)
	got, err := db.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Topk-EN %v, oracle %v", got, want)
	}
	for _, b := range baselines {
		if ms := runBaseline(db, q, 10, b); !reflect.DeepEqual(scoresOf(ms), scoresOf(want)) {
			t.Fatalf("%v scores %v, oracle %v", b, scoresOf(ms), scoresOf(want))
		}
	}
}

func TestStream(t *testing.T) {
	db := paperFig1(t)
	q, _ := db.ParseQuery("C(E,S)")
	st := db.Stream(q)
	var scores []int64
	for {
		m, ok := st.Next()
		if !ok {
			break
		}
		scores = append(scores, m.Score)
	}
	if int64(len(scores)) != db.CountMatches(q) {
		t.Fatalf("stream produced %d, CountMatches says %d", len(scores), db.CountMatches(q))
	}
}

func TestCountMatches(t *testing.T) {
	db := paperFig1(t)
	q, _ := db.ParseQuery("C(E,S)")
	n := db.CountMatches(q)
	if n < 2 {
		t.Fatalf("CountMatches = %d", n)
	}
	ms, _ := db.TopK(q, int(n)+5)
	if int64(len(ms)) != n {
		t.Fatalf("TopK(all) = %d, CountMatches = %d", len(ms), n)
	}
}

func TestSaveLoadGraph(t *testing.T) {
	db := paperFig1(t)
	var buf bytes.Buffer
	if err := SaveGraph(&buf, db.Graph()); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != db.Graph().NumNodes() {
		t.Fatalf("round trip: %d nodes", g2.NumNodes())
	}
	if g2.LabelOf(0) != "C" {
		t.Fatalf("label of 0 = %s", g2.LabelOf(0))
	}
}

func TestLoadGraphError(t *testing.T) {
	if _, err := LoadGraph(strings.NewReader("garbage line\n")); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestClosureStats(t *testing.T) {
	db := paperFig1(t)
	entries, tables, theta, size := db.ClosureStats()
	if entries <= 0 || tables <= 0 || theta <= 0 || size <= 0 {
		t.Fatalf("stats: %d %d %f %d", entries, tables, theta, size)
	}
}

func TestErrors(t *testing.T) {
	db := paperFig1(t)
	if _, err := db.ParseQuery("C((E"); err == nil {
		t.Fatal("bad query accepted")
	}
	q, _ := db.ParseQuery("C")
	if _, err := db.TopK(nil, 3); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, err := db.TopKWith(q, -1, Options{}); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := BuildDatabase(nil, DatabaseOptions{}); err == nil {
		t.Fatal("nil graph accepted")
	}
}

func TestGraphTopK(t *testing.T) {
	// A cyclic pattern: C-E-S triangle over the Figure 1 graph
	// (undirected view makes the triangles findable).
	db := paperFig1(t)
	ge := db.NewGraphEnv()
	p := &GraphPattern{Labels: []string{"C", "E", "S"}, Edges: [][2]int{{0, 1}, {1, 2}, {0, 2}}}
	plus, err := ge.GraphTopK(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The DP-B baseline (Figure 9's mtree) is the oracle.
	base, err := kgpm.TopK(kgpm.NewEnv(db.g), &kgpm.Query{Labels: p.Labels, Edges: p.Edges}, 5, bench.MTree)
	if err != nil {
		t.Fatal(err)
	}
	if len(plus) != len(base) {
		t.Fatalf("mtree+ %d matches, mtree %d", len(plus), len(base))
	}
	for i := range plus {
		if plus[i].Score != base[i].Score {
			t.Fatalf("top-%d: %d vs %d", i+1, plus[i].Score, base[i].Score)
		}
	}
	if len(plus) == 0 {
		t.Fatal("triangle pattern found no matches")
	}
}

func TestMaxDistanceOption(t *testing.T) {
	gb := NewGraphBuilder()
	a := gb.AddNode("a")
	x := gb.AddNode("x")
	y := gb.AddNode("y")
	b := gb.AddNode("b")
	gb.AddEdge(a, x)
	gb.AddEdge(x, y)
	gb.AddEdge(y, b)
	g, _ := gb.Build()
	full, _ := BuildDatabase(g, DatabaseOptions{})
	trunc, _ := BuildDatabase(g, DatabaseOptions{MaxDistance: 2})
	q1, _ := full.ParseQuery("a(b)")
	q2, _ := trunc.ParseQuery("a(b)")
	if ms, _ := full.TopK(q1, 5); len(ms) != 1 {
		t.Fatalf("full: %d matches", len(ms))
	}
	if ms, _ := trunc.TopK(q2, 5); len(ms) != 0 {
		t.Fatalf("truncated: %d matches, want 0 at MaxDistance 2", len(ms))
	}
}

func TestWildcardAndChildEdges(t *testing.T) {
	db := paperFig1(t)
	q, err := db.ParseQuery("C(*)")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := db.TopK(q, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("wildcard found nothing")
	}
	qc, _ := db.ParseQuery("C(/E)")
	direct, _ := db.TopK(qc, 100)
	qd, _ := db.ParseQuery("C(E)")
	desc, _ := db.TopK(qd, 100)
	if len(direct) > len(desc) {
		t.Fatalf("'/' found more (%d) than '//' (%d)", len(direct), len(desc))
	}
	for _, m := range direct {
		if m.Score != 1 {
			t.Fatalf("'/' match with score %d", m.Score)
		}
	}
}
