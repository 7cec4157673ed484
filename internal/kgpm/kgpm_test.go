package kgpm

import (
	"math/rand"
	"sort"
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
	"ktpm/internal/query"
)

// bruteKGPM enumerates all graph-pattern matches exhaustively.
func bruteKGPM(env *Env, q *Query, k int) []*Match {
	n := len(q.Labels)
	cands := make([][]int32, n)
	for i, l := range q.Labels {
		id, ok := env.Und.Labels.Lookup(l)
		if !ok {
			return nil
		}
		cands[i] = env.Und.NodesWithLabel(int32(id))
	}
	var out []*Match
	assign := make([]int32, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			var score int64
			for _, e := range q.Edges {
				d := env.Closure.Distance(assign[e[0]], assign[e[1]])
				if d == closure.Unreachable {
					return
				}
				score += int64(d)
			}
			out = append(out, &Match{Nodes: append([]int32(nil), assign...), Score: score})
			return
		}
		for _, v := range cands[i] {
			assign[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score < out[j].Score })
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func triangleGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	// Two triangles a-b-c with different tightness plus a stray path.
	a1 := b.AddNode("a")
	b1 := b.AddNode("b")
	c1 := b.AddNode("c")
	a2 := b.AddNode("a")
	b2 := b.AddNode("b")
	c2 := b.AddNode("c")
	x := b.AddNode("x")
	b.AddEdge(a1, b1)
	b.AddEdge(b1, c1)
	b.AddEdge(c1, a1)
	b.AddEdge(a2, b2)
	b.AddEdge(b2, x)
	b.AddEdge(x, c2)
	b.AddEdge(c2, a2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestTriangleQuery(t *testing.T) {
	g := triangleGraph(t)
	env := NewEnv(g)
	q := &Query{Labels: []string{"a", "b", "c"}, Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}}
	ms, err := TopK(env, q, 3, MTreePlus)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no matches")
	}
	// Tight triangle (a1,b1,c1) scores 3; the loose one scores 1+2+1=4.
	if ms[0].Score != 3 {
		t.Fatalf("top-1 score = %d, want 3", ms[0].Score)
	}
	want := bruteKGPM(env, q, 3)
	if len(ms) != len(want) {
		t.Fatalf("%d matches, want %d", len(ms), len(want))
	}
	for i := range ms {
		if ms[i].Score != want[i].Score {
			t.Fatalf("top-%d = %d, want %d", i+1, ms[i].Score, want[i].Score)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		q    Query
	}{
		{"empty", Query{}},
		{"dup labels", Query{Labels: []string{"a", "a"}, Edges: [][2]int{{0, 1}}}},
		{"self edge", Query{Labels: []string{"a", "b"}, Edges: [][2]int{{0, 0}}}},
		{"out of range", Query{Labels: []string{"a", "b"}, Edges: [][2]int{{0, 5}}}},
		{"disconnected", Query{Labels: []string{"a", "b", "c"}, Edges: [][2]int{{0, 1}}}},
	}
	for _, c := range cases {
		if err := c.q.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", c.name)
		}
	}
	ok := Query{Labels: []string{"a", "b", "c"}, Edges: [][2]int{{0, 1}, {1, 2}}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
}

func TestUnknownLabelErrors(t *testing.T) {
	g := triangleGraph(t)
	env := NewEnv(g)
	q := &Query{Labels: []string{"a", "zz"}, Edges: [][2]int{{0, 1}}}
	if _, err := TopK(env, q, 3, MTreePlus); err == nil {
		t.Fatal("unknown label accepted")
	}
}

func randomQueryGraph(g *graph.Graph, size int, rng *rand.Rand) *Query {
	// Build a random connected query over distinct labels present in g.
	labels := map[string]bool{}
	var pool []string
	for v := int32(0); int(v) < g.NumNodes(); v++ {
		l := g.LabelName(v)
		if !labels[l] {
			labels[l] = true
			pool = append(pool, l)
		}
	}
	sort.Strings(pool)
	if len(pool) < size {
		return nil
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	q := &Query{Labels: pool[:size]}
	// Random spanning tree plus a couple of extra edges.
	for i := 1; i < size; i++ {
		q.Edges = append(q.Edges, [2]int{rng.Intn(i), i})
	}
	for e := 0; e < 2; e++ {
		a, b := rng.Intn(size), rng.Intn(size)
		if a == b {
			continue
		}
		dup := false
		for _, ex := range q.Edges {
			if (ex[0] == a && ex[1] == b) || (ex[0] == b && ex[1] == a) {
				dup = true
			}
		}
		if !dup {
			q.Edges = append(q.Edges, [2]int{a, b})
		}
	}
	return q
}

func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	trials := 0
	for seed := int64(0); seed < 25; seed++ {
		g := gen.ErdosRenyi(16, 50, 6, seed)
		q := randomQueryGraph(g, 4, rng)
		if q == nil {
			continue
		}
		env := NewEnv(g)
		want := bruteKGPM(env, q, 10)
		got, err := TopK(env, q, 10, MTreePlus)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d matches, want %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].Score != want[i].Score {
				t.Fatalf("seed %d: top-%d = %d, want %d", seed, i+1, got[i].Score, want[i].Score)
			}
		}
		trials++
	}
	if trials < 10 {
		t.Fatalf("only %d usable trials", trials)
	}
}

func TestTreeOnlyQueryReducesToTreeMatching(t *testing.T) {
	g := triangleGraph(t)
	env := NewEnv(g)
	q := &Query{Labels: []string{"a", "b"}, Edges: [][2]int{{0, 1}}}
	ms, err := TopK(env, q, 10, MTreePlus)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKGPM(env, q, 10)
	if len(ms) != len(want) {
		t.Fatalf("%d matches, want %d", len(ms), len(want))
	}
	for i := range ms {
		if ms[i].Score != want[i].Score {
			t.Fatalf("top-%d = %d, want %d", i+1, ms[i].Score, want[i].Score)
		}
	}
}

func TestKZeroAndNoMatch(t *testing.T) {
	g := triangleGraph(t)
	env := NewEnv(g)
	q := &Query{Labels: []string{"a", "b", "c"}, Edges: [][2]int{{0, 1}, {1, 2}, {2, 0}}}
	if ms, _ := TopK(env, q, 0, MTreePlus); ms != nil {
		t.Fatalf("k=0 returned %v", ms)
	}
	// x is isolated from one triangle: query (x, a) still matches via the
	// loose triangle; query with impossible combination:
	q2 := &Query{Labels: []string{"x", "c"}, Edges: [][2]int{{0, 1}}}
	ms, err := TopK(env, q2, 5, MTreePlus)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKGPM(env, q2, 5)
	if len(ms) != len(want) {
		t.Fatalf("x-c matches %d, want %d", len(ms), len(want))
	}
}

// countingMatches counts the Close calls of the sources countingAlgo
// opens.
type countingMatches struct {
	TreeMatches
	closed *int
}

func (c countingMatches) Close() {
	*c.closed++
	c.TreeMatches.Close()
}

// TestTopKClosesItsSource runs TopKWithRoot on every way it can return —
// the threshold stop, exhaustion, a tree-only query and both root
// policies — with a counting Algorithm around MTreePlus, and fails if a
// call opened a source it did not close exactly once.
func TestTopKClosesItsSource(t *testing.T) {
	g := gen.ErdosRenyi(40, 160, 4, 3)
	env := NewEnv(g)
	var opened, closed int
	countingAlgo := func(env *Env, tree *query.Tree, k int) TreeMatches {
		opened++
		return countingMatches{MTreePlus(env, tree, k), &closed}
	}
	queries := []*Query{
		randomQueryGraph(g, 3, rand.New(rand.NewSource(5))),
		{Labels: []string{g.LabelName(0), g.LabelName(1)}, Edges: [][2]int{{0, 1}}},
	}
	if queries[0] == nil || queries[1].Labels[0] == queries[1].Labels[1] {
		t.Fatal("test graph lacks distinct labels")
	}
	for qi, q := range queries {
		for _, k := range []int{1, 5, 1000} { // 1000 drains the space
			for _, policy := range []RootPolicy{MaxDegreeRoot, RarestLabelRoot} {
				before := opened
				if _, err := TopKWithRoot(env, q, k, countingAlgo, policy); err != nil {
					t.Fatal(err)
				}
				if opened != before+1 || closed != opened {
					t.Fatalf("q%d k=%d policy %d: opened %d sources, closed %d", qi, k, policy, opened-before, closed-before)
				}
			}
		}
	}
}
