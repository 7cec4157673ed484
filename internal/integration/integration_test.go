// Package integration cross-checks every matching implementation on
// shared instances: the four kTPM algorithms against brute force, the
// kGPM matchers and root policies against each other, node-weighted
// scoring, and adversarial graph shapes that stress specific code paths.
package integration

import (
	"math/rand"
	"testing"

	"ktpm/internal/bench"
	"ktpm/internal/closure"
	"ktpm/internal/core"
	"ktpm/internal/dp"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
	"ktpm/internal/kgpm"
	"ktpm/internal/lazy"
	"ktpm/internal/query"
	"ktpm/internal/rtg"
	"ktpm/internal/store"
)

// scoresOf extracts the canonical comparison key: the sorted score list.
func scoresCore(ms []*core.Match) []int64 {
	out := make([]int64, len(ms))
	for i, m := range ms {
		out[i] = m.Score
	}
	return out
}

// checkAll runs every algorithm on one instance and compares against the
// brute-force oracle.
func checkAll(t *testing.T, g *graph.Graph, q *query.Tree, k int) {
	t.Helper()
	c := closure.Compute(g, closure.Options{})
	r := rtg.Build(c, q)
	want := scoresCore(core.BruteForce(r, k))

	check := func(name string, got []int64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s on %s: %d matches, want %d", name, q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s on %s: top-%d = %d, want %d", name, q, i+1, got[i], want[i])
			}
		}
	}

	check("Topk", scoresCore(core.TopK(r, k)))
	check("Topk/push-all", scoresCore(core.TopKWith(r, k, core.Options{DisableLazyQueues: true})))

	dpb := dp.TopK(r, k)
	got := make([]int64, len(dpb))
	for i, m := range dpb {
		got[i] = m.Score
	}
	check("DP-B", got)

	for _, bs := range []int{1, 16} {
		s := store.New(c, bs)
		en := lazy.TopK(s, q, k, lazy.Options{})
		got := make([]int64, len(en))
		for i, m := range en {
			got[i] = m.Score
		}
		check("Topk-EN", got)

		s = store.New(c, bs)
		dpp := dp.TopKLazy(s, q, k)
		got = make([]int64, len(dpp))
		for i, m := range dpp {
			got[i] = m.Score
		}
		check("DP-P", got)

		s = store.New(c, bs)
		ea := lazy.TopK(s, q, k, lazy.Options{Bound: lazy.EdgeAwareBound})
		got = make([]int64, len(ea))
		for i, m := range ea {
			got[i] = m.Score
		}
		check("Topk-EN/edge-aware", got)
	}
}

func TestAllAlgorithmsOnNodeWeightedGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	trials := 0
	for seed := int64(0); seed < 40; seed++ {
		wr := rand.New(rand.NewSource(seed))
		b := graph.NewBuilder()
		n := 22
		for i := 0; i < n; i++ {
			v := b.AddNode(string(rune('a' + wr.Intn(5))))
			b.SetNodeWeight(v, int32(wr.Intn(4)))
		}
		for i := 0; i < 80; i++ {
			u, v := int32(wr.Intn(n)), int32(wr.Intn(n))
			if u != v {
				b.AddWeightedEdge(u, v, int32(1+wr.Intn(3)))
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 4, DistinctLabels: true, MaxAttempts: 30}, rng)
		if err != nil {
			continue
		}
		checkAll(t, g, q, 20)
		trials++
	}
	if trials < 15 {
		t.Fatalf("only %d usable trials", trials)
	}
}

func TestNodeWeightShiftsScores(t *testing.T) {
	// Two identical sub-structures; node weight decides the winner.
	b := graph.NewBuilder()
	a1 := b.AddNode("a")
	a2 := b.AddNode("a")
	b1 := b.AddNode("b")
	b2 := b.AddNode("b")
	b.AddEdge(a1, b1)
	b.AddEdge(a2, b2)
	b.SetNodeWeight(a1, 5) // penalize a1
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := closure.Compute(g, closure.Options{})
	q := query.MustParse(g.Labels, "a(b)")
	r := rtg.Build(c, q)
	ms := core.TopK(r, 2)
	if len(ms) != 2 {
		t.Fatalf("matches = %d", len(ms))
	}
	if ms[0].Nodes[0] != a2 || ms[0].Score != 1 {
		t.Fatalf("top-1 = root %d score %d, want root %d score 1", ms[0].Nodes[0], ms[0].Score, a2)
	}
	if ms[1].Nodes[0] != a1 || ms[1].Score != 6 {
		t.Fatalf("top-2 = root %d score %d, want root %d score 6", ms[1].Nodes[0], ms[1].Score, a1)
	}
	// Lazy agrees.
	en := lazy.TopK(store.New(c, 4), q, 2, lazy.Options{})
	if en[0].Score != 1 || en[1].Score != 6 {
		t.Fatalf("lazy scores %d,%d", en[0].Score, en[1].Score)
	}
	_ = b2
	_ = b1
}

// TestAdversarialShapes runs all algorithms on graph families chosen to
// stress specific code paths.
func TestAdversarialShapes(t *testing.T) {
	shapes := []struct {
		name  string
		build func() (*graph.Graph, *query.Tree)
	}{
		{
			// Deep chain: maximal query depth, single match.
			name: "chain",
			build: func() (*graph.Graph, *query.Tree) {
				b := graph.NewBuilder()
				labels := []string{"a", "b", "c", "d", "e", "f"}
				for _, l := range labels {
					b.AddNode(l)
				}
				for i := int32(0); i < 5; i++ {
					b.AddEdge(i, i+1)
				}
				g, _ := b.Build()
				return g, query.Chain(g.Labels, labels...)
			},
		},
		{
			// Wide star: one root level, many leaf candidates per group.
			name: "star",
			build: func() (*graph.Graph, *query.Tree) {
				b := graph.NewBuilder()
				root := b.AddNode("r")
				for i := 0; i < 12; i++ {
					x := b.AddNode("x")
					y := b.AddNode("y")
					b.AddEdge(root, x)
					b.AddWeightedEdge(root, y, int32(1+i%4))
				}
				g, _ := b.Build()
				return g, query.Star(g.Labels, "r", "x", "y")
			},
		},
		{
			// Diamond lattice: exponentially many matches from few nodes.
			name: "diamond",
			build: func() (*graph.Graph, *query.Tree) {
				b := graph.NewBuilder()
				labels := []string{"a", "b", "c", "d"}
				var layers [][]int32
				for _, l := range labels {
					layer := []int32{b.AddNode(l), b.AddNode(l), b.AddNode(l)}
					layers = append(layers, layer)
				}
				for i := 0; i+1 < len(layers); i++ {
					for _, u := range layers[i] {
						for _, v := range layers[i+1] {
							b.AddEdge(u, v)
						}
					}
				}
				g, _ := b.Build()
				return g, query.Chain(g.Labels, labels...)
			},
		},
		{
			// Shared children: many parents funnel through few children.
			name: "funnel",
			build: func() (*graph.Graph, *query.Tree) {
				b := graph.NewBuilder()
				var roots []int32
				for i := 0; i < 8; i++ {
					roots = append(roots, b.AddNode("p"))
				}
				mid := b.AddNode("m")
				leaf := b.AddNode("l")
				for i, r := range roots {
					b.AddWeightedEdge(r, mid, int32(1+i))
				}
				b.AddEdge(mid, leaf)
				g, _ := b.Build()
				return g, query.Chain(g.Labels, "p", "m", "l")
			},
		},
	}
	for _, sh := range shapes {
		g, q := sh.build()
		t.Run(sh.name, func(t *testing.T) {
			checkAll(t, g, q, 50)
		})
	}
}

// TestExhaustiveEnumerationAgrees drains all algorithms completely and
// compares full score multisets (not just a top-k prefix).
func TestExhaustiveEnumerationAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	trials := 0
	for seed := int64(300); seed < 330; seed++ {
		g := gen.ErdosRenyi(15, 50, 4, seed)
		q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 3, DistinctLabels: true, MaxAttempts: 30}, rng)
		if err != nil {
			continue
		}
		c := closure.Compute(g, closure.Options{})
		r := rtg.Build(c, q)
		total := core.CountMatches(r)
		if total > 5000 {
			continue
		}
		checkAll(t, g, q, int(total)+3)
		trials++
	}
	if trials < 10 {
		t.Fatalf("only %d usable trials", trials)
	}
}

// TestKGPMRootPoliciesAgree verifies both root policies produce identical
// score sequences on random cyclic patterns.
func TestKGPMRootPoliciesAgree(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		g := gen.ErdosRenyi(18, 60, 6, seed)
		env := kgpm.NewEnv(g)
		rng := rand.New(rand.NewSource(seed))
		var labels []string
		seen := map[string]bool{}
		for v := int32(0); int(v) < g.NumNodes() && len(labels) < 4; v++ {
			l := g.LabelName(v)
			if !seen[l] {
				seen[l] = true
				labels = append(labels, l)
			}
		}
		if len(labels) < 4 {
			continue
		}
		q := &kgpm.Query{
			Labels: labels,
			Edges:  [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 2}},
		}
		_ = rng
		var ref []*kgpm.Match
		for _, policy := range []kgpm.RootPolicy{kgpm.MaxDegreeRoot, kgpm.RarestLabelRoot} {
			for _, m := range []struct {
				name string
				algo kgpm.Algorithm
			}{{"mtree", bench.MTree}, {"mtree+", kgpm.MTreePlus}} {
				ms, err := kgpm.TopKWithRoot(env, q, 8, m.algo, policy)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if ref == nil {
					ref = ms
					continue
				}
				if len(ms) != len(ref) {
					t.Fatalf("seed %d policy %d %s: %d matches, ref %d",
						seed, policy, m.name, len(ms), len(ref))
				}
				for i := range ms {
					if ms[i].Score != ref[i].Score {
						t.Fatalf("seed %d policy %d %s: top-%d %d, ref %d",
							seed, policy, m.name, i+1, ms[i].Score, ref[i].Score)
					}
				}
			}
			ref = nil // policies may tie-break differently; compare within policy
		}
	}
}

// TestStreamMatchesTopK ensures incremental lazy streaming and batch TopK
// agree element by element.
func TestStreamMatchesTopK(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{Nodes: 400, Labels: 12, Seed: 11})
	rng := rand.New(rand.NewSource(12))
	q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 5, DistinctLabels: true}, rng)
	if err != nil {
		t.Skip("no query")
	}
	c := closure.Compute(g, closure.Options{})
	s1 := store.New(c, 8)
	batch := lazy.TopK(s1, q, 30, lazy.Options{})
	s2 := store.New(c, 8)
	e := lazy.New(s2, q, lazy.Options{})
	for i, want := range batch {
		m, ok := e.Next()
		if !ok {
			t.Fatalf("stream ended at %d, batch has %d", i, len(batch))
		}
		if m.Score != want.Score {
			t.Fatalf("stream[%d] = %d, batch %d", i, m.Score, want.Score)
		}
	}
}

// TestValidateEveryEmittedMatch runs the match validator over everything
// the optimal enumerator emits on a batch of random instances.
func TestValidateEveryEmittedMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for seed := int64(400); seed < 425; seed++ {
		g := gen.ErdosRenyi(25, 90, 5, seed)
		q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 4, DistinctLabels: true, MaxAttempts: 30}, rng)
		if err != nil {
			continue
		}
		c := closure.Compute(g, closure.Options{})
		r := rtg.Build(c, q)
		e := core.New(r)
		for {
			m, ok := e.Next()
			if !ok {
				break
			}
			if !core.ValidateMatch(r, m) {
				t.Fatalf("seed %d: invalid match %v score %d", seed, m.Nodes, m.Score)
			}
		}
	}
}
