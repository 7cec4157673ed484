package closure

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ktpm/internal/gen"
	"ktpm/internal/graph"
)

// randomGraph builds a random directed graph; weighted graphs draw
// weights in [1, maxW].
func randomGraph(t *testing.T, rng *rand.Rand, n, m, labels int, maxW int32) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder()
	names := []string{"A", "B", "C", "D", "E", "F", "G", "H", "I", "J"}
	for i := 0; i < n; i++ {
		b.AddNode(names[rng.Intn(labels)])
	}
	for i := 0; i < m; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		w := int32(1)
		if maxW > 1 {
			w = 1 + rng.Int31n(maxW)
		}
		b.AddWeightedEdge(u, v, w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func randomNewEdges(rng *rand.Rand, n, count int, maxW int32) []graph.Edge {
	var out []graph.Edge
	for len(out) < count {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		w := int32(1)
		if maxW > 1 {
			w = 1 + rng.Int31n(maxW)
		}
		out = append(out, graph.Edge{From: u, To: v, Weight: w})
	}
	return out
}

// assertSameSource compares two TableSources entry-for-entry.
func assertSameSource(t *testing.T, got, want TableSource) {
	t.Helper()
	if got.NumEntries() != want.NumEntries() {
		t.Fatalf("NumEntries: got %d, want %d", got.NumEntries(), want.NumEntries())
	}
	if got.NumTables() != want.NumTables() {
		t.Fatalf("NumTables: got %d, want %d", got.NumTables(), want.NumTables())
	}
	seen := 0
	want.TableLens(func(alpha, beta int32, count int) bool {
		seen++
		if gl := got.TableLen(alpha, beta); gl != count {
			t.Fatalf("TableLen(%d,%d): got %d, want %d", alpha, beta, gl, count)
		}
		gt, wt := got.Table(alpha, beta), want.Table(alpha, beta)
		if !reflect.DeepEqual(gt, wt) {
			t.Fatalf("Table(%d,%d) differs:\n got %v\nwant %v", alpha, beta, gt, wt)
		}
		return true
	})
	if seen != want.NumTables() {
		t.Fatalf("want iterated %d tables, NumTables says %d", seen, want.NumTables())
	}
	// The merged source must not report tables the reference lacks.
	got.TableLens(func(alpha, beta int32, count int) bool {
		if want.TableLen(alpha, beta) != count {
			t.Fatalf("extra/mismatched table (%d,%d) count %d in merged source", alpha, beta, count)
		}
		return true
	})
}

// TestMergedSourceMatchesRecompute is the core write-path correctness
// property: base closure + incremental delta must reproduce, table for
// table and entry for entry, a from-scratch closure over the combined
// graph — for unweighted and weighted graphs, single and multi-batch.
func TestMergedSourceMatchesRecompute(t *testing.T) {
	for _, tc := range []struct {
		name string
		maxW int32
	}{{"unweighted", 1}, {"weighted", 5}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 8; trial++ {
				base := randomGraph(t, rng, 40, 110, 6, tc.maxW)
				baseClosure := Compute(base, Options{})

				// Apply three batches of new edges, growing the graph
				// monotonically and re-running AddEdges over the grown
				// graph each time, exactly as the ingest path does.
				d := NewDelta()
				cur := base
				var all []graph.Edge
				for batch := 0; batch < 3; batch++ {
					edges := randomNewEdges(rng, 40, 5+rng.Intn(6), tc.maxW)
					all = append(all, edges...)
					g2, err := CombineGraph(cur, edges)
					if err != nil {
						t.Fatal(err)
					}
					cur = g2
					d.AddEdges(cur, edges)

					merged := NewMergedSource(cur, baseClosure, d)
					want := Compute(cur, Options{})
					assertSameSource(t, merged, want)
				}
				if d.EdgesApplied() != len(all) {
					t.Fatalf("EdgesApplied = %d, want %d", d.EdgesApplied(), len(all))
				}
			}
		})
	}
}

// TestMergedSourceOverSnapshot runs the same property with the base
// behind a snapshot in every mode, since that is what a live ktpmd
// actually merges against.
func TestMergedSourceOverSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := randomGraph(t, rng, 30, 90, 5, 3)
	baseClosure := Compute(base, Options{})
	edges := randomNewEdges(rng, 30, 12, 3)
	g2, err := CombineGraph(base, edges)
	if err != nil {
		t.Fatal(err)
	}
	want := Compute(g2, Options{})

	path := t.TempDir() + "/base.snap"
	if err := writeSnapshotFile(path, baseClosure); err != nil {
		t.Fatal(err)
	}
	for _, mode := range []SnapMode{SnapEager, SnapLazy, SnapMMap} {
		snap, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDelta()
		d.AddEdges(g2, edges)
		merged := NewMergedSource(g2, snap, d)
		assertSameSource(t, merged, want)
		snap.Close()
	}
}

func TestCombineGraphRejectsUnknownNodes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := randomGraph(t, rng, 10, 20, 3, 1)
	if _, err := CombineGraph(g, []graph.Edge{{From: 0, To: 99, Weight: 1}}); err == nil {
		t.Fatal("CombineGraph accepted an out-of-range endpoint")
	}
	if _, err := CombineGraph(g, []graph.Edge{{From: -1, To: 2, Weight: 1}}); err == nil {
		t.Fatal("CombineGraph accepted a negative endpoint")
	}
}

// TestDeltaInteractingEdges pins the cases the per-edge, pre-edge-graph
// delta has to get right that random batches rarely hit: edges of one
// batch that only shorten a path together, parallel duplicates (of a
// base edge, and within the batch), an edge a shorter path already
// implies, an edge joining two components, and weights above 1.
func TestDeltaInteractingEdges(t *testing.T) {
	E := func(u, v, w int32) graph.Edge { return graph.Edge{From: u, To: v, Weight: w} }
	for _, tc := range []struct {
		name    string
		labels  string
		base    [][3]int32
		batches [][]graph.Edge
		// noop: the last batch must leave Entries() where it was.
		noop bool
	}{
		{
			name: "two edges of one batch on one new path", labels: "ABCABC",
			base:    [][3]int32{{0, 1, 1}, {3, 4, 1}, {4, 5, 1}},
			batches: [][]graph.Edge{{E(2, 3, 1), E(1, 2, 1)}},
		},
		{
			name: "batch edges that undercut each other", labels: "ABCAB",
			base:    [][3]int32{{0, 1, 2}, {1, 2, 2}, {2, 3, 2}, {3, 4, 2}},
			batches: [][]graph.Edge{{E(0, 2, 3), E(0, 3, 4), E(1, 4, 1), E(0, 4, 9)}},
		},
		{
			name: "duplicate of a base edge", labels: "ABCA",
			base:    [][3]int32{{0, 1, 2}, {1, 2, 1}, {2, 3, 1}},
			batches: [][]graph.Edge{{E(0, 1, 2)}},
		},
		{
			name: "heavier duplicate of a base edge", labels: "ABCA",
			base:    [][3]int32{{0, 1, 2}, {1, 2, 1}, {2, 3, 1}},
			batches: [][]graph.Edge{{E(0, 1, 5)}},
			noop:    true,
		},
		{
			name: "duplicates within a batch, lighter one last", labels: "ABCA",
			base:    [][3]int32{{0, 1, 1}, {2, 3, 1}},
			batches: [][]graph.Edge{{E(1, 2, 4), E(1, 2, 4), E(1, 2, 2)}},
		},
		{
			name: "edge implied by a shorter path", labels: "ABCA",
			base:    [][3]int32{{0, 1, 1}, {1, 2, 1}, {2, 3, 1}},
			batches: [][]graph.Edge{{E(0, 3, 1)}, {E(0, 2, 5), E(1, 3, 2)}},
			noop:    true,
		},
		{
			name: "edge joining two components, then a cycle", labels: "ABABAB",
			base:    [][3]int32{{0, 1, 3}, {1, 2, 1}, {3, 4, 2}, {4, 5, 7}},
			batches: [][]graph.Edge{{E(2, 3, 4)}, {E(5, 0, 2)}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := buildGraph(t, strings.Split(tc.labels, ""), tc.base)
			baseClosure := Compute(base, Options{})
			d, cur := NewDelta(), base
			for i, edges := range tc.batches {
				g2, err := CombineGraph(cur, edges)
				if err != nil {
					t.Fatal(err)
				}
				cur = g2
				before := d.Entries()
				d.AddEdges(cur, edges)
				assertSameSource(t, NewMergedSource(cur, baseClosure, d), Compute(cur, Options{}))
				if tc.noop && i == len(tc.batches)-1 && d.Entries() != before {
					t.Fatalf("edges that shorten nothing grew the overlay %d -> %d", before, d.Entries())
				}
			}
		})
	}
}

// pairDists flattens a closure into (from, to) -> distance.
func pairDists(src TableSource) map[fromTo]int32 {
	out := make(map[fromTo]int32, src.NumEntries())
	src.Tables(func(_, _ int32, entries []Entry) bool {
		for _, e := range entries {
			out[fromTo{e.From, e.To}] = e.Dist
		}
		return true
	})
	return out
}

// TestDeltaTightness bounds the overlay by what a batch really changed:
// on a seeded power-law graph, the entries a batch adds stay within 32×
// the pairs whose distance differs between the closures before and
// after it. (The cross product of everything reaching u with everything
// v reaches, which AddEdges used to record, is ~300× here.)
func TestDeltaTightness(t *testing.T) {
	full := gen.PowerLaw(gen.PowerLawConfig{Nodes: 400, AvgOutDegree: 5, Labels: 60, Window: 50, Communities: 6, Seed: 5})
	var edges []graph.Edge
	full.Edges(func(e graph.Edge) bool {
		edges = append(edges, e)
		return true
	})
	rng := rand.New(rand.NewSource(11))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	held, kept := edges[:32], edges[32:]
	b := graph.NewBuilderWithLabels(full.Labels)
	for v := int32(0); v < int32(full.NumNodes()); v++ {
		b.AddNodeLabelID(full.Label(v))
	}
	for _, e := range kept {
		b.AddWeightedEdge(e.From, e.To, e.Weight)
	}
	cur, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := pairDists(Compute(cur, Options{}))
	for i := 0; i+4 <= len(held); i += 4 {
		batch := held[i : i+4]
		g2, err := CombineGraph(cur, batch)
		if err != nil {
			t.Fatal(err)
		}
		cur = g2
		d := NewDelta()
		d.AddEdges(cur, batch)
		after := pairDists(Compute(cur, Options{}))
		changed := 0
		for ft, dist := range after {
			if old, ok := before[ft]; !ok || old != dist {
				changed++
			}
		}
		if d.Entries() > 32*changed {
			t.Fatalf("batch %d: %d overlay entries for %d changed pairs (> 32x)", i/4, d.Entries(), changed)
		}
		t.Logf("batch %d: %d overlay entries, %d changed pairs", i/4, d.Entries(), changed)
		before = after
	}
}

// TestMergedSourceAdvance is the incremental-merge property: a chain of
// sources advanced batch by batch equals, at every step, both a
// one-shot NewMergedSource over the accumulated delta and Compute over
// the combined graph; an Advance materializes no more tables than the
// batch dirtied and shares the rest with its predecessor; and a source
// is bit-for-bit what it was once later epochs have been built on it.
func TestMergedSourceAdvance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := randomGraph(t, rng, 60, 150, 8, 4)
	baseClosure := Compute(base, Options{})

	type epoch struct {
		src  *MergedSource
		want *Closure
	}
	var chain []epoch
	d, cur := NewDelta(), base
	m := NewMergedSource(base, baseClosure, d)
	for batch := 0; batch < 10; batch++ {
		edges := randomNewEdges(rng, 60, 1+rng.Intn(4), 4)
		g2, err := CombineGraph(cur, edges)
		if err != nil {
			t.Fatal(err)
		}
		cur = g2
		d.AddEdges(cur, edges)
		dirty := len(d.dirty)
		next := m.Advance(cur, d)
		if len(d.dirty) != 0 {
			t.Fatalf("batch %d: Advance left %d tables dirty", batch, len(d.dirty))
		}
		if next.TablesRemerged() > dirty {
			t.Fatalf("batch %d: re-materialized %d tables, batch dirtied %d", batch, next.TablesRemerged(), dirty)
		}
		// Every table Advance did not re-merge is the predecessor's slice.
		shared := 0
		next.Tables(func(alpha, beta int32, entries []Entry) bool {
			if prev := m.Table(alpha, beta); len(prev) > 0 && len(entries) > 0 && &prev[0] == &entries[0] {
				shared++
			}
			return true
		})
		if got := next.NumTables() - shared; got > next.TablesRemerged() {
			t.Fatalf("batch %d: %d tables not shared with the previous epoch, only %d re-merged", batch, got, next.TablesRemerged())
		}
		want := Compute(cur, Options{})
		assertSameSource(t, next, want)
		assertSameSource(t, next, NewMergedSource(cur, baseClosure, d))
		chain = append(chain, epoch{next, want})
		m = next
	}
	for i, ep := range chain {
		if ep.src.Graph().NumEdges() != ep.want.Graph().NumEdges() {
			t.Fatalf("epoch %d: graph changed under a published source", i)
		}
		assertSameSource(t, ep.src, ep.want)
	}
}
