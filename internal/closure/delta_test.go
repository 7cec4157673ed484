package closure

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

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

// TestCheckpointStreamsColumns pins what a Live's compaction writes: a
// MergedSource over a lazy or mmap snapshot checkpoints byte-identically
// to the from-scratch closure of the combined graph, and the write
// streams every table the splice left alone from the snapshot's columns,
// so the snapshot's row cache holds only tables the splice read (the
// ones its log named) and the write adds none to it.
func TestCheckpointStreamsColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	base := gen.ErdosRenyi(300, 270, 30, 41)
	path := t.TempDir() + "/base.snap"
	if err := writeSnapshotFile(path, Compute(base, Options{})); err != nil {
		t.Fatal(err)
	}
	edges := randomNewEdges(rng, 300, 2, 1)
	g2, err := CombineGraph(base, edges)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteSnapshot(&want, Compute(g2, Options{})); err != nil {
		t.Fatal(err)
	}
	rowCached := func(s *Snapshot) (n int) {
		for i := range s.tabs {
			if s.tabs[i].Load() != nil {
				n++
			}
		}
		return n
	}
	for _, mode := range []SnapMode{SnapLazy, SnapMMap} {
		snap, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDelta()
		d.AddEdges(g2, edges)
		named := map[[2]int32]bool{}
		for _, c := range d.log {
			a, b := c.labels()
			named[[2]int32{a, b}] = true
		}
		m := NewMergedSource(base, snap, NewDelta()).Advance(g2, d)
		spliced := rowCached(snap)
		var got bytes.Buffer
		if err := WriteSnapshot(&got, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%v: checkpoint of the merged source differs from the snapshot of Compute(g)", mode)
		}
		if n := rowCached(snap); n != spliced {
			t.Fatalf("%v: the write cached %d more tables as rows", mode, n-spliced)
		}
		for i := range snap.dir {
			if k := [2]int32{snap.dir[i].alpha, snap.dir[i].beta}; snap.tabs[i].Load() != nil && !named[k] {
				t.Fatalf("%v: table %v is cached as rows, but the splice never read it", mode, k)
			}
		}
		if int(snap.TablesLoaded()) != snap.NumTables() {
			t.Fatalf("%v: the write faulted %d of %d tables", mode, snap.TablesLoaded(), snap.NumTables())
		}
		t.Logf("%v: %d of %d tables cached as rows, %d named by the log", mode, spliced, snap.NumTables(), len(named))
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
		// noop: the last batch must log no candidate.
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
				before := len(d.log)
				d.AddEdges(cur, edges)
				assertSameSource(t, NewMergedSource(cur, baseClosure, d), Compute(cur, Options{}))
				if tc.noop && i == len(tc.batches)-1 && len(d.log) != before {
					t.Fatalf("edges that shorten nothing grew the log %d -> %d", before, len(d.log))
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

// loggedPairs counts the distinct (from, to) pairs in d's log.
func loggedPairs(d *Delta) int {
	seen := map[fromTo]bool{}
	for _, c := range d.log {
		seen[fromTo{c.from, c.to()}] = true
	}
	return len(seen)
}

// TestDeltaTightness bounds the log by what a batch really changed: on
// a seeded power-law graph, the candidates a batch logs stay within 32×
// the pairs whose distance differs between the closures before and
// after it, and the Advance that splices them adds their distinct pairs
// to Entries. (The cross product of everything reaching u with
// everything v reaches, which AddEdges used to record, is ~300× here.)
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
	prev := Compute(cur, Options{})
	before := pairDists(prev)
	for i := 0; i+4 <= len(held); i += 4 {
		batch := held[i : i+4]
		g2, err := CombineGraph(cur, batch)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDelta()
		d.AddEdges(g2, batch)
		logged, pairs := len(d.log), loggedPairs(d)
		next := NewMergedSource(cur, prev, NewDelta()).Advance(g2, d)
		cur, prev = g2, Compute(g2, Options{})
		assertSameSource(t, next, prev)
		after := pairDists(prev)
		changed := 0
		for ft, dist := range after {
			if old, ok := before[ft]; !ok || old != dist {
				changed++
			}
		}
		if logged > 32*changed {
			t.Fatalf("batch %d: %d candidates logged for %d changed pairs (> 32x)", i/4, logged, changed)
		}
		if d.Entries() != pairs || pairs < changed {
			t.Fatalf("batch %d: Entries = %d for %d logged pairs, %d changed", i/4, d.Entries(), pairs, changed)
		}
		t.Logf("batch %d: %d candidates logged, %d changed pairs", i/4, logged, changed)
		before = after
	}
}

// advanceBatch draws one batch for TestMergedSourceAdvance over the
// nodes [0, n): random edges, plus by turns a pair repeated within the
// batch, an edge that shortens nothing (weight at least the pair's
// current distance) and an equal-weight parallel of an edge g has.
func advanceBatch(rng *rand.Rand, g *graph.Graph, c *Closure, n, epoch int) []graph.Edge {
	edges := randomNewEdges(rng, n, 1+rng.Intn(3), 4)
	switch epoch % 4 {
	case 1:
		e := edges[0]
		edges = append(edges, graph.Edge{From: e.From, To: e.To, Weight: 1 + rng.Int31n(4)}, e)
	case 2:
		for tries := 0; tries < 100; tries++ {
			u := int32(rng.Intn(n))
			tab := c.Table(g.Label(u), g.Label(int32(rng.Intn(n))))
			if len(tab) == 0 {
				continue
			}
			e := tab[rng.Intn(len(tab))]
			edges = append(edges, graph.Edge{From: e.From, To: e.To, Weight: e.Dist + rng.Int31n(2)})
			break
		}
	case 3:
		var all []graph.Edge
		g.Edges(func(e graph.Edge) bool {
			if e.From < int32(n) && e.To < int32(n) {
				all = append(all, e)
			}
			return true
		})
		edges = append(edges, all[rng.Intn(len(all))])
	}
	return edges
}

// TestMergedSourceAdvance is the incremental-merge property, over 48
// epochs of batches that include pairs repeated within a batch, edges
// that shorten nothing and equal-weight parallels, rebased midway onto
// a fresh snapshot of the closure as a compaction does: every epoch
// equals Compute over its graph, and equals a one-shot NewMergedSource
// over a Delta that logged every batch since the rebase; an Advance
// materializes only tables its batch logged candidates in and shares
// the rest with its predecessor; Entries grows by the distinct pairs
// the batch logged, never fewer than it changed; and a source is
// bit-for-bit what it was once later epochs have been built on it.
func TestMergedSourceAdvance(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(23))
	base := randomGraph(t, rng, n, 150, 8, 4)
	var baseClosure TableSource = Compute(base, Options{})

	type epoch struct {
		src  *MergedSource
		want *Closure
	}
	var chain []epoch
	d, all, cur := NewDelta(), NewDelta(), base
	m := NewMergedSource(base, baseClosure, d)
	prev := Compute(base, Options{})
	for batch := 0; batch < 48; batch++ {
		if batch == 24 {
			// Rebase as compaction does: the epoch written out and
			// reopened is the new base, and a fresh Delta starts.
			path := t.TempDir() + "/gen.snap"
			if err := writeSnapshotFile(path, m); err != nil {
				t.Fatal(err)
			}
			snap, err := OpenSnapshotFile(path, SnapLazy)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			baseClosure, d, all = snap, NewDelta(), NewDelta()
			m = NewMergedSource(snap.Graph(), snap, d)
			cur = snap.Graph()
			assertSameSource(t, m, prev)
		}
		edges := advanceBatch(rng, cur, prev, n, batch)
		g2, err := CombineGraph(cur, edges)
		if err != nil {
			t.Fatal(err)
		}
		cur = g2
		d.AddEdges(cur, edges)
		all.AddEdges(cur, edges)
		logged := map[pairKey]bool{}
		for _, c := range d.log {
			a, b := c.labels()
			logged[pairKey{a, b}] = true
		}
		entries, pairs := d.Entries(), loggedPairs(d)
		next := m.Advance(cur, d)
		if len(d.log) != 0 {
			t.Fatalf("batch %d: Advance left %d candidates logged", batch, len(d.log))
		}
		if next.TablesRemerged() > len(logged) {
			t.Fatalf("batch %d: re-materialized %d tables, batch logged candidates in %d", batch, next.TablesRemerged(), len(logged))
		}
		// Every table Advance did not re-merge is the predecessor's slice.
		shared := 0
		next.Tables(func(alpha, beta int32, entries []Entry) bool {
			if prev := m.Table(alpha, beta); len(prev) > 0 && len(entries) > 0 && &prev[0] == &entries[0] {
				shared++
			} else if !logged[pairKey{alpha, beta}] {
				t.Fatalf("batch %d: table (%d,%d) changed without a candidate", batch, alpha, beta)
			}
			return true
		})
		if got := next.NumTables() - shared; got > next.TablesRemerged() {
			t.Fatalf("batch %d: %d tables not shared with the previous epoch, only %d re-merged", batch, got, next.TablesRemerged())
		}
		want := Compute(cur, Options{})
		assertSameSource(t, next, want)
		assertSameSource(t, NewMergedSource(cur, baseClosure, all), want)
		changed := 0
		old := pairDists(prev)
		for ft, dist := range pairDists(want) {
			if o, ok := old[ft]; !ok || o != dist {
				changed++
			}
		}
		if got := d.Entries() - entries; got != pairs || got < changed {
			t.Fatalf("batch %d: Entries grew by %d for %d logged pairs, %d changed", batch, got, pairs, changed)
		}
		chain = append(chain, epoch{next, want})
		m, prev = next, want
	}
	for i, ep := range chain {
		if ep.src.Graph().NumEdges() != ep.want.Graph().NumEdges() {
			t.Fatalf("epoch %d: graph changed under a published source", i)
		}
		assertSameSource(t, ep.src, ep.want)
	}
}

// TestAdvanceCostGuard is the count-based (no wall clock) guard on what
// one epoch costs: after 30 epochs have merged hundreds of tables, an
// Advance whose batch dirties one table allocates what that table and
// one path of the merged-table index take, no more than the same
// Advance over a fresh chain with nothing merged. An epoch that
// rebuilt each touched table from the base, or cloned the index of
// merged tables, would fail it.
func TestAdvanceCostGuard(t *testing.T) {
	const n, labels = 300, 30
	rng := rand.New(rand.NewSource(31))
	// Nodes p and q stay isolated until the last batch adds p → q, whose
	// only candidate is (p, q) itself.
	p, q := int32(n-2), int32(n-1)
	strip := func(edges []graph.Edge) []graph.Edge {
		out := edges[:0]
		for _, e := range edges {
			if e.From != p && e.From != q && e.To != p && e.To != q {
				out = append(out, e)
			}
		}
		return out
	}
	b := graph.NewBuilder()
	for v := 0; v < n; v++ {
		b.AddNode(fmt.Sprintf("L%d", v%labels))
	}
	for _, e := range strip(randomNewEdges(rng, n, 900, 3)) {
		b.AddWeightedEdge(e.From, e.To, e.Weight)
	}
	base, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	baseClosure := Compute(base, Options{})

	d, cur := NewDelta(), base
	m := NewMergedSource(base, baseClosure, d)
	for epoch := 0; epoch < 30; epoch++ {
		edges := strip(randomNewEdges(rng, n, 6, 3))
		if cur, err = CombineGraph(cur, edges); err != nil {
			t.Fatal(err)
		}
		d.AddEdges(cur, edges)
		m = m.Advance(cur, d)
	}
	merged := 0
	m.Tables(func(alpha, beta int32, entries []Entry) bool {
		if len(entries) > 0 && (baseClosure.TableLen(alpha, beta) == 0 || &entries[0] != &baseClosure.Table(alpha, beta)[0]) {
			merged++
		}
		return true
	})
	if merged < 300 {
		t.Fatalf("30 epochs merged only %d tables; the guard needs many", merged)
	}

	last := []graph.Edge{{From: p, To: q, Weight: 1}}
	final, err := CombineGraph(cur, last)
	if err != nil {
		t.Fatal(err)
	}
	key := pairKey{final.Label(p), final.Label(q)}
	advanceBytes := func(m *MergedSource, d *Delta) (uint64, *MergedSource) {
		d.AddEdges(final, last)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		next := m.Advance(final, d)
		runtime.ReadMemStats(&after)
		if got := next.TablesRemerged(); got != 1 {
			t.Fatalf("the last batch re-merged %d tables, want 1", got)
		}
		return after.TotalAlloc - before.TotalAlloc, next
	}
	chained, next := advanceBytes(m, d)
	fresh, _ := advanceBytes(NewMergedSource(cur, Compute(cur, Options{}), NewDelta()), NewDelta())
	table := uint64(len(next.Table(key.a, key.b))) * uint64(unsafe.Sizeof(Entry{}))
	// The new table, the index path (three nodes at 30 labels) and the
	// source itself.
	limit := table + 3*uint64(unsafe.Sizeof(indexNode{})) + 1024
	t.Logf("one-table Advance after %d merged tables: %d B (fresh chain %d B, table %d B)", merged, chained, fresh, table)
	if chained > limit {
		t.Fatalf("one-table Advance after %d merged tables allocated %d B, want <= %d (table %d B)", merged, chained, limit, table)
	}
	if chained > fresh+512 {
		t.Fatalf("one-table Advance allocated %d B after %d merged tables, %d B with none", chained, merged, fresh)
	}
}
