package lazy

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/core"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
	"ktpm/internal/heap"
	"ktpm/internal/query"
	"ktpm/internal/rtg"
	"ktpm/internal/store"
)

// fig4 is the paper's Figure 4 fixture (see core tests).
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
	return g, query.MustParse(g.Labels, "a(b,c(d))")
}

func storeFor(t testing.TB, g *graph.Graph, blockSize int) *store.Store {
	t.Helper()
	c := closure.Compute(g, closure.Options{})
	return store.New(c, blockSize)
}

func TestPaperExample42(t *testing.T) {
	g, q := fig4(t)
	s := storeFor(t, g, 1) // one-edge blocks maximize laziness
	ms := TopK(s, q, 4, Options{})
	wantScores := []int64{3, 4, 5, 6}
	wantC := []int32{4, 5, 2, 3}
	if len(ms) != 4 {
		t.Fatalf("got %d matches, want 4", len(ms))
	}
	for i, m := range ms {
		if m.Score != wantScores[i] {
			t.Fatalf("top-%d score %d, want %d", i+1, m.Score, wantScores[i])
		}
		if m.Nodes[2] != wantC[i] {
			t.Fatalf("top-%d c-node v%d, want v%d", i+1, m.Nodes[2]+1, wantC[i]+1)
		}
	}
}

// TestExample42Laziness verifies the Section 4.2 claim: the top-1 match of
// the Figure 4 instance is computed without loading the incoming edges of
// v3, v4, and v6 (only the b-edge and v5's incoming edge are needed).
func TestExample42Laziness(t *testing.T) {
	g, q := fig4(t)
	s := storeFor(t, g, 1)
	e := New(s, q, Options{})
	m, ok := e.Next()
	if !ok || m.Score != 3 {
		t.Fatalf("top-1 = %v,%v", m, ok)
	}
	// With one-entry blocks the incoming lists hold 1 (v2) + 4 (v7) + 1
	// each (v3..v6) = 9 blocks. The paper's walkthrough loads only
	// (v1,v2) and (v1,v5); the block trigger may additionally prefetch a
	// prefix of v7's list, but the incoming edges of v3, v4 and v6 must
	// stay untouched, so strictly fewer than 7 blocks can have been read.
	cnt := s.Counters()
	if cnt.BlocksRead >= 7 {
		t.Fatalf("top-1 loaded %d blocks, want < 7 (v3/v4/v6 lists untouched)", cnt.BlocksRead)
	}
}

func TestExhaustion(t *testing.T) {
	g, q := fig4(t)
	s := storeFor(t, g, 2)
	e := New(s, q, Options{})
	n := 0
	for {
		if _, ok := e.Next(); !ok {
			break
		}
		n++
	}
	if n != 4 {
		t.Fatalf("exhausted after %d matches, want 4", n)
	}
	if _, ok := e.Next(); ok {
		t.Fatal("Next after exhaustion")
	}
}

// differential compares lazy enumeration against core (Algorithm 1) on the
// same instance, for both bounds and two block sizes.
func differential(t *testing.T, g *graph.Graph, q *query.Tree, k int) {
	t.Helper()
	c := closure.Compute(g, closure.Options{})
	r := rtg.Build(c, q)
	want := core.TopK(r, k)
	for _, bound := range []Bound{TightBound, LooseBound, EdgeAwareBound} {
		for _, bs := range []int{1, 3, 64} {
			s := store.New(c, bs)
			got := TopK(s, q, k, Options{Bound: bound})
			if len(got) != len(want) {
				t.Fatalf("q=%s bound=%d bs=%d: got %d matches, want %d",
					q, bound, bs, len(got), len(want))
			}
			for i := range got {
				if got[i].Score != want[i].Score {
					t.Fatalf("q=%s bound=%d bs=%d: top-%d score %d, want %d",
						q, bound, bs, i+1, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

func TestDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	trials := 0
	for seed := int64(0); seed < 50; seed++ {
		g := gen.ErdosRenyi(25, 90, 5, seed)
		q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 4, DistinctLabels: true, MaxAttempts: 30}, rng)
		if err != nil {
			continue
		}
		differential(t, g, q, 20)
		trials++
	}
	if trials < 20 {
		t.Fatalf("only %d usable trials", trials)
	}
}

func TestDifferentialWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	trials := 0
	for seed := int64(100); seed < 130; seed++ {
		b := graph.NewBuilder()
		n := 20
		for i := 0; i < n; i++ {
			b.AddNode(string(rune('a' + rng.Intn(5))))
		}
		for i := 0; i < 70; i++ {
			u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
			if u != v {
				b.AddWeightedEdge(u, v, int32(1+rng.Intn(4)))
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
		differential(t, g, q, 25)
		trials++
	}
	if trials < 10 {
		t.Fatalf("only %d usable trials", trials)
	}
}

func TestDifferentialDuplicateLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	trials := 0
	for seed := int64(200); seed < 240; seed++ {
		g := gen.ErdosRenyi(18, 60, 3, seed)
		q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 4, DistinctLabels: false, MaxAttempts: 30}, rng)
		if err != nil {
			continue
		}
		differential(t, g, q, 15)
		trials++
	}
	if trials < 10 {
		t.Fatalf("only %d usable trials", trials)
	}
}

func TestDifferentialDeep(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	trials := 0
	for seed := int64(300); seed < 330; seed++ {
		g := gen.ErdosRenyi(40, 150, 8, seed)
		q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 6, DistinctLabels: true, MaxAttempts: 30}, rng)
		if err != nil {
			continue
		}
		differential(t, g, q, 30)
		trials++
	}
	if trials < 5 {
		t.Fatalf("only %d usable trials", trials)
	}
}

func TestDifferentialChildEdges(t *testing.T) {
	// Random graphs with '/' query edges mixed in.
	rng := rand.New(rand.NewSource(55))
	trials := 0
	for seed := int64(400); seed < 440; seed++ {
		g := gen.ErdosRenyi(25, 100, 5, seed)
		q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 4, DistinctLabels: true, MaxWalk: 1, MaxAttempts: 30}, rng)
		if err != nil {
			continue
		}
		// Rebuild the query with every edge as '/' (walk length 1 made
		// every query edge correspond to a direct data edge).
		qs := q.String()
		slashed := ""
		for _, r := range qs {
			if r == '(' || r == ',' {
				slashed += string(r) + "/"
				continue
			}
			slashed += string(r)
		}
		// Undo doubled markers like "(/" + existing none; parse fresh.
		q2, err := query.Parse(g.Labels, fixSlashes(slashed))
		if err != nil {
			t.Fatalf("slashed parse %q: %v", slashed, err)
		}
		differential(t, g, q2, 15)
		trials++
	}
	if trials < 10 {
		t.Fatalf("only %d usable trials", trials)
	}
}

func fixSlashes(s string) string {
	out := make([]rune, 0, len(s))
	var prev rune
	for _, r := range s {
		if r == '/' && prev == '/' {
			continue
		}
		out = append(out, r)
		prev = r
	}
	return string(out)
}

func TestSingleNodeQuery(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("a")
	b.AddNode("a")
	b.AddNode("b")
	b.AddEdge(0, 2)
	g, _ := b.Build()
	s := storeFor(t, g, 4)
	ms := TopK(s, query.MustParse(g.Labels, "a"), 5, Options{})
	if len(ms) != 2 || ms[0].Score != 0 || ms[1].Score != 0 {
		t.Fatalf("single-node query: %v", ms)
	}
}

func TestNoMatches(t *testing.T) {
	b := graph.NewBuilder()
	b.AddNode("a")
	b.AddNode("b")
	g, _ := b.Build()
	s := storeFor(t, g, 4)
	if ms := TopK(s, query.MustParse(g.Labels, "a(b)"), 5, Options{}); len(ms) != 0 {
		t.Fatalf("matches on edgeless graph: %v", ms)
	}
}

// TestBoundOrderingOnLoads is the A3/A5 invariant: a stronger bound never
// loads more blocks — edge-aware ≤ tight ≤ loose.
func TestBoundOrderingOnLoads(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	checked := 0
	for seed := int64(500); seed < 540; seed++ {
		g := gen.PowerLaw(gen.PowerLawConfig{Nodes: 400, Labels: 15, Seed: seed})
		q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 5, DistinctLabels: true, MaxAttempts: 30}, rng)
		if err != nil {
			continue
		}
		c := closure.Compute(g, closure.Options{})
		blocks := map[Bound]int64{}
		for _, bound := range []Bound{LooseBound, TightBound, EdgeAwareBound} {
			s := store.New(c, 8)
			TopK(s, q, 10, Options{Bound: bound})
			blocks[bound] = s.Counters().BlocksRead
		}
		if blocks[TightBound] > blocks[LooseBound] {
			t.Fatalf("seed %d: tight loaded %d blocks, loose %d",
				seed, blocks[TightBound], blocks[LooseBound])
		}
		if blocks[EdgeAwareBound] > blocks[TightBound] {
			t.Fatalf("seed %d: edge-aware loaded %d blocks, tight %d",
				seed, blocks[EdgeAwareBound], blocks[TightBound])
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d usable instances", checked)
	}
}

// TestLazyLoadsFraction verifies the headline behaviour: on a larger
// instance Topk-EN touches a small fraction of the stored closure edges.
func TestLazyLoadsFraction(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{Nodes: 2000, Labels: 40, Seed: 60})
	rng := rand.New(rand.NewSource(61))
	q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 6, DistinctLabels: true}, rng)
	if err != nil {
		t.Skip("no query")
	}
	c := closure.Compute(g, closure.Options{})
	s := store.New(c, 16)
	ms := TopK(s, q, 20, Options{})
	if len(ms) == 0 {
		t.Skip("no matches")
	}
	loaded := s.Counters().EntriesRead
	total := s.TotalEdges()
	if loaded >= total/2 {
		t.Fatalf("lazy loading touched %d of %d entries; expected far less", loaded, total)
	}
}

func TestStatsAndEmitted(t *testing.T) {
	g, q := fig4(t)
	s := storeFor(t, g, 2)
	e := New(s, q, Options{})
	e.Next()
	e.Next()
	if e.Emitted() != 2 {
		t.Fatalf("Emitted = %d", e.Emitted())
	}
	st := e.ComputeStats()
	if st.CreatedNodes == 0 || st.ActiveNodes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ActiveNodes > st.CreatedNodes {
		t.Fatalf("active %d > created %d", st.ActiveNodes, st.CreatedNodes)
	}
}

// TestPoolCostAcrossK pins Topk-EN's per-round cost on a k axis. The
// candidates the pending pool touches (parks plus re-scores) stay within
// 3·n_T per emitted match at k = 10², 10³ and 10⁴, where a pool rescanned
// on every emission touches more per match the larger k grows; and the
// whole round — Qg operations, child-list operations, nodes created and
// candidates touched — stays within c·(n_T + ⌈log₂ k⌉) per match, the
// paper's per-round bound. It also pins what neither the pool nor the
// enumerator's reuse may move: the emitted scores equal Algorithm 1's,
// and the canonical answer and the store reads behind it (Algorithm 2's
// loading), enumerated by a released and reused enumerator, equal a
// table recorded from the full-rescan pool before enumerators were
// pooled.
func TestPoolCostAcrossK(t *testing.T) {
	// roundWorkC is c in the whole round's bound. The largest measured
	// work is 2.9·(n_T + ⌈log₂ k⌉) per match, at k = 10², where loading
	// the run-time graph is not yet amortized; at k = 10⁴ it is 0.3–0.9.
	const roundWorkC = 4
	g := gen.Citation(gen.CitationConfig{Nodes: 400, Venues: 12, Window: 50, Communities: 4, Seed: 13})
	c := closure.Compute(g, closure.Options{})
	qs, err := gen.QuerySet(g, 6, 5, true, 7)
	if err != nil || len(qs) != 6 {
		t.Fatalf("query set: %d queries, err %v", len(qs), err)
	}
	ks := []int{100, 1000, 10000}
	type canon struct {
		entries, blocks, tables int64
		digest                  uint64 // FNV-64a of each match's score and nodes
	}
	want := [6][3]canon{
		{{959, 91, 6, 0x98a84313d09835d3}, {967, 94, 6, 0x166fc713369976ed}, {967, 94, 6, 0x166fc713369976ed}},
		{{1249, 111, 7, 0x114063cc2077616e}, {1450, 143, 7, 0xc3ff69b89ac5a535}, {1547, 154, 7, 0xbd7244d731ee1ed2}},
		{{652, 73, 7, 0x5342c55bb133d5cb}, {659, 78, 7, 0x7c061321c4e10aff}, {669, 88, 7, 0x19a4e23fec4eaf1b}},
		{{390, 44, 5, 0xfb50660e2138368e}, {531, 63, 5, 0x639a36a748891543}, {548, 65, 5, 0xe1239cbb7078d3d5}},
		{{796, 54, 7, 0x245533b39678b42b}, {1333, 95, 7, 0x467484c00b3621cb}, {2371, 189, 7, 0xd4818df8045d7d88}},
		{{1133, 105, 7, 0x7a122c28c9802f1a}, {1239, 123, 7, 0x8ec2011b3e4c1644}, {1415, 152, 7, 0x4fd6e9d7ef52d459}},
	}
	for qi, q := range qs {
		ref := core.TopK(rtg.Build(c, q), ks[len(ks)-1])
		nT := q.NumNodes()
		for ki, k := range ks {
			e := New(store.New(c, 16), q, Options{})
			n := 0
			for ; n < k; n++ {
				m, ok := e.Next()
				if !ok {
					break
				}
				if m.Score != ref[n].Score {
					t.Fatalf("q%d k=%d: match %d scores %d, Algorithm 1 %d", qi, k, n, m.Score, ref[n].Score)
				}
			}
			if n != min(k, len(ref)) {
				t.Fatalf("q%d k=%d: %d matches, Algorithm 1 %d", qi, k, n, min(k, len(ref)))
			}
			st := e.ComputeStats()
			if st.CandidatesTouched > 3*nT*n {
				t.Errorf("q%d k=%d: %d candidates touched for %d matches, want ≤ 3·n_T = %d per match",
					qi, k, st.CandidatesTouched, n, 3*nT)
			}
			work := st.QgOps + st.ListOps + st.CreatedNodes + st.CandidatesTouched
			perRound := nT + bits.Len(uint(k-1)) // n_T + ⌈log₂ k⌉
			if work > roundWorkC*perRound*n {
				t.Errorf("q%d k=%d: %d operations (Qg %d, lists %d, nodes %d, candidates %d) for %d matches, want ≤ %d·(n_T + ⌈log₂ k⌉) = %d per match",
					qi, k, work, st.QgOps, st.ListOps, st.CreatedNodes, st.CandidatesTouched, n, roundWorkC, roundWorkC*perRound)
			}
			e.Release() // the canonical run below reuses it
			s := store.New(c, 16)
			h := fnv.New64a()
			for _, m := range TopKCanonical(s, q, k, Options{}) {
				fmt.Fprint(h, m.Score, m.Nodes, ";")
			}
			cnt := s.Counters()
			if got := (canon{cnt.EntriesRead, cnt.BlocksRead, cnt.TablesRead, h.Sum64()}); got != want[qi][ki] {
				t.Errorf("q%d k=%d: canonical run %+v, recorded %+v", qi, k, got, want[qi][ki])
			}
		}
	}
}

// TestPoolSkipsRaisedScore pins the pool's stale-entry rule for a parked
// score that rises: an Insert below the candidate's exclusion point can
// widen the gap Kth(excl) − Kth(excl−1), and the candidate's earlier,
// lower pool entry must then not promote it past the Qg top.
func TestPoolSkipsRaisedScore(t *testing.T) {
	g, _ := fig4(t)
	e := &Enumerator{
		q:      query.MustParse(g.Labels, "a(b)"),
		pos:    make([]qpos, 2),
		nodes:  []*laNode{{lists: make([]heap.ChildList, 1)}},
		groups: make([]group, 1),
	}
	list := &e.nodes[0].lists[0]
	for _, k := range []int64{0, 5, 6} {
		list.Insert(heap.Entry{Key: k})
	}
	e.qg.Push(0, 10)
	c := e.newCandidate(&Match{Score: 10, gids: []int32{0, 0}}, 1, 2)
	e.park(c) // 10 + Kth(2) − Kth(1) = 10 + 6 − 5
	e.recheckPending()
	if c.score != 11 || e.queue.Len() != 0 {
		t.Fatalf("parked with Qg top 10: score %d (want 11), queue %d", c.score, e.queue.Len())
	}
	list.Insert(heap.Entry{Key: 1}) // [0 1 5 6]: 10 + 5 − 1
	e.listChanged(list)
	e.qg.Update(0, 12)
	e.recheckPending()
	if c.score != 14 || e.queue.Len() != 0 {
		t.Fatalf("re-scored with Qg top 12: score %d (want 14), queue %d", c.score, e.queue.Len())
	}
	e.qg.Pop()
	e.recheckPending()
	if e.queue.Len() != 1 || e.queue.Peek().Key != 14 {
		t.Fatalf("Qg exhausted: queue %d, want the candidate at 14", e.queue.Len())
	}
}

func TestScoresNonDecreasing(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for seed := int64(600); seed < 615; seed++ {
		g := gen.ErdosRenyi(30, 120, 6, seed)
		q, err := gen.ExtractQuery(g, gen.QueryConfig{Size: 5, DistinctLabels: true, MaxAttempts: 30}, rng)
		if err != nil {
			continue
		}
		s := storeFor(t, g, 2)
		e := New(s, q, Options{})
		prev := int64(-1)
		for {
			m, ok := e.Next()
			if !ok {
				break
			}
			if m.Score < prev {
				t.Fatalf("seed %d: score %d after %d", seed, m.Score, prev)
			}
			prev = m.Score
		}
	}
}

// TestResetReuse runs queries back to back on one enumerator, reset
// between them, and requires each to answer exactly as a fresh
// enumerator does, with the same store reads; and requires a reset
// enumerator to hold no reference into the query it served and to leave
// every dense-index slot zero, which is what lets reset skip the slots
// the query never wrote.
func TestResetReuse(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{Nodes: 300, AvgOutDegree: 4, Labels: 12, Window: 40, Communities: 4, Seed: 5})
	c := closure.Compute(g, closure.Options{})
	var qs []*query.Tree
	for size := 2; size <= 8; size += 2 {
		set, err := gen.QuerySet(g, 3, size, true, int64(size))
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, set...)
	}
	for _, s := range []string{"L000(*)", "*(L001,L002)", "L003(*(L004))", "*", "L005"} {
		qs = append(qs, query.MustParse(g.Labels, s))
	}
	drain := func(e *Enumerator) (out []Match) {
		for len(out) < 60 {
			m, ok := e.Next()
			if !ok {
				break
			}
			out = append(out, Match{Nodes: append([]int32(nil), m.Nodes...), Score: m.Score})
		}
		return out
	}
	reused := new(Enumerator)
	answered := 0
	for round := 0; round < 2; round++ {
		for qi, q := range qs {
			for _, bound := range []Bound{TightBound, EdgeAwareBound} {
				fresh, sFresh := new(Enumerator), store.New(c, 4)
				fresh.init(sFresh, q, Options{Bound: bound})
				want := drain(fresh)
				sReused := store.New(c, 4)
				reused.init(sReused, q, Options{Bound: bound})
				got := drain(reused)
				if len(got) > 0 {
					answered++
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("round %d q%d %s: reused enumerator answered\n%v\nfresh\n%v", round, qi, q, got, want)
				}
				if sReused.Counters() != sFresh.Counters() {
					t.Fatalf("round %d q%d %s: reused read %+v, fresh %+v", round, qi, q, sReused.Counters(), sFresh.Counters())
				}
				reused.reset()
				if reused.s != nil || reused.q != nil || reused.g != nil || reused.opt.RootFilter != nil || reused.opt.Trace != nil {
					t.Fatalf("q%d: reset kept a reference to the query it served", qi)
				}
				for u, p := range reused.pos[:cap(reused.pos)] {
					for i, sl := range p.slots[:cap(p.slots)] {
						if sl != (slot{}) {
							t.Fatalf("q%d: reset left position %d slot %d = %+v", qi, u, i, sl)
						}
					}
				}
			}
		}
	}
	if answered < 2*len(qs) {
		t.Fatalf("only %d of %d runs found matches", answered, 4*len(qs))
	}
}
