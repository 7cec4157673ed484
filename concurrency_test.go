package ktpm

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// randomDatabase builds a deterministic pseudo-random labeled DAG-ish
// graph large enough that concurrent queries overlap inside the store's
// lazy table caches.
func randomDatabase(t testing.TB, n int, seed int64) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d", "e"}
	gb := NewGraphBuilder()
	ids := make([]int32, n)
	for i := 0; i < n; i++ {
		ids[i] = gb.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 1; i < n; i++ {
		// A few forward edges per node keep everything reachable enough
		// for multi-level queries without blowing up the closure.
		for e := 0; e < 3; e++ {
			from := ids[rng.Intn(i)]
			gb.AddWeightedEdge(from, ids[i], int32(1+rng.Intn(3)))
		}
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildDatabase(g, DatabaseOptions{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestConcurrentTopKSharedDatabase runs many TopK calls in parallel
// against one shared Database and checks each result against a
// sequentially computed golden answer. Run with -race (CI does) to
// surface shared-mutation bugs in the store's lazy caches, the wildcard
// merge path, and the label interner.
func TestConcurrentTopKSharedDatabase(t *testing.T) {
	db := randomDatabase(t, 300, 42)
	queries := []string{"a(b)", "a(b,c)", "b(c(d))", "a(*,c)", "*(b)", "a(/b)", "c(d,e)"}
	const k = 12

	type golden struct {
		scores []int64
	}
	want := make(map[string]golden)
	for _, qs := range queries {
		q, err := db.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := db.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		g := golden{scores: make([]int64, len(ms))}
		for i, m := range ms {
			g.scores[i] = m.Score
		}
		want[qs] = g
	}

	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qs := queries[(w+i)%len(queries)]
				// Parse inside the goroutine: the parser interns labels
				// into the shared interner concurrently.
				q, err := db.ParseQuery(qs)
				if err != nil {
					t.Errorf("worker %d: parse %q: %v", w, qs, err)
					return
				}
				ms, err := db.TopK(q, k)
				if err != nil {
					t.Errorf("worker %d: %q: %v", w, qs, err)
					return
				}
				g := want[qs]
				if len(ms) != len(g.scores) {
					t.Errorf("worker %d: %q returned %d matches, want %d", w, qs, len(ms), len(g.scores))
					return
				}
				for j, m := range ms {
					if m.Score != g.scores[j] {
						t.Errorf("worker %d: %q match %d score %d, want %d", w, qs, j, m.Score, g.scores[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	// Counters stayed coherent under the concurrent load.
	io := db.IOStats()
	if io.EntriesRead < io.TableEntriesRead {
		t.Errorf("I/O counters inconsistent: EntriesRead %d < TableEntriesRead %d", io.EntriesRead, io.TableEntriesRead)
	}
}

// TestConcurrentStreamsAndExplain interleaves incremental Stream
// consumers with Explain and parse-time interning of query-only labels,
// all against one Database.
func TestConcurrentStreamsAndExplain(t *testing.T) {
	db := randomDatabase(t, 200, 7)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			switch w % 3 {
			case 0:
				q, err := db.ParseQuery("a(b,c)")
				if err != nil {
					t.Error(err)
					return
				}
				st := db.Stream(q)
				var last int64
				for i := 0; i < 20; i++ {
					m, ok := st.Next()
					if !ok {
						break
					}
					if m.Score < last {
						t.Errorf("stream scores regressed: %d after %d", m.Score, last)
						return
					}
					last = m.Score
				}
			case 1:
				q, err := db.ParseQuery("b(c(d))")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Explain(q); err != nil {
					t.Error(err)
				}
			case 2:
				// Interning a label the graph has never seen exercises the
				// interner's write path while readers resolve names.
				qs := fmt.Sprintf("a(zz_%d)", w)
				q, err := db.ParseQuery(qs)
				if err != nil {
					t.Error(err)
					return
				}
				ms, err := db.TopK(q, 5)
				if err != nil {
					t.Error(err)
					return
				}
				if len(ms) != 0 {
					t.Errorf("query %q with unknown label returned %d matches", qs, len(ms))
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestParseQueryDoesNotGrowGraphInterner guards the daemon's memory
// bound: query strings full of never-seen labels must not leave anything
// behind in the shared graph interner (they parse into a per-query
// overlay instead).
func TestParseQueryDoesNotGrowGraphInterner(t *testing.T) {
	db := paperFig1(t)
	before := db.g.Labels.Len()
	for i := 0; i < 100; i++ {
		qs := fmt.Sprintf("C(attacker_%d(E),junk_%d)", i, i)
		q, err := db.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		// The overlay still resolves names for rendering and execution.
		if q.Canonical() == "" {
			t.Fatal("canonical form empty")
		}
		ms, err := db.TopK(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) != 0 {
			t.Fatalf("unknown-label query %q matched %d times", qs, len(ms))
		}
	}
	if after := db.g.Labels.Len(); after != before {
		t.Fatalf("graph interner grew from %d to %d labels", before, after)
	}
	// Known-label queries still work after the hostile traffic.
	q, err := db.ParseQuery("C(E,S)")
	if err != nil {
		t.Fatal(err)
	}
	ms, err := db.TopK(q, 5)
	if err != nil || len(ms) == 0 || ms[0].Score != 2 {
		t.Fatalf("known query broken after overlay parses: %v, %d matches", err, len(ms))
	}
}

func TestQueryCanonical(t *testing.T) {
	db := paperFig1(t)
	cases := []struct {
		in, want string
	}{
		{"C(E,S)", "C(E,S)"},
		{"C(S,E)", "C(E,S)"},
		{"C(S,/E)", "C(/E,S)"},
		{"C(S(E,C),E(/C,S))", "C(E(/C,S),S(C,E))"},
		{"C", "C"},
		{"*(S,E)", "*(E,S)"},
	}
	for _, c := range cases {
		q, err := db.ParseQuery(c.in)
		if err != nil {
			t.Fatalf("parse %q: %v", c.in, err)
		}
		if got := q.Canonical(); got != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.want)
		}
		// The canonical form is a fixed point: parsing it and
		// canonicalizing again must not change it.
		qc, err := db.ParseQuery(q.Canonical())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.Canonical(), err)
		}
		if got := qc.Canonical(); got != c.want {
			t.Errorf("Canonical not a fixed point: %q -> %q", c.want, got)
		}
	}
}
