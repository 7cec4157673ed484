package lazy

import (
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/core"
	"ktpm/internal/gen"
	"ktpm/internal/query"
	"ktpm/internal/rtg"
	"ktpm/internal/store"
)

// splitSources splits q's match space n ways by root binding (v mod n),
// drains each slice from a root-filtered enumerator, and hands it to the
// merge as a source, plus one source that is empty from the start.
func splitSources(c *closure.Closure, q *query.Tree, n int) []Source {
	srcs := make([]Source, 0, n+1)
	for i := 0; i < n; i++ {
		e := New(store.New(c, 4), q, Options{RootFilter: func(v int32) bool { return int(v)%n == i }})
		src := &drained{}
		for {
			m, ok := e.Next()
			if !ok {
				break
			}
			*src = append(*src, m)
		}
		srcs = append(srcs, src)
	}
	return append(srcs, &drained{})
}

// drained is a Source over matches already in score order.
type drained []*Match

func (d *drained) Next() (*Match, bool) {
	if len(*d) == 0 {
		return nil, false
	}
	x := (*d)[0]
	*d = (*d)[1:]
	return x, true
}

// TestMergeMatchesOracle checks the one merge against the brute-force
// oracle (rtg.Build → core.BruteForce → canonical order) over sources of
// every shape the merge serves: N ∈ {1, 2, 4, 7} root-filtered
// enumerators plus an empty source. The graph has unit weights,
// so tie groups dwarf k and TopK's 2k+64 compaction runs. TopK(k) and
// Next drained to k must both be the oracle's canonical prefix, and the
// merge must take exactly the matches scoring at or below the k-th score.
func TestMergeMatchesOracle(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{
		Nodes: 120, AvgOutDegree: 3, Labels: 5,
		Window: 20, Communities: 2, MaxWeight: 1, Seed: 7,
	})
	c := closure.Compute(g, closure.Options{})
	qs, err := gen.QuerySet(g, 3, 3, false, 11)
	if err != nil {
		t.Fatal(err)
	}
	compacted := false
	for qi, q := range qs {
		var want []*Match
		for _, m := range core.BruteForce(rtg.Build(c, q), 0) {
			want = append(want, &Match{Nodes: m.Nodes, Score: m.Score})
		}
		want = canonicalize(want, len(want))
		for _, n := range []int{1, 2, 4, 7} {
			for _, k := range []int{1, 7, 60, len(want) + 3} {
				wantK := want[:min(k, len(want))]
				m := NewMerge(splitSources(c, q, n))
				sameMatches(t, m.TopK(k), wantK, "q%d n=%d k=%d TopK", qi, n, k)
				taken := 0
				for i := 0; i <= n; i++ {
					taken += m.Taken(i)
				}
				atOrBelow := len(want)
				if len(wantK) > 0 {
					atOrBelow = 0
					for _, w := range want {
						if w.Score <= wantK[len(wantK)-1].Score {
							atOrBelow++
						}
					}
				}
				if taken != atOrBelow {
					t.Fatalf("q%d n=%d k=%d: merge took %d matches, %d score at or below the k-th",
						qi, n, k, taken, atOrBelow)
				}
				compacted = compacted || taken >= 2*k+64

				m = NewMerge(splitSources(c, q, n))
				var streamed []*Match
				for len(streamed) < k {
					x, ok := m.Next()
					if !ok {
						break
					}
					streamed = append(streamed, x)
				}
				sameMatches(t, streamed, wantK, "q%d n=%d k=%d Next", qi, n, k)
			}
		}
	}
	if !compacted {
		t.Fatal("no case gathered 2k+64 matches; the compaction path went untested")
	}
}

func sameMatches(t *testing.T, got, want []*Match, format string, args ...any) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf(format+": %d matches, want %d", append(args, len(got), len(want))...)
	}
	for i := range want {
		if Less(got[i], want[i]) || Less(want[i], got[i]) {
			t.Fatalf(format+": match %d is %d%v, want %d%v",
				append(args, i, got[i].Score, got[i].Nodes, want[i].Score, want[i].Nodes)...)
		}
	}
}
