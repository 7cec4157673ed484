package lazy

import (
	"slices"
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/core"
	"ktpm/internal/gen"
	"ktpm/internal/query"
	"ktpm/internal/rtg"
	"ktpm/internal/store"
)

// shuffledTies is a Source over matches in score order whose equal-
// score groups are each reversed, so the merge, not the source, must
// put ties into canonical order.
func shuffledTies(c *closure.Closure, q *query.Tree) Source {
	e := New(store.New(c, 4), q, Options{})
	var all drained
	for {
		m, ok := e.Next()
		if !ok {
			break
		}
		all = append(all, m)
	}
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j].Score == all[i].Score {
			j++
		}
		slices.Reverse(all[i:j])
		i = j
	}
	return &all
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

// TestMergeMatchesOracle checks the merge against the brute-force oracle
// (rtg.Build → core.BruteForce → canonical order) over both sources it
// serves — an enumerator as it stands, and one whose tie groups arrive
// reversed — and over an empty source. The graph has unit weights, so
// tie groups dwarf k and TopK's 2k+64 compaction runs. TopK(k) and Next
// drained to k must both be the oracle's canonical prefix, and the merge
// must take exactly the matches scoring at or below the k-th score.
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
	sources := map[string]func(q *query.Tree) Source{
		"enumerator": func(q *query.Tree) Source { return New(store.New(c, 4), q, Options{}) },
		"reversed":   func(q *query.Tree) Source { return shuffledTies(c, q) },
	}
	for _, k := range []int{0, 1, 5} {
		m := NewMerge(&drained{})
		if got := m.TopK(k); len(got) != 0 {
			t.Fatalf("empty source, k=%d: TopK gave %d matches", k, len(got))
		}
		if _, ok := NewMerge(&drained{}).Next(); ok {
			t.Fatal("empty source: Next gave a match")
		}
	}
	compacted := false
	for qi, q := range qs {
		var want []*Match
		for _, m := range core.BruteForce(rtg.Build(c, q), 0) {
			want = append(want, &Match{Nodes: m.Nodes, Score: m.Score})
		}
		want = canonicalize(want, len(want))
		for name, open := range sources {
			for _, k := range []int{1, 7, 60, len(want) + 3} {
				wantK := want[:min(k, len(want))]
				m := NewMerge(open(q))
				sameMatches(t, m.TopK(k), wantK, "q%d %s k=%d TopK", qi, name, k)
				atOrBelow := len(want)
				if len(wantK) > 0 {
					atOrBelow = 0
					for _, w := range want {
						if w.Score <= wantK[len(wantK)-1].Score {
							atOrBelow++
						}
					}
				}
				if m.Taken() != atOrBelow {
					t.Fatalf("q%d %s k=%d: merge took %d matches, %d score at or below the k-th",
						qi, name, k, m.Taken(), atOrBelow)
				}
				compacted = compacted || m.Taken() >= 2*k+64

				m = NewMerge(open(q))
				var streamed []*Match
				for len(streamed) < k {
					x, ok := m.Next()
					if !ok {
						break
					}
					streamed = append(streamed, x)
				}
				sameMatches(t, streamed, wantK, "q%d %s k=%d Next", qi, name, k)
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
