package bench

import (
	"ktpm/internal/dp"
	"ktpm/internal/kgpm"
	"ktpm/internal/query"
	"ktpm/internal/rtg"
)

// MTree is Figure 9's mtree: the kGPM framework of [7] with DP-B as its
// tree matcher, the baseline kgpm.MTreePlus is measured against. It
// materializes the spanning tree's run-time graph up front.
func MTree(env *kgpm.Env, tree *query.Tree, k int) kgpm.TreeMatches {
	r := rtg.Build(env.Closure, tree)
	return &dpSource{r: r, cap: 4 * k, msgs: dp.TopK(r, 4*k)}
}

// dpSource adapts dp.TopK with geometric re-runs: DP-B memoizes at most
// cap matches per stream, so when the framework outruns the cap the DP is
// re-run with a doubled cap (the baseline pays for its bounded queues,
// which is faithful to its design).
type dpSource struct {
	r    *rtg.Graph
	cap  int
	pos  int
	msgs []*dp.Match
}

func (s *dpSource) Next() ([]int32, int64, bool) {
	for s.pos >= len(s.msgs) {
		if len(s.msgs) < s.cap {
			return nil, 0, false // truly exhausted
		}
		s.cap *= 2
		s.msgs = dp.TopK(s.r, s.cap)
	}
	m := s.msgs[s.pos]
	s.pos++
	return m.Nodes, m.Score, true
}

// Close implements kgpm.TreeMatches; DP-B holds nothing pooled.
func (s *dpSource) Close() {}
