package lazy

import (
	"cmp"
	"slices"

	"ktpm/internal/heap"
)

// Source is a stream of matches in non-decreasing score order: an
// Enumerator (optionally root-filtered) or a remote worker's stream.
// Next reports false once the source is exhausted; a Merge never calls
// it again after that.
type Source interface {
	Next() (*Match, bool)
}

// Merge is the k-way merge behind every Topk-EN answer: one enumerator
// (a Database or ShardedDatabase), or the workers of a coordinator. Sources
// whose match spaces are disjoint (root filters over disjoint vertex
// sets) merge into the canonical order of their union — non-decreasing
// score, equal scores ordered by node bindings — so an answer does not
// depend on how the match space was split.
//
// Source heads sit in an indexed min-heap keyed by head score, so each
// take costs O(log sources). Because every source is sorted, a source's
// head is the best score it can still produce: that is the threshold
// TopK stops on, the paper's early-termination argument lifted from block
// loading to source gathering. A merge is used once, through TopK or
// through Next, and is not safe for concurrent use.
type Merge struct {
	srcs   []Source
	heads  []*Match // heads[i] = source i's next match, nil once exhausted
	taken  []int
	hq     *heap.Indexed // source index keyed by head score; nil until the first pull
	tie    []*Match      // Next's current equal-score group, canonically sorted
	tiePos int
}

// NewMerge merges srcs. Nothing is pulled until the first TopK or Next,
// so constructing a merge never blocks on a source.
func NewMerge(srcs []Source) *Merge {
	return &Merge{srcs: srcs, heads: make([]*Match, len(srcs)), taken: make([]int, len(srcs))}
}

// start pulls every source's first match and seeds the head heap.
func (m *Merge) start() {
	if m.hq != nil {
		return
	}
	m.hq = heap.NewIndexed(len(m.srcs))
	for i, s := range m.srcs {
		if h, ok := s.Next(); ok {
			m.heads[i] = h
			m.hq.Push(i, h.Score)
		}
	}
}

// take consumes source i's head and pulls its next one.
func (m *Merge) take(i int) *Match {
	x := m.heads[i]
	m.taken[i]++
	if h, ok := m.srcs[i].Next(); ok {
		m.heads[i] = h
		m.hq.Update(i, h.Score)
	} else {
		m.heads[i] = nil
		m.hq.Remove(i)
	}
	return x
}

// TopK returns the k best matches in canonical order. It takes heads in
// global score order until k are gathered and no head can beat the k-th
// score, so the tie group at the k-th score is drained in full: any tie
// left behind could order before a gathered one. Gathered matches are
// compacted to the canonical k smallest every 2k+64 takes, so a huge
// tie group (uniform weights tie astronomically many matches) costs O(k)
// memory; a compacted-away match is beaten by k others and no later take
// can resurrect it.
func (m *Merge) TopK(k int) []*Match {
	if k <= 0 {
		return nil
	}
	m.start()
	var out []*Match
	compactAt := 2*k + 64
	for m.hq.Len() > 0 {
		i, score := m.hq.Peek()
		if len(out) >= k && score > out[k-1].Score {
			break // threshold: no source can still beat the k-th result
		}
		out = append(out, m.take(i))
		if len(out) >= compactAt {
			out = canonicalize(out, k)
		}
	}
	return canonicalize(out, k)
}

// Next returns the next match in canonical order; ok is false once every
// source is exhausted. Emission order within a source's tie group is
// arbitrary and another source may hold a smaller tie, so Next drains one
// whole equal-score group (every head at the current minimum score) and
// sorts it before emitting any of it: memory is O(largest tie group), and
// run-ahead past what the caller asked for is that group's tail plus one
// head per source.
func (m *Merge) Next() (*Match, bool) {
	if m.tiePos < len(m.tie) {
		x := m.tie[m.tiePos]
		m.tiePos++
		return x, true
	}
	m.start()
	if m.hq.Len() == 0 {
		return nil, false
	}
	_, score := m.hq.Peek()
	group := m.tie[:0]
	for m.hq.Len() > 0 {
		i, sc := m.hq.Peek()
		if sc != score {
			break
		}
		group = append(group, m.take(i))
	}
	m.tie, m.tiePos = canonicalize(group, len(group)), 1
	return m.tie[0], true
}

// Taken returns how many matches the merge has taken from source i: the
// matches it gathered or emitted, not the heads it holds. After TopK(k)
// that is exactly source i's matches scoring at or below the k-th score.
func (m *Merge) Taken(i int) int { return m.taken[i] }

// ChunkSize is how many matches a coordinator's shard reader hands
// across its channel in one operation, a worker writes between flushes,
// and a stream's node buffer holds: one synchronization or allocation per
// chunk instead of per match. Answers do not depend on it.
const ChunkSize = 32

// Less is the canonical total order over matches: by score, then node
// bindings lexicographically. Two distinct matches always differ in some
// binding.
func Less(a, b *Match) bool { return compare(a, b) < 0 }

// compare is Less as a three-way comparison, the form slices.SortFunc
// takes.
func compare(a, b *Match) int {
	if c := cmp.Compare(a.Score, b.Score); c != 0 {
		return c
	}
	return slices.Compare(a.Nodes, b.Nodes)
}

// canonicalize sorts ms by Less and truncates to the k smallest. The
// result stays non-decreasing by score, which TopK's threshold test
// relies on after a compaction.
func canonicalize(ms []*Match, k int) []*Match {
	slices.SortFunc(ms, compare)
	if len(ms) > k {
		ms = ms[:k]
	}
	return ms
}
