package lazy

import (
	"cmp"
	"slices"
)

// Source is a stream of matches in non-decreasing score order: an
// Enumerator, optionally root-filtered.
// Next reports false once the source is exhausted; a Merge never calls
// it again after that.
type Source interface {
	Next() (*Match, bool)
}

// Merge puts one source's matches into the canonical order behind every
// Topk-EN answer — non-decreasing score, equal scores ordered by node
// bindings — so an answer does not depend on the order in which the
// enumerator emits a tie group.
//
// Because the source is sorted, its head is the best score it can still
// produce: that is the threshold TopK stops on, the paper's
// early-termination argument. A merge is used once, through TopK or
// through Next, and is not safe for concurrent use.
type Merge struct {
	src     Source
	head    *Match // the source's next match; nil once exhausted
	started bool
	taken   int
	tie     []*Match // Next's current equal-score group, canonically sorted
	tiePos  int
}

// NewMerge orders src. Nothing is pulled until the first TopK or Next,
// so constructing a merge never blocks on the source.
func NewMerge(src Source) *Merge { return &Merge{src: src} }

// start pulls the source's first match.
func (m *Merge) start() {
	if !m.started {
		m.started = true
		m.pull()
	}
}

// take consumes the head and pulls the next one.
func (m *Merge) take() *Match {
	x := m.head
	m.taken++
	m.pull()
	return x
}

func (m *Merge) pull() {
	m.head = nil
	if h, ok := m.src.Next(); ok {
		m.head = h
	}
}

// TopK returns the k best matches in canonical order. It takes matches
// until k are gathered and the head cannot beat the k-th score, so the
// tie group at the k-th score is drained in full: any tie left behind
// could order before a gathered one. Gathered matches are compacted to
// the canonical k smallest every 2k+64 takes, so a huge tie group
// (uniform weights tie astronomically many matches) costs O(k) memory; a
// compacted-away match is beaten by k others and no later take can
// resurrect it.
func (m *Merge) TopK(k int) []*Match {
	if k <= 0 {
		return nil
	}
	m.start()
	var out []*Match
	compactAt := 2*k + 64
	for m.head != nil {
		if len(out) >= k && m.head.Score > out[k-1].Score {
			break // threshold: the source cannot still beat the k-th result
		}
		out = append(out, m.take())
		if len(out) >= compactAt {
			out = canonicalize(out, k)
		}
	}
	return canonicalize(out, k)
}

// Next returns the next match in canonical order; ok is false once the
// source is exhausted. Emission order within a tie group is arbitrary,
// so Next drains one whole equal-score group and sorts it before
// emitting any of it: memory is O(largest tie group), and run-ahead
// past what the caller asked for is that group's tail plus the head.
func (m *Merge) Next() (*Match, bool) {
	if m.tiePos < len(m.tie) {
		x := m.tie[m.tiePos]
		m.tiePos++
		return x, true
	}
	m.start()
	if m.head == nil {
		return nil, false
	}
	score := m.head.Score
	group := m.tie[:0]
	for m.head != nil && m.head.Score == score {
		group = append(group, m.take())
	}
	m.tie, m.tiePos = canonicalize(group, len(group)), 1
	return m.tie[0], true
}

// Taken returns how many matches the merge has taken from the source:
// the matches it gathered or emitted, not the head it holds. After
// TopK(k) that is exactly the matches scoring at or below the k-th
// score.
func (m *Merge) Taken() int { return m.taken }

// ChunkSize is how many matches a remote worker writes between flushes,
// a worker stream's decoder carves bindings for, and a stream's node
// buffer holds: one write or allocation per chunk instead of per match.
// Answers do not depend on it.
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
