package store

import (
	"slices"

	"ktpm/internal/closure"
	"ktpm/internal/obs"
)

// The carved image (see the package comment): one (α, β) closure table is
// a colTab — per-target spans over three shared columns — and lists are
// served as EdgeCols column views, so the enumeration hot loops (distance
// threshold scans, direct-flag filtering, D/E derivation, wildcard
// merging) are tight passes over contiguous int32/bool columns instead of
// strided walks over 12-byte structs. cols_test.go checks the image
// against lists computed independently from the source's rows.

// EdgeCols is a column view of one incoming list (or one block of it):
// lane i is the edge {From[i], Dist[i], Direct[i]}, and lanes are sorted
// by (Dist, From). The slices are shared with the carved layout and must
// not be modified.
type EdgeCols struct {
	From   []int32
	Dist   []int32
	Direct []bool
}

// Len returns the number of lanes.
func (ec EdgeCols) Len() int { return len(ec.From) }

// slice returns the [lo, hi) lane sub-view.
func (ec EdgeCols) slice(lo, hi int) EdgeCols {
	return EdgeCols{From: ec.From[lo:hi], Dist: ec.Dist[lo:hi], Direct: ec.Direct[lo:hi]}
}

// FilterDistGE is the threshold-scan kernel over a distance-sorted
// column: it returns the number of leading lanes with dist < thr —
// equivalently the index of the first lane with dist ≥ thr, or len(dist)
// when none reaches the threshold. A tight forward scan rather than a
// binary search: callers (the wildcard gallop merge, block kernels)
// consume the returned prefix anyway, so the scan cost is amortized by
// the copy and the branch-predictable loop auto-vectorizes.
func FilterDistGE(dist []int32, thr int32) int {
	for i, d := range dist {
		if d >= thr {
			return i
		}
	}
	return len(dist)
}

// firstTrue returns the index of the first set lane of a flag column, or
// -1. The D derive uses it to find the first direct edge.
func firstTrue(flags []bool) int {
	for i, f := range flags {
		if f {
			return i
		}
	}
	return -1
}

// colTab is the carved image of one (α, β) table: targets[r] is
// the r-th target node (ascending), and its incoming lanes are
// [starts[r], starts[r+1]) in the from/dist/direct columns. Lanes within
// a span are (Dist, From)-sorted — the closure's canonical (To, Dist,
// From) order delivers both properties for free. Immutable once
// published.
type colTab struct {
	targets []int32
	starts  []int32 // len(targets)+1
	from    []int32
	dist    []int32
	direct  []bool
}

// span returns v's lane range, empty when v has no incoming entries.
func (t *colTab) span(v int32) (lo, hi int32) {
	if t == nil {
		return 0, 0
	}
	i, ok := slices.BinarySearch(t.targets, v)
	if !ok {
		return 0, 0
	}
	return t.starts[i], t.starts[i+1]
}

// view returns v's incoming list as a column view.
func (t *colTab) view(v int32) EdgeCols {
	lo, hi := t.span(v)
	if lo == hi {
		return EdgeCols{}
	}
	return EdgeCols{From: t.from[lo:hi], Dist: t.dist[lo:hi], Direct: t.direct[lo:hi]}
}

// carve faults the (alpha, beta) table from the source as columns,
// takes from/dist as the layout's own (copying them when they are a v2
// snapshot's shared views, adopting the transpose otherwise), computes
// the direct flags from each target's incoming edges in the graph, and
// indexes target runs into a CSR span table — one pass over
// the contiguous to[] column, which the closure's canonical (To, Dist,
// From) order delivers already grouped and block-ordered. Callers hold
// lay.mu and publish tabs afterwards. It reports whether the table
// arrived whole: a lazy source that hits a fault-time load failure serves
// the table as empty, and caching that as carved would silently drop the
// table's edges for the process lifetime — a short load leaves the pair
// uncarved (bumping the fault counter) so a later touch refaults it.
func (lay *layout) carve(alpha, beta int32, tabs map[pairKey]*colTab) bool {
	cols, shared := closure.TableColsOf(lay.src, alpha, beta)
	n := cols.Len()
	if n != lay.src.TableLen(alpha, beta) {
		lay.faults.Add(1)
		return false
	}
	t := &colTab{}
	if n > 0 {
		t.from, t.dist = cols.From, cols.Dist
		if shared {
			t.from, t.dist = slices.Clone(cols.From), slices.Clone(cols.Dist)
		}
		t.direct = make([]bool, n)
		if lay.inW == nil {
			lay.inW = make([]int32, lay.g.NumNodes())
		}
		inW := lay.inW
		setIn := func(from, w int32) bool { inW[from] = w; return true }
		clearIn := func(from, _ int32) bool { inW[from] = 0; return true }
		for i := 0; i < n; {
			to := cols.To[i]
			j := i + 1
			for j < n && cols.To[j] == to {
				j++
			}
			t.targets = append(t.targets, to)
			t.starts = append(t.starts, int32(i))
			// The graph is simple, so In lists one edge per source: the
			// lightest of any parallels. Weights are positive, so a zero
			// marks a source with no edge to this target.
			lay.g.In(to, setIn)
			for lane := i; lane < j; lane++ {
				t.direct[lane] = inW[cols.From[lane]] == cols.Dist[lane]
			}
			lay.g.In(to, clearIn)
			i = j
		}
		t.starts = append(t.starts, int32(n))
		// Negative carves (no such table in the source) are cached so the
		// miss never refaults, but only real tables count as loads.
		lay.tablesLoaded.Add(1)
	}
	tabs[pairKey{alpha, beta}] = t
	return true
}

// mergeWildcard derives the all-label incoming list of v, carving any
// tables not yet faulted (all of v's label's tables in one batch, so a
// cold wildcard query faults each table once), as a galloping k-way merge
// of the per-label spans, which are each already (Dist, From)-sorted.
// Each round picks the source whose head lane is the (Dist, From) minimum
// and bulk-copies its run of lanes strictly below every other head's
// distance — found by the FilterDistGE threshold kernel — so long sorted
// runs move as three column copies. From values are globally unique
// across sources for a fixed target (a source label determines its
// table), so the (Dist, From) order is total and the merge deterministic.
func (s *Store) mergeWildcard(v int32, tr *obs.Span) EdgeCols {
	s.lay.carveTargets(s.lay.g.Label(v), tr)
	var srcs []EdgeCols
	for a := int32(0); int(a) < s.lay.g.NumLabels(); a++ {
		if ec := s.lay.listFor(a, v, tr); ec.Len() > 0 {
			srcs = append(srcs, ec)
		}
	}
	switch len(srcs) {
	case 0:
		return EdgeCols{}
	case 1:
		// A single source's view is immutable and already in merge order;
		// share it without copying.
		return srcs[0]
	}
	total := 0
	for _, ec := range srcs {
		total += ec.Len()
	}
	out := EdgeCols{
		From:   make([]int32, 0, total),
		Dist:   make([]int32, 0, total),
		Direct: make([]bool, 0, total),
	}
	pos := make([]int, len(srcs))
	for len(out.From) < total {
		// Pick the source with the minimum (Dist, From) head.
		best := -1
		var bd, bf int32
		for i, ec := range srcs {
			if pos[i] >= ec.Len() {
				continue
			}
			d, f := ec.Dist[pos[i]], ec.From[pos[i]]
			if best < 0 || d < bd || (d == bd && f < bf) {
				best, bd, bf = i, d, f
			}
		}
		// Find the lowest competing head distance.
		competing := false
		var cd int32
		for i, ec := range srcs {
			if i == best || pos[i] >= ec.Len() {
				continue
			}
			if d := ec.Dist[pos[i]]; !competing || d < cd {
				competing, cd = true, d
			}
		}
		ec := srcs[best]
		lo := pos[best]
		n := ec.Len() - lo
		if competing {
			// Lanes strictly below the best competitor are safe to move in
			// bulk; a head that ties the competitor still moves alone (it
			// won the (Dist, From) comparison).
			if k := FilterDistGE(ec.Dist[lo:], cd); k > 0 {
				n = k
			} else {
				n = 1
			}
		}
		out.From = append(out.From, ec.From[lo:lo+n]...)
		out.Dist = append(out.Dist, ec.Dist[lo:lo+n]...)
		out.Direct = append(out.Direct, ec.Direct[lo:lo+n]...)
		pos[best] += n
	}
	return out
}
