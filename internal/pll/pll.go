// Package pll implements pruned landmark labeling (2-hop labels) for exact
// shortest-path distance queries on directed graphs — the closure-size
// management technique Section 5 of the paper points to ([1] Akiba et al.
// SIGMOD'13, [8] Cohen et al. SODA'02).
//
// Every node v carries two label sets: Out(v) = {(w, δ(v,w))} and
// In(v) = {(w, δ(w,v))} over a shared landmark order. A query
// δ(u,v) = min over common landmarks w of δ(u,w) + δ(w,v). Landmarks are
// processed in descending degree order with pruned BFS (or pruned Dijkstra
// on weighted graphs): a visit that the current index already explains is
// cut, which is what keeps labels small on skewed graphs.
//
// The index implements closure.DistanceOracle and can substitute the full
// transitive closure in any component that only needs distances (ablation
// A4 in docs/REPRODUCTION.md).
package pll

import (
	"sort"

	"ktpm/internal/closure"
	"ktpm/internal/graph"
)

type labelEntry struct {
	landmark int32 // rank of the landmark, not node ID
	dist     int32
}

// Index is a built 2-hop index. It is immutable and safe for concurrent
// queries.
type Index struct {
	g *graph.Graph
	// rankOf[v] = processing rank of node v; lower rank = earlier landmark.
	rankOf []int32
	out    [][]labelEntry // sorted by landmark rank
	in     [][]labelEntry
}

// Build constructs the index over g.
func Build(g *graph.Graph) *Index {
	n := g.NumNodes()
	idx := &Index{
		g:      g,
		rankOf: make([]int32, n),
		out:    make([][]labelEntry, n),
		in:     make([][]labelEntry, n),
	}
	// Degree-descending landmark order: high-degree hubs first explains
	// the most pairs early and maximizes pruning.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		di := g.OutDegree(order[i]) + g.InDegree(order[i])
		dj := g.OutDegree(order[j]) + g.InDegree(order[j])
		if di != dj {
			return di > dj
		}
		return order[i] < order[j]
	})
	for rank, v := range order {
		idx.rankOf[v] = int32(rank)
	}
	unweighted := g.Unweighted()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	for rank, w := range order {
		// The landmark labels itself at distance zero in both directions,
		// so queries with w as an endpoint resolve through w itself.
		idx.out[w] = append(idx.out[w], labelEntry{int32(rank), 0})
		idx.in[w] = append(idx.in[w], labelEntry{int32(rank), 0})
		// Forward search: label In(v) with (w, δ(w,v)).
		idx.prunedSearch(w, int32(rank), dist, unweighted, true)
		// Backward search: label Out(u) with (w, δ(u,w)).
		idx.prunedSearch(w, int32(rank), dist, unweighted, false)
	}
	return idx
}

// prunedSearch runs a pruned BFS/Dijkstra from landmark w (rank r).
// forward=true explores outgoing edges and appends to In labels;
// forward=false explores incoming edges and appends to Out labels.
func (idx *Index) prunedSearch(w, r int32, dist []int32, unweighted, forward bool) {
	g := idx.g
	type qi struct{ d, v int32 }
	var frontier []qi
	frontier = append(frontier, qi{0, w})
	dist[w] = 0
	var visited []int32
	visited = append(visited, w)

	expand := func(v int32, fn func(to, wgt int32) bool) {
		if forward {
			g.Out(v, fn)
		} else {
			g.In(v, fn)
		}
	}
	queryPruned := func(v, d int32) bool {
		// Would the current index (landmarks of rank < r) already give
		// δ ≤ d for this pair? If so the visit adds nothing.
		var du, dv []labelEntry
		if forward {
			du, dv = idx.out[w], idx.in[v]
		} else {
			du, dv = idx.out[v], idx.in[w]
		}
		return queryLabels(du, dv) <= d
	}
	record := func(v, d int32) {
		if forward {
			idx.in[v] = append(idx.in[v], labelEntry{r, d})
		} else {
			idx.out[v] = append(idx.out[v], labelEntry{r, d})
		}
	}

	if unweighted {
		for head := 0; head < len(frontier); head++ {
			cur := frontier[head]
			if cur.v != w && queryPruned(cur.v, cur.d) {
				continue
			}
			if cur.v != w {
				record(cur.v, cur.d)
			}
			expand(cur.v, func(to, _ int32) bool {
				if dist[to] < 0 {
					dist[to] = cur.d + 1
					frontier = append(frontier, qi{cur.d + 1, to})
					visited = append(visited, to)
				}
				return true
			})
		}
	} else {
		// Pruned Dijkstra with a local heap.
		h := frontier
		pop := func() qi {
			top := h[0]
			last := len(h) - 1
			h[0] = h[last]
			h = h[:last]
			i := 0
			for {
				l, rr, s := 2*i+1, 2*i+2, i
				if l < len(h) && h[l].d < h[s].d {
					s = l
				}
				if rr < len(h) && h[rr].d < h[s].d {
					s = rr
				}
				if s == i {
					break
				}
				h[i], h[s] = h[s], h[i]
				i = s
			}
			return top
		}
		push := func(e qi) {
			h = append(h, e)
			i := len(h) - 1
			for i > 0 {
				p := (i - 1) / 2
				if h[p].d <= h[i].d {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
		}
		for len(h) > 0 {
			cur := pop()
			if cur.d > dist[cur.v] {
				continue
			}
			if cur.v != w && queryPruned(cur.v, cur.d) {
				continue
			}
			if cur.v != w {
				record(cur.v, cur.d)
			}
			expand(cur.v, func(to, wgt int32) bool {
				nd := cur.d + wgt
				if dist[to] < 0 || nd < dist[to] {
					if dist[to] < 0 {
						visited = append(visited, to)
					}
					dist[to] = nd
					push(qi{nd, to})
				}
				return true
			})
		}
	}
	for _, v := range visited {
		dist[v] = -1
	}
}

// queryLabels merges two rank-sorted label lists. Returns the min combined
// distance or a large sentinel.
func queryLabels(out, in []labelEntry) int32 {
	const inf = int32(1 << 30)
	best := inf
	i, j := 0, 0
	for i < len(out) && j < len(in) {
		switch {
		case out[i].landmark == in[j].landmark:
			if d := out[i].dist + in[j].dist; d < best {
				best = d
			}
			i++
			j++
		case out[i].landmark < in[j].landmark:
			i++
		default:
			j++
		}
	}
	return best
}

// Distance implements closure.DistanceOracle.
func (idx *Index) Distance(u, v int32) int32 {
	if u == v {
		return 0
	}
	d := queryLabels(idx.out[u], idx.in[v])
	if d >= int32(1<<30) {
		return closure.Unreachable
	}
	return d
}

// LabelEntries returns the total number of label entries, the index size
// measure reported in ablation A4.
func (idx *Index) LabelEntries() int64 {
	var n int64
	for v := range idx.out {
		n += int64(len(idx.out[v]) + len(idx.in[v]))
	}
	return n
}

var _ closure.DistanceOracle = (*Index)(nil)
