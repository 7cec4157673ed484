// Package rtg materializes the run-time graph G_R of Section 3.1: the
// subgraph of the transitive closure induced by the query tree's edges.
//
// Nodes of G_R are (query node, data node) pairs. Under the Section 2
// distinct-label assumption a data node belongs to at most one query node,
// and the pair collapses to the paper's plain data node; keeping the pair
// explicit implements the Section 5 extension for duplicate labels and
// wildcards ("multiple copies of a node ... at the levels of G_R
// corresponding to the levels of nodes with the label") with no special
// cases.
//
// An edge of G_R connects candidate v of query node u to candidate v' of a
// child query node c whenever the closure has (v, v', δ); its weight is δ
// plus the node weight of v' (the footnote-2 node-weight extension — the
// root candidate's own weight is exposed via RootExtra and folded in by
// the enumerators). For a '/' (parent-child) query edge only closure
// entries realized by a direct data-graph edge qualify, per Section 5
// ("restricting the retrieval of edges of length 1").
//
// Build prunes bottom-up (a candidate missing any child group cannot
// support a match — the Section 3.3 removal rule) and then top-down
// (candidates unreachable from any surviving root are dead weight).
package rtg

import (
	"ktpm/internal/closure"
	"ktpm/internal/graph"
	"ktpm/internal/label"
	"ktpm/internal/query"
)

// EdgeTo is an out-edge of a run-time-graph node within one child group:
// the local candidate index of the child and the penalty weight δmin.
type EdgeTo struct {
	ToLocal int32
	W       int32
}

// Graph is a materialized run-time graph.
type Graph struct {
	Q    *query.Tree
	Data *graph.Graph

	// Cands[u] lists the surviving data-node candidates of query node u.
	Cands [][]int32
	// offset[u] is the global node-ID base of query node u's candidates.
	offset []int32
	// adj[global][childPos] lists edges to candidates of the childPos-th
	// child of the node's query node. Empty for leaf query nodes.
	adj [][][]EdgeTo

	numEdges int64
}

// Build extracts and prunes the run-time graph for q over c. Building
// materializes every table a query edge touches, so on a lazy source
// (a snapshot opened lazy or mmap) the tables fault in here; wildcard
// edges fault the full directory.
func Build(c closure.TableSource, q *query.Tree) *Graph {
	g := c.Graph()
	nq := q.NumNodes()

	// 1. Raw candidate lists per query node.
	cands := make([][]int32, nq)
	for u := 0; u < nq; u++ {
		lbl := q.Nodes[u].Label
		if lbl == label.Wildcard {
			all := make([]int32, g.NumNodes())
			for i := range all {
				all[i] = int32(i)
			}
			cands[u] = all
		} else {
			cands[u] = append([]int32(nil), g.NodesWithLabel(lbl)...)
		}
	}
	index := make([]map[int32]int32, nq)
	for u := 0; u < nq; u++ {
		m := make(map[int32]int32, len(cands[u]))
		for i, v := range cands[u] {
			m[v] = int32(i)
		}
		index[u] = m
	}

	// 2. Raw adjacency per query edge.
	type rawAdj struct {
		perNode [][]EdgeTo // indexed by parent local, one group
	}
	groups := make([][]rawAdj, nq)
	for u := 0; u < nq; u++ {
		groups[u] = make([]rawAdj, len(q.Nodes[u].Children))
		for i := range groups[u] {
			groups[u][i].perNode = make([][]EdgeTo, len(cands[u]))
		}
	}
	for u := 0; u < nq; u++ {
		for pos, cIdx := range q.Nodes[u].Children {
			child := q.Nodes[cIdx]
			childOnly := child.EdgeFromParent == query.Child
			forEachClosureEntry(c, q.Nodes[u].Label, child.Label, func(e closure.Entry) {
				if childOnly && !isDirectEdge(g, e) {
					return
				}
				pi, ok := index[u][e.From]
				if !ok {
					return
				}
				ci, ok := index[cIdx][e.To]
				if !ok {
					return
				}
				groups[u][pos].perNode[pi] = append(groups[u][pos].perNode[pi], EdgeTo{ToLocal: ci, W: e.Dist})
			})
		}
	}

	// 3. Bottom-up pruning: a candidate survives iff every child group has
	// at least one edge to a surviving child candidate. Process query
	// nodes in reverse BFS order so children settle first.
	alive := make([][]bool, nq)
	for u := nq - 1; u >= 0; u-- {
		alive[u] = make([]bool, len(cands[u]))
		for i := range cands[u] {
			ok := true
			for pos := range q.Nodes[u].Children {
				found := false
				for _, e := range groups[u][pos].perNode[i] {
					if alive[q.Nodes[u].Children[pos]][e.ToLocal] {
						found = true
						break
					}
				}
				if !found {
					ok = false
					break
				}
			}
			alive[u][i] = ok
		}
	}

	// 4. Top-down pruning: keep only candidates reachable from a surviving
	// root along surviving edges.
	reach := make([][]bool, nq)
	for u := 0; u < nq; u++ {
		reach[u] = make([]bool, len(cands[u]))
	}
	for i, ok := range alive[0] {
		reach[0][i] = ok
	}
	for u := 0; u < nq; u++ {
		for i := range cands[u] {
			if !reach[u][i] {
				continue
			}
			for pos, cIdx := range q.Nodes[u].Children {
				for _, e := range groups[u][pos].perNode[i] {
					if alive[cIdx][e.ToLocal] {
						reach[cIdx][e.ToLocal] = true
					}
				}
			}
		}
	}

	// 5. Compact into the final structure.
	out := &Graph{Q: q, Data: g, Cands: make([][]int32, nq), offset: make([]int32, nq+1)}
	remap := make([][]int32, nq)
	for u := 0; u < nq; u++ {
		remap[u] = make([]int32, len(cands[u]))
		for i := range remap[u] {
			remap[u][i] = -1
		}
		for i, v := range cands[u] {
			if reach[u][i] {
				remap[u][i] = int32(len(out.Cands[u]))
				out.Cands[u] = append(out.Cands[u], v)
			}
		}
		out.offset[u+1] = out.offset[u] + int32(len(out.Cands[u]))
	}
	out.adj = make([][][]EdgeTo, out.offset[nq])
	for u := 0; u < nq; u++ {
		nc := len(q.Nodes[u].Children)
		for i := range cands[u] {
			ni := remap[u][i]
			if ni < 0 {
				continue
			}
			gid := out.offset[u] + ni
			out.adj[gid] = make([][]EdgeTo, nc)
			for pos, cIdx := range q.Nodes[u].Children {
				for _, e := range groups[u][pos].perNode[i] {
					nl := remap[cIdx][e.ToLocal]
					if nl < 0 {
						continue
					}
					childData := out.Cands[cIdx][nl]
					out.adj[gid][pos] = append(out.adj[gid][pos], EdgeTo{
						ToLocal: nl,
						W:       e.W + g.NodeWeight(childData),
					})
					out.numEdges++
				}
			}
		}
	}
	return out
}

// forEachClosureEntry iterates the closure entries for a query edge,
// expanding wildcards to unions over label-pair tables.
func forEachClosureEntry(c closure.TableSource, alpha, beta int32, fn func(closure.Entry)) {
	if cs, ok := c.(closure.ColumnSource); ok {
		// Column source (a snapshot): walk the column views directly.
		// Table() on such a source would materialize and cache a row-major
		// copy of every table touched; the lane loop reassembles entries
		// from columns that are already resident (zero-copy under mmap).
		forEachColsEntry(cs, alpha, beta, fn)
		return
	}
	switch {
	case alpha != label.Wildcard && beta != label.Wildcard:
		for _, e := range c.Table(alpha, beta) {
			fn(e)
		}
	default:
		c.Tables(func(a, b int32, entries []closure.Entry) bool {
			if (alpha == label.Wildcard || a == alpha) && (beta == label.Wildcard || b == beta) {
				for _, e := range entries {
					fn(e)
				}
			}
			return true
		})
	}
}

// forEachColsEntry is forEachClosureEntry over a column source:
// tables are selected via the directory (TableLens never loads payloads)
// and iterated lane by lane from their column views.
func forEachColsEntry(cs closure.ColumnSource, alpha, beta int32, fn func(closure.Entry)) {
	if alpha != label.Wildcard && beta != label.Wildcard {
		emitCols(cs.TableCols(alpha, beta), fn)
		return
	}
	cs.TableLens(func(a, b int32, count int) bool {
		if (alpha == label.Wildcard || a == alpha) && (beta == label.Wildcard || b == beta) {
			emitCols(cs.TableCols(a, b), fn)
		}
		return true
	})
}

func emitCols(cols closure.Cols, fn func(closure.Entry)) {
	for i := range cols.To {
		fn(closure.Entry{From: cols.From[i], To: cols.To[i], Dist: cols.Dist[i]})
	}
}

// isDirectEdge reports whether the closure entry corresponds to a direct
// data-graph edge, the '/' admission rule.
func isDirectEdge(g *graph.Graph, e closure.Entry) bool {
	direct := false
	g.Out(e.From, func(to, w int32) bool {
		if to == e.To && w == e.Dist {
			direct = true
			return false
		}
		return true
	})
	return direct
}

// Assemble builds a run-time graph directly from candidate lists and
// adjacency, without pruning. The DP-P baseline uses it to re-evaluate a
// dynamic program over the partially loaded closure: candidates with empty
// child groups are legal here and simply support no matches.
func Assemble(q *query.Tree, data *graph.Graph, cands [][]int32, adj [][][][]EdgeTo) *Graph {
	nq := q.NumNodes()
	out := &Graph{Q: q, Data: data, Cands: cands, offset: make([]int32, nq+1)}
	for u := 0; u < nq; u++ {
		out.offset[u+1] = out.offset[u] + int32(len(cands[u]))
	}
	out.adj = make([][][]EdgeTo, out.offset[nq])
	for u := 0; u < nq; u++ {
		nc := len(q.Nodes[u].Children)
		for local := range cands[u] {
			gid := out.offset[u] + int32(local)
			out.adj[gid] = make([][]EdgeTo, nc)
			for pos := 0; pos < nc; pos++ {
				var edges []EdgeTo
				if adj[u] != nil && adj[u][local] != nil {
					edges = adj[u][local][pos]
				}
				out.adj[gid][pos] = edges
				out.numEdges += int64(len(edges))
			}
		}
	}
	return out
}

// NumNodes returns n_R, the surviving node count.
func (r *Graph) NumNodes() int { return int(r.offset[len(r.offset)-1]) }

// NumEdges returns m_R, the surviving edge count.
func (r *Graph) NumEdges() int64 { return r.numEdges }

// NumCands returns the candidate count of query node u.
func (r *Graph) NumCands(u int32) int { return len(r.Cands[u]) }

// NodeID returns the global node ID of the local-th candidate of u.
func (r *Graph) NodeID(u, local int32) int32 { return r.offset[u] + local }

// DataNode returns the data-graph node backing global node ID id.
func (r *Graph) DataNode(u, local int32) int32 { return r.Cands[u][local] }

// Edges returns the child-group edge list of candidate (u, local) toward
// its childPos-th child query node. The slice is shared; do not modify.
func (r *Graph) Edges(u, local int32, childPos int) []EdgeTo {
	return r.adj[r.offset[u]+local][childPos]
}

// RootExtra returns the node-weight contribution of the local-th root
// candidate, which enumerators add to its bs when ranking roots.
func (r *Graph) RootExtra(local int32) int64 {
	return int64(r.Data.NodeWeight(r.Cands[0][local]))
}

// MaxDegree returns d_R, the maximum child-group size, an input to the
// complexity bound of Theorem 4.3.
func (r *Graph) MaxDegree() int {
	d := 0
	for _, perNode := range r.adj {
		for _, grp := range perNode {
			if len(grp) > d {
				d = len(grp)
			}
		}
	}
	return d
}

// Stats summarizes a run-time graph for Table 3 reporting.
type Stats struct {
	Nodes int
	Edges int64
}

// ComputeStats returns summary statistics.
func (r *Graph) ComputeStats() Stats {
	return Stats{Nodes: r.NumNodes(), Edges: r.numEdges}
}
