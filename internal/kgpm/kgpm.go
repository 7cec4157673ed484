// Package kgpm implements top-k graph pattern matching (kGPM) in the
// spanning-tree decomposition framework of Cheng, Zeng & Yu (ICDE'13), the
// paper's [7], as extended by Section 5:
//
//	query = a connected undirected labeled graph; data = an undirected
//	labeled graph (a directed graph is mirrored edge-by-edge); a match maps
//	query nodes to equal-labeled data nodes and scores the sum of shortest
//	undirected distances over ALL query edges.
//
// The framework picks a spanning tree of the query, enumerates its tree
// matches in non-decreasing tree score with a top-k tree matcher, verifies
// and completes each candidate by adding the non-tree edge distances, and
// stops once no future tree match can beat the current k-th full score —
// every unseen candidate costs at least nextTreeScore + #nonTreeEdges
// (each remaining distance is ≥ 1 because query labels are distinct).
//
// The inner matcher is a seam, Algorithm. This package provides MTreePlus,
// which drives this paper's Topk-EN; internal/bench supplies MTree, the
// DP-B baseline of [7], for Figure 9's mtree / mtree+ comparison.
package kgpm

import (
	"fmt"
	"sort"

	"ktpm/internal/closure"
	"ktpm/internal/graph"
	"ktpm/internal/lazy"
	"ktpm/internal/query"
	"ktpm/internal/store"
)

// Algorithm is the inner top-k tree matcher: it opens the matches of a
// query's spanning tree over env. k is the caller's k, for matchers that
// size their work up front; the framework may pull past it.
type Algorithm func(env *Env, tree *query.Tree, k int) TreeMatches

// TreeMatches is an open tree-match enumeration.
type TreeMatches interface {
	// Next returns the next tree match (data node per tree BFS index) in
	// non-decreasing tree score. nodes is valid until the next Next or
	// Close.
	Next() (nodes []int32, score int64, ok bool)
	// Close releases the enumeration's resources; the framework calls
	// it once, when it stops pulling.
	Close()
}

// MTreePlus embeds Topk-EN (Algorithm 3) as the tree matcher.
func MTreePlus(env *Env, tree *query.Tree, _ int) TreeMatches {
	return lazySource{lazy.New(env.Store, tree, lazy.Options{})}
}

// lazySource adapts lazy.Enumerator.
type lazySource struct{ e *lazy.Enumerator }

// Close hands the enumerator back to its pool.
func (s lazySource) Close() { s.e.Release() }

func (s lazySource) Next() ([]int32, int64, bool) {
	m, ok := s.e.Next()
	if !ok {
		return nil, 0, false
	}
	return m.Nodes, m.Score, true
}

// Query is a connected undirected labeled pattern graph with distinct node
// labels.
type Query struct {
	// Labels holds one label name per query node.
	Labels []string
	// Edges are undirected node-index pairs.
	Edges [][2]int
}

// Validate checks structural soundness: non-empty, connected, distinct
// labels, in-range simple edges.
func (q *Query) Validate() error {
	n := len(q.Labels)
	if n == 0 {
		return fmt.Errorf("kgpm: empty query")
	}
	seen := map[string]bool{}
	for _, l := range q.Labels {
		if seen[l] {
			return fmt.Errorf("kgpm: duplicate label %q (distinct labels required)", l)
		}
		seen[l] = true
	}
	adjacent := make([][]int, n)
	for _, e := range q.Edges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n || e[0] == e[1] {
			return fmt.Errorf("kgpm: bad edge %v", e)
		}
		adjacent[e[0]] = append(adjacent[e[0]], e[1])
		adjacent[e[1]] = append(adjacent[e[1]], e[0])
	}
	visited := make([]bool, n)
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range adjacent[v] {
			if !visited[w] {
				visited[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	if count != n {
		return fmt.Errorf("kgpm: query graph disconnected (%d of %d reachable)", count, n)
	}
	return nil
}

// Match is one graph pattern match: the matched data node per query node
// (in the Query's own indexing) and the full penalty score over all query
// edges.
type Match struct {
	Nodes []int32
	Score int64
}

// Env caches the per-data-graph state shared across queries: the
// undirected view, its closure, distance oracle, and simulated store.
type Env struct {
	Und     *graph.Graph
	Closure *closure.Closure
	Store   *store.Store
}

// NewEnv prepares an environment for data; the graph is mirrored into an
// undirected view per Section 5.
func NewEnv(data *graph.Graph) *Env {
	und := data.Undirected()
	c := closure.Compute(und, closure.Options{KeepDistanceIndex: true})
	return &Env{Und: und, Closure: c, Store: store.New(c, store.DefaultBlockSize)}
}

// RootPolicy selects the spanning-tree root — the paper's conclusion
// flags "selecting the 'best' node as a root from an undirected tree" as
// an open question; two natural policies are provided.
type RootPolicy int

const (
	// MaxDegreeRoot roots at the highest-degree query node, minimizing
	// tree depth (the default).
	MaxDegreeRoot RootPolicy = iota
	// RarestLabelRoot roots at the query node whose label has the fewest
	// data candidates, shrinking the root level of the run-time graph.
	RarestLabelRoot
)

// plan is a spanning-tree decomposition of one query.
type plan struct {
	tree *query.Tree
	// queryToTree[i] = BFS index of query node i in the spanning tree.
	queryToTree []int32
	// nonTree lists the non-tree query edges as tree-index pairs.
	nonTree [][2]int32
}

// decompose roots a BFS spanning tree at the query node chosen by policy.
func decompose(env *Env, q *Query, policy RootPolicy) (*plan, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	// Check label existence before the tree builder interns new names.
	for _, l := range q.Labels {
		if _, ok := env.Und.Labels.Lookup(l); !ok {
			return nil, fmt.Errorf("kgpm: label %q not present in data graph", l)
		}
	}
	n := len(q.Labels)
	adjacent := make([][]int, n)
	for _, e := range q.Edges {
		adjacent[e[0]] = append(adjacent[e[0]], e[1])
		adjacent[e[1]] = append(adjacent[e[1]], e[0])
	}
	root := 0
	switch policy {
	case RarestLabelRoot:
		best := -1
		for i := 0; i < n; i++ {
			id, _ := env.Und.Labels.Lookup(q.Labels[i])
			c := len(env.Und.NodesWithLabel(int32(id)))
			if best < 0 || c < best {
				best = c
				root = i
			}
		}
	default:
		for i := 1; i < n; i++ {
			if len(adjacent[i]) > len(adjacent[root]) {
				root = i
			}
		}
	}
	// BFS spanning tree.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -2
	}
	parent[root] = -1
	order := []int{root}
	for head := 0; head < len(order); head++ {
		v := order[head]
		neigh := append([]int(nil), adjacent[v]...)
		sort.Ints(neigh)
		for _, w := range neigh {
			if parent[w] == -2 {
				parent[w] = v
				order = append(order, w)
			}
		}
	}
	b := query.NewBuilder(env.Und.Labels)
	handles := make([]int32, n) // by query index
	handles[root] = b.Root(q.Labels[root])
	for _, v := range order[1:] {
		handles[v] = b.AddChild(handles[parent[v]], q.Labels[v], query.Descendant)
	}
	tree, err := b.Build()
	if err != nil {
		return nil, err
	}
	// Map query index -> tree BFS index via labels (distinct by Validate).
	labelToTree := make(map[int32]int32, n)
	for i := 0; i < tree.NumNodes(); i++ {
		labelToTree[tree.Nodes[i].Label] = int32(i)
	}
	p := &plan{tree: tree, queryToTree: make([]int32, n)}
	for i, l := range q.Labels {
		id, ok := env.Und.Labels.Lookup(l)
		if !ok {
			return nil, fmt.Errorf("kgpm: label %q not present in data graph", l)
		}
		p.queryToTree[i] = labelToTree[int32(id)]
	}
	// Non-tree edges: those not realized as (parent, child) in the tree.
	isTreeEdge := func(a, b int32) bool {
		return tree.Nodes[a].Parent == b || tree.Nodes[b].Parent == a
	}
	for _, e := range q.Edges {
		a, bb := p.queryToTree[e[0]], p.queryToTree[e[1]]
		if !isTreeEdge(a, bb) {
			p.nonTree = append(p.nonTree, [2]int32{a, bb})
		}
	}
	return p, nil
}

// TopK returns the top-k graph pattern matches of q over env using the
// selected inner matcher and the default root policy.
func TopK(env *Env, q *Query, k int, algo Algorithm) ([]*Match, error) {
	return TopKWithRoot(env, q, k, algo, MaxDegreeRoot)
}

// TopKWithRoot is TopK with an explicit spanning-tree root policy. All
// policies return the same matches; they differ in enumeration cost.
func TopKWithRoot(env *Env, q *Query, k int, algo Algorithm, policy RootPolicy) ([]*Match, error) {
	if k <= 0 {
		return nil, nil
	}
	p, err := decompose(env, q, policy)
	if err != nil {
		return nil, err
	}
	src := algo(env, p.tree, k)
	defer src.Close()
	nonTreeFloor := int64(len(p.nonTree)) // each non-tree distance >= 1
	var results []*Match
	worst := func() int64 {
		if len(results) < k {
			return int64(1) << 62
		}
		return results[len(results)-1].Score
	}
	for {
		nodes, treeScore, ok := src.Next()
		if !ok {
			break
		}
		if len(results) >= k && treeScore+nonTreeFloor >= worst() {
			break // no future tree match can improve the top-k
		}
		full := treeScore
		valid := true
		for _, e := range p.nonTree {
			d := env.Closure.Distance(nodes[e[0]], nodes[e[1]])
			if d == closure.Unreachable {
				valid = false
				break
			}
			full += int64(d)
		}
		if !valid {
			continue
		}
		m := &Match{Nodes: make([]int32, len(q.Labels)), Score: full}
		for i := range q.Labels {
			m.Nodes[i] = nodes[p.queryToTree[i]]
		}
		results = append(results, m)
		sort.SliceStable(results, func(i, j int) bool { return results[i].Score < results[j].Score })
		if len(results) > k {
			results = results[:k]
		}
	}
	return results, nil
}
