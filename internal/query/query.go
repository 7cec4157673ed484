// Package query implements rooted query trees (Section 2): node-labeled
// directed trees whose edges carry twig semantics — '//'
// (ancestor-descendant: maps to any directed path) or '/' (parent-child:
// maps to a single data-graph edge). Nodes may be wildcards (*), which
// match any data-node label (Section 5).
//
// Trees are stored in the top-down breadth-first order required by
// Lemma 3.1, so a node's parent always has a smaller index; all matching
// code relies on that invariant.
package query

import (
	"fmt"
	"sort"
	"strings"

	"ktpm/internal/label"
)

// EdgeKind distinguishes twig edge semantics.
type EdgeKind uint8

const (
	// Descendant is the '//' edge: maps to any directed path.
	Descendant EdgeKind = iota
	// Child is the '/' edge: maps to exactly one data-graph edge
	// (shortest distance 1 in an unweighted graph; the matched closure
	// entry must correspond to an original edge).
	Child
)

func (k EdgeKind) String() string {
	if k == Child {
		return "/"
	}
	return "//"
}

// Node is a query-tree node in BFS order.
type Node struct {
	// Label is the interned label ID, or label.Wildcard.
	Label int32
	// Parent is the BFS index of the parent, or -1 for the root.
	Parent int32
	// EdgeFromParent is the semantics of the edge (Parent, this).
	// Meaningless for the root.
	EdgeFromParent EdgeKind
	// Children are BFS indexes of this node's children, ascending.
	Children []int32
	// SubtreeSize is the number of nodes in the subtree rooted here
	// (including itself); |T_u| in the paper, used by the remaining-edges
	// lower bound L(u) = n_T - 1 - |T_u|.
	SubtreeSize int32
	// Depth is the distance from the root in edges.
	Depth int32
}

// Tree is an immutable rooted query tree in BFS order; index 0 is the root.
type Tree struct {
	// Labels resolves label IDs; normally shared with the data graph.
	Labels *label.Interner
	Nodes  []Node

	distinct bool
}

// NumNodes returns n_T.
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// Root returns the root index, always 0.
func (t *Tree) Root() int32 { return 0 }

// MaxDegree returns d_T, the maximum node degree (children + parent edge).
func (t *Tree) MaxDegree() int {
	d := 0
	for i := range t.Nodes {
		deg := len(t.Nodes[i].Children)
		if i != 0 {
			deg++
		}
		if deg > d {
			d = deg
		}
	}
	return d
}

// DistinctLabels reports whether all node labels are distinct and
// non-wildcard — the Section 2 simplifying assumption under which a data
// node belongs to at most one query position.
func (t *Tree) DistinctLabels() bool { return t.distinct }

// LabelName returns the display name of node u's label.
func (t *Tree) LabelName(u int32) string { return t.Labels.Name(int(t.Nodes[u].Label)) }

// Validate checks the structural invariants. Builder and parser outputs
// always satisfy them; Validate exists for hand-constructed trees and as a
// test oracle.
func (t *Tree) Validate() error {
	n := len(t.Nodes)
	if n == 0 {
		return fmt.Errorf("query: empty tree")
	}
	if t.Nodes[0].Parent != -1 {
		return fmt.Errorf("query: node 0 must be the root")
	}
	for i := 1; i < n; i++ {
		p := t.Nodes[i].Parent
		if p < 0 || int(p) >= n {
			return fmt.Errorf("query: node %d has invalid parent %d", i, p)
		}
		if p >= int32(i) {
			return fmt.Errorf("query: node %d has parent %d; BFS order requires parent < child (Lemma 3.1)", i, p)
		}
		if t.Nodes[i].Depth != t.Nodes[p].Depth+1 {
			return fmt.Errorf("query: node %d depth %d inconsistent with parent depth %d", i, t.Nodes[i].Depth, t.Nodes[p].Depth)
		}
		if i > 1 && t.Nodes[i].Depth < t.Nodes[i-1].Depth {
			return fmt.Errorf("query: nodes not in breadth-first order at %d", i)
		}
	}
	for i := 0; i < n; i++ {
		size := int32(1)
		for _, c := range t.Nodes[i].Children {
			if int(c) >= n || t.Nodes[c].Parent != int32(i) {
				return fmt.Errorf("query: child link %d->%d inconsistent", i, c)
			}
			size += t.Nodes[c].SubtreeSize
		}
		if t.Nodes[i].SubtreeSize != size {
			return fmt.Errorf("query: node %d subtree size %d, want %d", i, t.Nodes[i].SubtreeSize, size)
		}
	}
	return nil
}

// Builder assembles a tree from parent links in any insertion order and
// renumbers to BFS on Build.
type Builder struct {
	labels *label.Interner
	nodes  []builderNode
}

type builderNode struct {
	lbl    int32
	parent int32 // builder index, -1 for root
	kind   EdgeKind
}

// NewBuilder returns a tree Builder sharing the given interner (typically
// the data graph's).
func NewBuilder(in *label.Interner) *Builder {
	return &Builder{labels: in}
}

// Root sets the root label and returns its builder handle. It must be
// called exactly once, before any AddChild.
func (b *Builder) Root(labelName string) int32 {
	if len(b.nodes) != 0 {
		panic("query: Root called twice")
	}
	b.nodes = append(b.nodes, builderNode{lbl: int32(b.labels.Intern(labelName)), parent: -1})
	return 0
}

// AddChild adds a node under parent (a handle returned by Root or
// AddChild) with the given edge semantics, returning the new handle.
func (b *Builder) AddChild(parent int32, labelName string, kind EdgeKind) int32 {
	if int(parent) >= len(b.nodes) {
		panic(fmt.Sprintf("query: AddChild: unknown parent %d", parent))
	}
	b.nodes = append(b.nodes, builderNode{
		lbl:    int32(b.labels.Intern(labelName)),
		parent: parent,
		kind:   kind,
	})
	return int32(len(b.nodes) - 1)
}

// Build renumbers to BFS order and freezes the tree.
func (b *Builder) Build() (*Tree, error) {
	n := len(b.nodes)
	if n == 0 {
		return nil, fmt.Errorf("query: empty tree")
	}
	children := make([][]int32, n)
	for i := 1; i < n; i++ {
		p := b.nodes[i].parent
		children[p] = append(children[p], int32(i))
	}
	// BFS renumbering.
	order := make([]int32, 0, n)
	order = append(order, 0)
	for head := 0; head < len(order); head++ {
		order = append(order, children[order[head]]...)
	}
	if len(order) != n {
		return nil, fmt.Errorf("query: disconnected tree: reached %d of %d nodes", len(order), n)
	}
	newIdx := make([]int32, n)
	for bfs, old := range order {
		newIdx[old] = int32(bfs)
	}
	t := &Tree{Labels: b.labels, Nodes: make([]Node, n)}
	for bfs, old := range order {
		bn := b.nodes[old]
		node := Node{Label: bn.lbl, Parent: -1, EdgeFromParent: bn.kind}
		if bn.parent >= 0 {
			node.Parent = newIdx[bn.parent]
			node.Depth = t.Nodes[node.Parent].Depth + 1
		}
		t.Nodes[bfs] = node
	}
	for i := 1; i < n; i++ {
		p := t.Nodes[i].Parent
		t.Nodes[p].Children = append(t.Nodes[p].Children, int32(i))
	}
	for i := n - 1; i >= 0; i-- {
		t.Nodes[i].SubtreeSize = 1
		for _, c := range t.Nodes[i].Children {
			t.Nodes[i].SubtreeSize += t.Nodes[c].SubtreeSize
		}
	}
	seen := make(map[int32]bool, n)
	t.distinct = true
	for i := range t.Nodes {
		l := t.Nodes[i].Label
		if l == label.Wildcard || seen[l] {
			t.distinct = false
			break
		}
		seen[l] = true
	}
	return t, nil
}

// Canonical renders the tree in the parser syntax with every node's
// children sorted by their own canonical rendering ('/' prefix included).
// Sibling order never changes which matches exist or their scores, so two
// trees with equal canonical forms are the same query up to the BFS
// numbering of positions; the form is the cache key of the query service.
// Parsing the canonical string yields a tree whose BFS positions agree
// with the rendering.
func (t *Tree) Canonical() string {
	var rec func(u int32) string
	rec = func(u int32) string {
		cs := t.Nodes[u].Children
		if len(cs) == 0 {
			return t.LabelName(u)
		}
		parts := make([]string, len(cs))
		for i, c := range cs {
			s := rec(c)
			if t.Nodes[c].EdgeFromParent == Child {
				s = "/" + s
			}
			parts[i] = s
		}
		sort.Strings(parts)
		return t.LabelName(u) + "(" + strings.Join(parts, ",") + ")"
	}
	return rec(0)
}

// String renders the tree in the parser syntax (see Parse).
func (t *Tree) String() string {
	var sb strings.Builder
	var rec func(u int32)
	rec = func(u int32) {
		sb.WriteString(t.LabelName(u))
		if cs := t.Nodes[u].Children; len(cs) > 0 {
			sb.WriteByte('(')
			for i, c := range cs {
				if i > 0 {
					sb.WriteByte(',')
				}
				if t.Nodes[c].EdgeFromParent == Child {
					sb.WriteByte('/')
				}
				rec(c)
			}
			sb.WriteByte(')')
		}
	}
	rec(0)
	return sb.String()
}
