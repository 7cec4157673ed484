package ktpm

import (
	"fmt"
	"strings"

	"ktpm/internal/label"
)

// EdgePlan describes one query edge in an explain plan.
type EdgePlan struct {
	// Parent and Child are the query positions (BFS indexes).
	Parent, Child int
	// ParentLabel and ChildLabel are display names.
	ParentLabel, ChildLabel string
	// Kind is "/" or "//".
	Kind string
	// TableEntries is |L^α_β|, the closure entries a full scan reads.
	TableEntries int
	// ChildCandidates counts data nodes carrying the child label.
	ChildCandidates int
}

// Plan is the result of Database.Explain: per-edge table statistics and
// the run-time-graph bound they add up to. Topk-EN loads a prefix of
// that bound; a materializing enumerator would pay all of it.
type Plan struct {
	Query string
	Edges []EdgePlan
	// EstimatedRuntimeEdges is m_R before pruning (the sum of the
	// edge-table sizes); the pruned run-time graph is at most this.
	EstimatedRuntimeEdges int64
}

// Explain analyzes q without enumerating matches: it reports the closure
// tables each query edge touches and their total, the run-time graph's
// size before pruning. It reads only the table directory, so it never
// faults a table into a lazily opened snapshot and never builds the
// run-time graph.
func (db *Database) Explain(q *Query) (*Plan, error) {
	if q == nil || q.t == nil {
		return nil, fmt.Errorf("ktpm: nil query")
	}
	p := &Plan{Query: q.String()}
	for u := 1; u < q.t.NumNodes(); u++ {
		node := q.t.Nodes[u]
		parent := node.Parent
		ep := EdgePlan{
			Parent:      int(parent),
			Child:       u,
			ParentLabel: q.t.LabelName(parent),
			ChildLabel:  q.t.LabelName(int32(u)),
			Kind:        node.EdgeFromParent.String(),
		}
		pl, cl := q.t.Nodes[parent].Label, node.Label
		if pl != label.Wildcard && cl != label.Wildcard {
			ep.TableEntries = db.c.TableLen(pl, cl)
			ep.ChildCandidates = len(db.g.NodesWithLabel(cl))
		} else {
			// A wildcard side touches every table matching the other
			// side's label; sum them.
			db.c.TableLens(func(a, b int32, count int) bool {
				if (pl == label.Wildcard || a == pl) && (cl == label.Wildcard || b == cl) {
					ep.TableEntries += count
				}
				return true
			})
			if cl == label.Wildcard {
				ep.ChildCandidates = db.g.NumNodes()
			} else {
				ep.ChildCandidates = len(db.g.NodesWithLabel(cl))
			}
		}
		p.Edges = append(p.Edges, ep)
		p.EstimatedRuntimeEdges += int64(ep.TableEntries)
	}
	return p, nil
}

// String renders the plan for CLI output.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "query %s\n", p.Query)
	for _, e := range p.Edges {
		fmt.Fprintf(&sb, "  edge %s %s%s: table %d entries, %d child candidates\n",
			e.ParentLabel, e.Kind, e.ChildLabel, e.TableEntries, e.ChildCandidates)
	}
	fmt.Fprintf(&sb, "  run-time graph: <=%d edges raw\n", p.EstimatedRuntimeEdges)
	return sb.String()
}
