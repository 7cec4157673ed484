package shard

import (
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/graph"
	"ktpm/internal/lazy"
	"ktpm/internal/query"
	"ktpm/internal/store"
)

// chain builds a tiny a->b->c graph with two b nodes, so "a(b)" has
// matches rooted at a single a and bound to either b.
func chainStore(t *testing.T) (*store.Store, *query.Tree) {
	t.Helper()
	gb := graph.NewBuilder()
	a := gb.AddNode("a")
	b1 := gb.AddNode("b")
	b2 := gb.AddNode("b")
	c := gb.AddNode("c")
	gb.AddEdge(a, b1)
	gb.AddEdge(a, b2)
	gb.AddEdge(b1, c)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(closure.Compute(g, closure.Options{}), 0)
	qb := query.NewBuilder(g.Labels)
	root := qb.Root("a")
	qb.AddChild(root, "b", query.Descendant)
	tree, err := qb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return st, tree
}

func TestTopKEdgeCases(t *testing.T) {
	st, tree := chainStore(t)
	d, err := New(st, 3, Hash{})
	if err != nil {
		t.Fatal(err)
	}
	d.TopK(tree, 0, lazy.Options{}, func(ms []*lazy.Match) {
		if ms != nil {
			t.Fatalf("TopK(k=0) = %v, want nil", ms)
		}
	})
	d.TopK(tree, 10, lazy.Options{}, func(ms []*lazy.Match) {
		if len(ms) != 2 {
			t.Fatalf("TopK returned %d matches, want 2", len(ms))
		}
		for i := 1; i < len(ms); i++ {
			if ms[i].Score < ms[i-1].Score {
				t.Fatalf("scores regressed: %d after %d", ms[i].Score, ms[i-1].Score)
			}
		}
	})
	// With every vertex in one shard of three, two shards emit nothing;
	// the merge must still terminate and count contributions coherently.
	var merged int64
	for i := 0; i < d.NumShards(); i++ {
		merged += d.Merged(i)
	}
	if merged != 2 {
		t.Fatalf("merged contributions sum to %d, want 2", merged)
	}
	sizes := 0
	for i := 0; i < d.NumShards(); i++ {
		sizes += d.ShardSize(i)
	}
	if sizes != 4 {
		t.Fatalf("shard sizes sum to %d, want 4", sizes)
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	st, _ := chainStore(t)
	if _, err := New(st, 0, Hash{}); err == nil {
		t.Fatal("New with 0 shards succeeded")
	}
	if _, err := New(st, 2, badPartitioner{}); err == nil {
		t.Fatal("New accepted an out-of-range assignment")
	}
	if _, err := New(st, 2, shortPartitioner{}); err == nil {
		t.Fatal("New accepted a short assignment")
	}
}

type badPartitioner struct{}

func (badPartitioner) Name() string { return "bad" }
func (badPartitioner) Partition(g *graph.Graph, n int) []int32 {
	out := make([]int32, g.NumNodes())
	out[0] = int32(n) // out of range
	return out
}

type shortPartitioner struct{}

func (shortPartitioner) Name() string { return "short" }
func (shortPartitioner) Partition(g *graph.Graph, n int) []int32 {
	return make([]int32, g.NumNodes()-1)
}

func TestParse(t *testing.T) {
	if p, ok := Parse("Hash"); !ok || p.Name() != "hash" {
		t.Fatalf("Parse(Hash) = %v, %v", p, ok)
	}
	if p, ok := Parse("label"); !ok || p.Name() != "label" {
		t.Fatalf("Parse(label) = %v, %v", p, ok)
	}
	for _, bad := range []string{"", "roundrobin"} {
		if _, ok := Parse(bad); ok {
			t.Fatalf("Parse(%q) succeeded", bad)
		}
	}
}
