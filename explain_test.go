package ktpm

import (
	"strings"
	"testing"

	"ktpm/internal/gen"
)

func TestExplain(t *testing.T) {
	db := paperFig1(t)
	q, _ := db.ParseQuery("C(E,S)")
	p, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Edges) != 2 {
		t.Fatalf("edges = %d", len(p.Edges))
	}
	for _, e := range p.Edges {
		if e.TableEntries <= 0 {
			t.Fatalf("edge %s->%s table empty", e.ParentLabel, e.ChildLabel)
		}
		if e.Kind != "//" {
			t.Fatalf("edge kind = %q", e.Kind)
		}
	}
	if p.EstimatedRuntimeEdges < p.PrunedRuntimeEdges {
		t.Fatalf("raw estimate %d < pruned %d", p.EstimatedRuntimeEdges, p.PrunedRuntimeEdges)
	}
	if p.TotalMatches != db.CountMatches(q) {
		t.Fatalf("TotalMatches = %d", p.TotalMatches)
	}
	s := p.String()
	if !strings.Contains(s, "run-time graph") || !strings.Contains(s, "total matches") {
		t.Fatalf("String() = %q", s)
	}
}

func TestExplainWildcard(t *testing.T) {
	db := paperFig1(t)
	q, _ := db.ParseQuery("C(*)")
	p, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Edges[0].ChildCandidates != db.Graph().NumNodes() {
		t.Fatalf("wildcard candidates = %d", p.Edges[0].ChildCandidates)
	}
	if p.Edges[0].TableEntries <= 0 {
		t.Fatal("wildcard table entries not summed")
	}
}

func TestExplainNilQuery(t *testing.T) {
	db := paperFig1(t)
	if _, err := db.Explain(nil); err == nil {
		t.Fatal("nil query accepted")
	}
}

func TestExplainSlashEdge(t *testing.T) {
	db := paperFig1(t)
	q, _ := db.ParseQuery("C(/E)")
	p, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Edges[0].Kind != "/" {
		t.Fatalf("kind = %q", p.Edges[0].Kind)
	}
}

// TestExplainTotalMatchesOverQuerySet holds Explain's match count, taken
// from the run-time graph the plan builds, to CountMatches over a
// generated query set of several sizes.
func TestExplainTotalMatchesOverQuerySet(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{Nodes: 300, AvgOutDegree: 3, Labels: 20, Window: 30, Communities: 4, Seed: 5})
	db, err := BuildDatabase(&Graph{g: g}, DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, size := range []int{2, 3, 5, 8} {
		trees, err := gen.QuerySet(g, 6, size, true, int64(size))
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trees {
			q, err := db.ParseQuery(tr.Canonical())
			if err != nil {
				t.Fatal(err)
			}
			p, err := db.Explain(q)
			if err != nil {
				t.Fatal(err)
			}
			if want := db.CountMatches(q); p.TotalMatches != want {
				t.Fatalf("%s: Plan.TotalMatches = %d, CountMatches = %d", q, p.TotalMatches, want)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("query set is empty")
	}
}
