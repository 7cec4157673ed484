package ktpm

import (
	"reflect"
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
	if want := int64(p.Edges[0].TableEntries + p.Edges[1].TableEntries); p.EstimatedRuntimeEdges != want {
		t.Fatalf("EstimatedRuntimeEdges = %d, want the edge tables' sum %d", p.EstimatedRuntimeEdges, want)
	}
	s := p.String()
	if !strings.Contains(s, "run-time graph") || strings.Contains(s, "total matches") {
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

// TestExplainPlanOverQuerySet holds Explain over a generated query set of
// several sizes to the tables themselves: each edge's TableEntries is the
// length of the closure table it names, EstimatedRuntimeEdges is their
// sum, and a lazily opened snapshot plans every query identically
// without faulting a table.
func TestExplainPlanOverQuerySet(t *testing.T) {
	g := gen.PowerLaw(gen.PowerLawConfig{Nodes: 300, AvgOutDegree: 3, Labels: 20, Window: 30, Communities: 4, Seed: 5})
	db, err := BuildDatabase(&Graph{g: g}, DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := OpenSnapshot(saveTestSnapshot(t, db), SnapshotOptions{Mode: SnapshotLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
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
			var sum int64
			for _, e := range p.Edges {
				pl, cl := q.t.Nodes[e.Parent].Label, q.t.Nodes[e.Child].Label
				if got := len(db.c.Table(pl, cl)); e.TableEntries != got {
					t.Fatalf("%s: edge %s->%s TableEntries = %d, table holds %d", q, e.ParentLabel, e.ChildLabel, e.TableEntries, got)
				}
				sum += int64(e.TableEntries)
			}
			if p.EstimatedRuntimeEdges != sum {
				t.Fatalf("%s: EstimatedRuntimeEdges = %d, edge tables sum to %d", q, p.EstimatedRuntimeEdges, sum)
			}
			sq, err := sdb.ParseQuery(tr.Canonical())
			if err != nil {
				t.Fatal(err)
			}
			sp, err := sdb.Explain(sq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(sp, p) {
				t.Fatalf("%s: snapshot plan %+v, in-memory plan %+v", q, sp, p)
			}
			n++
		}
	}
	if n == 0 {
		t.Fatal("query set is empty")
	}
	if st, _ := sdb.SnapshotStats(); st.TablesLoaded != 0 {
		t.Fatalf("planning %d queries faulted %d snapshot tables", n, st.TablesLoaded)
	}
}
