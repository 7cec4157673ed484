package bench

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ktpm/internal/lazy"
)

// smallEnv prepares a fast dataset for harness tests.
func smallEnv(t testing.TB, kind Kind) *Env {
	t.Helper()
	d := Dataset{Name: "test", Kind: kind, Nodes: 800, Seed: 5}
	return Prepare(d)
}

func TestQueryExtractionAtBenchScales(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// The default datasets must support the paper's query sweeps: GD up
	// to T70, GS up to T100.
	old := QueriesPerSet
	QueriesPerSet = 2
	defer func() { QueriesPerSet = old }()
	gd := Prepare(DefaultGD())
	for _, size := range SortedSizes(Citation) {
		if qs := gd.Queries(size, true); len(qs) == 0 {
			t.Errorf("GD3: no T%d queries extractable", size)
		}
	}
	gs := Prepare(DefaultGS())
	for _, size := range SortedSizes(PowerLaw) {
		if qs := gs.Queries(size, true); len(qs) == 0 {
			t.Errorf("GS3: no T%d queries extractable", size)
		}
	}
}

func TestRunTable2Small(t *testing.T) {
	tab := RunTable2([]Dataset{
		{Name: "tiny-gd", Kind: Citation, Nodes: 300, Seed: 1},
		{Name: "tiny-gs", Kind: PowerLaw, Nodes: 300, Seed: 2},
	})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if !strings.Contains(buf.String(), "tiny-gd") {
		t.Fatal("table output missing dataset name")
	}
}

func TestRunTable3Small(t *testing.T) {
	old := QueriesPerSet
	QueriesPerSet = 2
	defer func() { QueriesPerSet = old }()
	e := smallEnv(t, PowerLaw)
	tab := RunTable3(e, []int{5, 8})
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRunFig6Small(t *testing.T) {
	old := QueriesPerSet
	QueriesPerSet = 2
	defer func() { QueriesPerSet = old }()
	e := smallEnv(t, PowerLaw)
	tabs := RunFig6(e, []int{5})
	if len(tabs) != 5 {
		t.Fatalf("tables = %d, want 5 (cpu, cpu+io, top1, enum, loads)", len(tabs))
	}
	for _, tab := range tabs {
		if len(tab.Rows) != 1 {
			t.Fatalf("rows = %d in %s", len(tab.Rows), tab.Title)
		}
		// Every algorithm column must have produced a measurement.
		for _, c := range tab.Rows[0][1:] {
			if c == "-" {
				t.Fatalf("missing measurement in %s: %v", tab.Title, tab.Rows[0])
			}
		}
	}
}

func TestRunFig7Small(t *testing.T) {
	old := QueriesPerSet
	QueriesPerSet = 2
	defer func() { QueriesPerSet = old }()
	e := smallEnv(t, PowerLaw)
	// Use small query sizes that the 800-node graph supports.
	if tab := RunFig7K(e, []int{5, 10}); len(tab.Rows) != 2 {
		t.Fatalf("Fig7K rows = %d", len(tab.Rows))
	}
	if tab := RunFig7T(e, []int{5, 8}); len(tab.Rows) != 2 {
		t.Fatalf("Fig7T rows = %d", len(tab.Rows))
	}
}

func TestRunFig8Small(t *testing.T) {
	old := QueriesPerSet
	QueriesPerSet = 2
	defer func() { QueriesPerSet = old }()
	e := smallEnv(t, PowerLaw)
	if tab := RunFig8K([]*Env{e}, []int{5}); len(tab.Rows) != 1 {
		t.Fatalf("Fig8K rows = %d", len(tab.Rows))
	}
	if tab := RunFig8T([]*Env{e}, []int{5, 8}); len(tab.Rows) != 2 {
		t.Fatalf("Fig8T rows = %d", len(tab.Rows))
	}
}

func TestRunFig9Small(t *testing.T) {
	e := smallEnv(t, PowerLaw)
	tab := RunFig9Q(e)
	if len(tab.Rows) == 0 {
		t.Fatal("Fig9Q produced no rows")
	}
	tabK := RunFig9K(e, []int{3, 20})
	if len(tabK.Rows) == 0 {
		t.Fatal("Fig9K produced no rows")
	}
	// mtree and mtree+ return equal score sequences on every row.
	for _, tb := range []*Table{tab, tabK} {
		for _, row := range tb.Rows {
			if agree := row[len(row)-1]; agree != "yes" && agree != "-" {
				t.Errorf("%s: row %v: mtree and mtree+ scores disagree", tb.Title, row)
			}
		}
	}
}

func TestExtractPattern(t *testing.T) {
	e := smallEnv(t, PowerLaw)
	p := ExtractPattern(e.Graph, 4, newRng(7))
	if p == nil {
		t.Skip("no pattern extractable from this instance")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("extracted pattern invalid: %v", err)
	}
	if len(p.Labels) != 4 {
		t.Fatalf("pattern size = %d", len(p.Labels))
	}
	if len(p.Edges) < 3 {
		t.Fatalf("pattern has %d edges, want >= spanning tree", len(p.Edges))
	}
}

func TestAblations(t *testing.T) {
	old := QueriesPerSet
	QueriesPerSet = 2
	defer func() { QueriesPerSet = old }()
	e := smallEnv(t, PowerLaw)
	if tab := RunAblationTrigger(e, []int{5}); len(tab.Rows) != 1 {
		t.Fatalf("A3 rows = %d", len(tab.Rows))
	}
	if tab := RunAblationLazyQ(e, []int{5}); len(tab.Rows) != 1 {
		t.Fatalf("A2 rows = %d", len(tab.Rows))
	}
	if tab := RunAblationOracle([]Dataset{{Name: "tiny", Kind: PowerLaw, Nodes: 300, Seed: 3}}); len(tab.Rows) != 1 {
		t.Fatalf("A4 rows = %d", len(tab.Rows))
	}
}

// TestAlgorithmsAgreeAndTopkENRetrievesLeast asserts two of the paper's
// claims at test scale, on every (query, k) of distinct-label T3/T5/T8/T10
// sets over both dataset families: all four algorithms emit the same
// score sequence, and Topk-EN retrieves no more entries than DP-P, the
// other lazy algorithm. Topk-EN is not held below Topk and DP-B's m_R:
// its count includes the D/E summary entries Algorithm 2 loads up front
// (Line 1), which often exceed the run-time graph of a small query. The
// test logs how often that happens.
func TestAlgorithmsAgreeAndTopkENRetrievesLeast(t *testing.T) {
	old := QueriesPerSet
	QueriesPerSet = 10
	defer func() { QueriesPerSet = old }()
	for _, fam := range []struct {
		name string
		kind Kind
	}{{"PowerLaw", PowerLaw}, {"Citation", Citation}} {
		e := smallEnv(t, fam.kind)
		pairs, aboveMR := 0, 0
		for _, size := range []int{3, 5, 8, 10} {
			qs := e.Queries(size, true)
			if len(qs) == 0 {
				t.Fatalf("%s: no T%d queries", fam.name, size)
			}
			for qi, q := range qs {
				for _, k := range []int{1, 10, 100, 1000} {
					res := make(map[Algo]runResult, len(AllAlgos))
					for _, a := range AllAlgos {
						res[a] = e.runTotal(q, k, a)
					}
					want := res[TopkEN].scores
					for _, a := range AllAlgos {
						if !slices.Equal(res[a].scores, want) {
							t.Fatalf("%s T%d q%d k=%d: %v scores %v, Topk-EN %v", fam.name, size, qi, k, a, res[a].scores, want)
						}
					}
					if en, dpp := res[TopkEN].loaded, res[DPP].loaded; en > dpp {
						t.Errorf("%s T%d q%d k=%d: Topk-EN retrieved %d entries, DP-P %d", fam.name, size, qi, k, en, dpp)
					}
					pairs++
					if res[TopkEN].loaded > res[Topk].loaded {
						aboveMR++
					}
				}
			}
		}
		t.Logf("%s: Topk-EN retrieved more entries than m_R on %d of %d (query, k) pairs", fam.name, aboveMR, pairs)
	}
}

// TestLoadingTriggerEntriesOrdered asserts ablation A5 on the pairs of
// TestAlgorithmsAgreeAndTopkENRetrievesLeast: a stronger loading trigger
// never reads more entries, so loose >= tight >= edge-aware on every
// (query, k). Edge-aware is not held strictly below tight: the datasets
// are unit-weight and their queries mostly single-hop extractions, so a
// remaining query edge's minimum distance is usually 1, the unit the
// tight bound already counts. The test logs how often it is lower.
func TestLoadingTriggerEntriesOrdered(t *testing.T) {
	old := QueriesPerSet
	QueriesPerSet = 10
	defer func() { QueriesPerSet = old }()
	bounds := []lazy.Bound{lazy.LooseBound, lazy.TightBound, lazy.EdgeAwareBound}
	for _, fam := range []struct {
		name string
		kind Kind
	}{{"PowerLaw", PowerLaw}, {"Citation", Citation}} {
		e := smallEnv(t, fam.kind)
		pairs, edgeAwareLower := 0, 0
		var total [3]int64
		for _, size := range []int{3, 5, 8, 10} {
			qs := e.Queries(size, true)
			if len(qs) == 0 {
				t.Fatalf("%s: no T%d queries", fam.name, size)
			}
			for qi, q := range qs {
				for _, k := range []int{1, 10, 100, 1000} {
					var read [3]int64
					for bi, bound := range bounds {
						e.Store.ResetCounters()
						lazy.TopK(e.Store, q, k, lazy.Options{Bound: bound})
						read[bi] = e.Store.Counters().EntriesRead
						total[bi] += read[bi]
					}
					if read[0] < read[1] || read[1] < read[2] {
						t.Errorf("%s T%d q%d k=%d: entries loose %d, tight %d, edge-aware %d; want non-increasing", fam.name, size, qi, k, read[0], read[1], read[2])
					}
					pairs++
					if read[2] < read[1] {
						edgeAwareLower++
					}
				}
			}
		}
		t.Logf("%s: entries loose %d, tight %d, edge-aware %d; edge-aware below tight on %d of %d (query, k) pairs", fam.name, total[0], total[1], total[2], edgeAwareLower, pairs)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{Title: "demo", Header: []string{"a", "bbbb"}}
	tab.AddRow("xxxxx", "y")
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "xxxxx") {
		t.Fatalf("bad table output:\n%s", out)
	}
}
