package ktpm

import (
	"fmt"
	"sync"
	"testing"
)

// TestNodeWeightsThroughFacade checks the footnote-2 scoring end to end.
func TestNodeWeightsThroughFacade(t *testing.T) {
	gb := NewGraphBuilder()
	a1 := gb.AddNode("a")
	a2 := gb.AddNode("a")
	b1 := gb.AddNode("b")
	gb.AddEdge(a1, b1)
	gb.AddEdge(a2, b1)
	gb.SetNodeWeight(a1, 10)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildDatabase(g, DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := db.ParseQuery("a(b)")
	topkEN, err := db.TopK(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	results := map[string][]Match{"Topk-EN": topkEN, "oracle": oracleTopK(db, q, 2)}
	for _, b := range baselines {
		results[b.String()] = runBaseline(db, q, 2, b)
	}
	for algo, ms := range results {
		if len(ms) != 2 {
			t.Fatalf("%v: %d matches", algo, len(ms))
		}
		if ms[0].Nodes[0] != a2 || ms[0].Score != 1 {
			t.Fatalf("%v: top-1 root %d score %d", algo, ms[0].Nodes[0], ms[0].Score)
		}
		if ms[1].Nodes[0] != a1 || ms[1].Score != 11 {
			t.Fatalf("%v: top-2 root %d score %d", algo, ms[1].Nodes[0], ms[1].Score)
		}
	}
}

// TestConcurrentQueries runs many queries against one Database from
// parallel goroutines; results must match the sequential reference. Run
// under -race this also validates the store's cache synchronization.
func TestConcurrentQueries(t *testing.T) {
	db := paperFig1(t)
	queries := []string{"C(E,S)", "C(E)", "C(S)", "E(S)", "C(*)", "C(/E)"}
	type ref struct {
		scores []int64
	}
	refs := make(map[string]ref)
	for _, qs := range queries {
		q, err := db.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := db.TopK(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		r := ref{}
		for _, m := range ms {
			r.scores = append(r.scores, m.Score)
		}
		refs[qs] = r
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				qs := queries[(worker+round)%len(queries)]
				q, err := db.ParseQuery(qs)
				if err != nil {
					errs <- err
					return
				}
				ms, err := db.TopK(q, 10)
				if err != nil {
					errs <- err
					return
				}
				want := refs[qs].scores
				if len(ms) != len(want) {
					errs <- fmt.Errorf("%s: %d matches, want %d", qs, len(ms), len(want))
					return
				}
				for i := range ms {
					if ms[i].Score != want[i] {
						errs <- fmt.Errorf("%s: top-%d = %d, want %d", qs, i+1, ms[i].Score, want[i])
						return
					}
				}
			}
		}(worker)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
