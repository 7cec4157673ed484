package ktpm

import (
	"fmt"
	"sync"
	"testing"
)

// TestTaxonomyContainment exercises the Section 5 label-containment
// extension end to end.
func TestTaxonomyContainment(t *testing.T) {
	gb := NewGraphBuilder()
	zoo := gb.AddNode("zoo")
	dog := gb.AddNode("dog")
	cat := gb.AddNode("cat")
	rock := gb.AddNode("rock")
	gb.AddEdge(zoo, dog)
	gb.AddEdge(zoo, cat)
	gb.AddEdge(zoo, rock)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildDatabase(g, DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// "animal" exists only in the taxonomy, so intern it via a query.
	tx := NewTaxonomy()
	tx.AddSubsumption("animal", "dog")
	tx.AddSubsumption("animal", "cat")

	// Register the taxonomy-only label with the interner by parsing a
	// query that names it.
	q, err := db.ParseQuery("zoo(animal)")
	if err != nil {
		t.Fatal(err)
	}

	// Exact matching finds nothing: no data node is labeled "animal".
	exact, err := db.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 0 {
		t.Fatalf("exact matching found %d matches for a taxonomy-only label", len(exact))
	}

	// Containment matching finds the dog and the cat, not the rock.
	ms, err := db.TopKContained(q, 10, tx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("containment found %d matches, want 2", len(ms))
	}
	for _, m := range ms {
		if m.Nodes[1] == rock {
			t.Fatal("containment matched the rock")
		}
		if m.Nodes[1] != dog && m.Nodes[1] != cat {
			t.Fatalf("containment matched unexpected node %d", m.Nodes[1])
		}
	}
}

func TestTaxonomyTransitive(t *testing.T) {
	tx := NewTaxonomy()
	tx.AddSubsumption("thing", "animal")
	tx.AddSubsumption("animal", "dog")
	got := tx.Contains("thing")
	want := map[string]bool{"thing": true, "animal": true, "dog": true}
	if len(got) != len(want) {
		t.Fatalf("Contains = %v", got)
	}
	for _, n := range got {
		if !want[n] {
			t.Fatalf("unexpected contained label %q", n)
		}
	}
}

func TestTaxonomyCycleTolerated(t *testing.T) {
	tx := NewTaxonomy()
	tx.AddSubsumption("a", "b")
	tx.AddSubsumption("b", "a")
	if got := tx.Contains("a"); len(got) != 2 {
		t.Fatalf("cyclic Contains = %v", got)
	}
}

func TestTopKContainedNilTaxonomy(t *testing.T) {
	db := paperFig1(t)
	q, _ := db.ParseQuery("C(E,S)")
	ms, err := db.TopKContained(q, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := db.TopK(q, 5)
	if len(ms) != len(ref) {
		t.Fatalf("nil taxonomy: %d vs %d", len(ms), len(ref))
	}
}

// TestDiverseTopK exercises the future-work diversity feature.
func TestDiverseTopK(t *testing.T) {
	gb := NewGraphBuilder()
	// Two disjoint regions matching a(b); region 1 much cheaper.
	a1 := gb.AddNode("a")
	b1 := gb.AddNode("b")
	b2 := gb.AddNode("b")
	a2 := gb.AddNode("a")
	b3 := gb.AddNode("b")
	gb.AddEdge(a1, b1)
	gb.AddWeightedEdge(a1, b2, 2)
	gb.AddWeightedEdge(a2, b3, 5)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildDatabase(g, DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := db.ParseQuery("a(b)")

	// Plain top-2 shares a1.
	plain, _ := db.TopK(q, 2)
	if plain[0].Nodes[0] != a1 || plain[1].Nodes[0] != a1 {
		t.Fatalf("plain top-2 roots = %d,%d", plain[0].Nodes[0], plain[1].Nodes[0])
	}
	// Diverse top-2 with zero shared nodes must pick both regions.
	div, err := db.DiverseTopK(q, 2, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(div) != 2 {
		t.Fatalf("diverse returned %d", len(div))
	}
	if div[0].Nodes[0] != a1 || div[1].Nodes[0] != a2 {
		t.Fatalf("diverse roots = %d,%d, want %d,%d", div[0].Nodes[0], div[1].Nodes[0], a1, a2)
	}
	// maxShared = 1 allows sharing the a-node again.
	div1, _ := db.DiverseTopK(q, 2, 1, 0)
	if len(div1) != 2 || div1[1].Nodes[0] != a1 {
		t.Fatalf("maxShared=1 roots = %v", div1)
	}
	// Errors.
	if _, err := db.DiverseTopK(nil, 2, 0, 0); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, err := db.DiverseTopK(q, 2, 99, 0); err == nil {
		t.Fatal("out-of-range maxShared accepted")
	}
}

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
