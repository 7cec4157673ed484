package main

import (
	"testing"

	"ktpm"
)

// TestDiverseTopK exercises the future-work diversity feature.
func TestDiverseTopK(t *testing.T) {
	gb := ktpm.NewGraphBuilder()
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
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
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
	div, err := diverseTopK(db, q, 2, 0, 0)
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
	div1, _ := diverseTopK(db, q, 2, 1, 0)
	if len(div1) != 2 || div1[1].Nodes[0] != a1 {
		t.Fatalf("maxShared=1 roots = %v", div1)
	}
	// Errors.
	if _, err := diverseTopK(db, nil, 2, 0, 0); err == nil {
		t.Fatal("nil query accepted")
	}
	if _, err := diverseTopK(db, q, 2, 99, 0); err == nil {
		t.Fatal("out-of-range maxShared accepted")
	}
}
