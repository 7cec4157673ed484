// Kgpm demonstrates top-k graph pattern matching (Section 5 / [7]): the
// query is a cyclic undirected pattern, answered by decomposing it into a
// spanning tree, enumerating tree matches with Topk-EN (mtree+), and
// completing scores with the non-tree edges.
//
//	go run ./examples/kgpm
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ktpm"
)

func main() {
	// A collaboration network: authors, venues, and topics with
	// undirected-ish co-occurrence edges (built directed, mirrored
	// internally by the kGPM machinery).
	rng := rand.New(rand.NewSource(7))
	labels := []string{"author", "paper", "venue", "topic", "dataset"}
	gb := ktpm.NewGraphBuilder()
	const n = 300
	for i := 0; i < n; i++ {
		gb.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < 3*n; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			gb.AddEdge(u, v)
		}
	}
	g, err := gb.Build()
	if err != nil {
		log.Fatal(err)
	}
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
	if err != nil {
		log.Fatal(err)
	}
	env := db.NewGraphEnv()

	// A triangle with a tail: author-paper-venue closed, paper-topic open.
	pattern := &ktpm.GraphPattern{
		Labels: []string{"author", "paper", "venue", "topic"},
		Edges:  [][2]int{{0, 1}, {1, 2}, {0, 2}, {1, 3}},
	}
	fmt.Println("pattern: author-paper-venue triangle with a topic tail")

	ms, err := env.GraphTopK(pattern, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mtree+: %d match(es)\n", len(ms))
	for i, m := range ms {
		fmt.Printf("  top-%d score=%d author=%d paper=%d venue=%d topic=%d\n",
			i+1, m.Score, m.Nodes[0], m.Nodes[1], m.Nodes[2], m.Nodes[3])
	}
}
