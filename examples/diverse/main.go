// Diverse demonstrates incremental streaming and the diverse top-k
// extension (the paper's conclusion raises result diversification as
// future work): instead of k near-identical best matches, return the best
// representative of k different regions of the graph.
//
//	go run ./examples/diverse
package main

import (
	"fmt"
	"log"
	"math/rand"

	"ktpm"
)

func main() {
	// A graph with several "neighborhoods": each has a hub h with s and t
	// satellites at varying distances, so each neighborhood contributes a
	// cluster of similar matches.
	rng := rand.New(rand.NewSource(3))
	gb := ktpm.NewGraphBuilder()
	const neighborhoods = 6
	for i := 0; i < neighborhoods; i++ {
		h := gb.AddNode("h")
		for j := 0; j < 4; j++ {
			s := gb.AddNode("s")
			t := gb.AddNode("t")
			gb.AddWeightedEdge(h, s, int32(1+rng.Intn(3)+i))
			gb.AddWeightedEdge(h, t, int32(1+rng.Intn(3)+i))
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
	q, err := db.ParseQuery("h(s,t)")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("plain top-5 (clusters around the cheapest hub):")
	plain, _ := db.TopK(q, 5)
	for i, m := range plain {
		fmt.Printf("  top-%d score=%d hub=%d\n", i+1, m.Score, m.Nodes[0])
	}

	fmt.Println("\ndiverse top-5 (no shared nodes between results):")
	diverse, err := diverseTopK(db, q, 5, 0, 0)
	if err != nil {
		log.Fatal(err)
	}
	for i, m := range diverse {
		fmt.Printf("  top-%d score=%d hub=%d\n", i+1, m.Score, m.Nodes[0])
	}

	fmt.Println("\nstreaming the first scores without fixing k up front:")
	st := db.Stream(q)
	for i := 0; i < 3; i++ {
		if m, ok := st.Next(); ok {
			fmt.Printf("  next: score=%d\n", m.Score)
		}
	}
}

// diverseTopK returns up to k matches in non-decreasing score order such
// that no two returned matches share more than maxShared data nodes. It
// streams matches with Topk-EN and greedily keeps the first (hence
// lowest-scoring) representative of each region; maxExamined bounds how
// many matches are inspected (0 means 100·k).
func diverseTopK(db *ktpm.Database, q *ktpm.Query, k, maxShared, maxExamined int) ([]ktpm.Match, error) {
	if q == nil {
		return nil, fmt.Errorf("diverse: nil query")
	}
	if maxShared < 0 || maxShared >= q.NumNodes() {
		return nil, fmt.Errorf("diverse: maxShared must be in [0, numNodes)")
	}
	if maxExamined <= 0 {
		maxExamined = 100 * k
	}
	st := db.Stream(q)
	defer st.Close()
	var kept []ktpm.Match
	for examined := 0; len(kept) < k && examined < maxExamined; examined++ {
		m, ok := st.Next()
		if !ok {
			break
		}
		diverse := true
		for _, prev := range kept {
			shared := 0
			for i := range m.Nodes {
				for _, pv := range prev.Nodes {
					if m.Nodes[i] == pv {
						shared++
						break
					}
				}
			}
			if shared > maxShared {
				diverse = false
				break
			}
		}
		if diverse {
			kept = append(kept, m)
		}
	}
	return kept, nil
}
