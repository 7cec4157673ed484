package ktpm_test

import (
	"fmt"

	"ktpm"
)

// buildExampleDB prepares the paper's Figure 1 patent-citation graph.
func buildExampleDB() *ktpm.Database {
	gb := ktpm.NewGraphBuilder()
	c := gb.AddNode("C") // a Computer Science patent ...
	e := gb.AddNode("E") // ... cited by an Economy patent
	s := gb.AddNode("S") // ... and by a Social Science patent
	x := gb.AddNode("E")
	gb.AddEdge(c, e)
	gb.AddEdge(c, s)
	gb.AddEdge(e, x)
	g, err := gb.Build()
	if err != nil {
		panic(err)
	}
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
	if err != nil {
		panic(err)
	}
	return db
}

func ExampleDatabase_TopK() {
	db := buildExampleDB()
	q, _ := db.ParseQuery("C(E,S)")
	matches, _ := db.TopK(q, 2)
	for i, m := range matches {
		fmt.Printf("top-%d score=%d\n", i+1, m.Score)
	}
	// Output:
	// top-1 score=2
	// top-2 score=3
}

func ExampleDatabase_Stream() {
	db := buildExampleDB()
	q, _ := db.ParseQuery("C(E)")
	st := db.Stream(q)
	for {
		m, ok := st.Next()
		if !ok {
			break
		}
		fmt.Printf("score=%d\n", m.Score)
	}
	// Output:
	// score=1
	// score=2
}

func ExampleDatabase_CountMatches() {
	db := buildExampleDB()
	q, _ := db.ParseQuery("C(E,S)")
	fmt.Println(db.CountMatches(q))
	// Output:
	// 2
}

func ExampleMatch_Binding() {
	db := buildExampleDB()
	q, _ := db.ParseQuery("C(E,S)")
	matches, _ := db.TopK(q, 1)
	cNode, _ := matches[0].Binding(q, "C")
	fmt.Printf("the C patent is node %d with label %s\n",
		cNode, db.Graph().LabelOf(cNode))
	// Output:
	// the C patent is node 0 with label C
}

func ExampleDatabase_Explain() {
	db := buildExampleDB()
	q, _ := db.ParseQuery("C(S)")
	plan, _ := db.Explain(q)
	fmt.Print(plan)
	// Output:
	// query C(S)
	//   edge C //S: table 1 entries, 1 child candidates
	//   run-time graph: <=1 edges raw
}
