// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (Section 6) at laptop scale, plus the
// ablations listed in docs/REPRODUCTION.md.
//
// Datasets follow the paper's two families, scaled roughly 100-250×
// down so full transitive closures stay in memory (the paper streams 98 GB
// closures from disk; see docs/REPRODUCTION.md "Datasets and
// substitutions"):
//
//	GD1..GD5 — citation-style graphs (the DBLP/real analog), 1500..6000
//	           nodes. Their closures grow nearly quadratically, like the
//	           paper's real datasets (Table 2).
//	GS1..GS6 — power-law graphs (the Boost synthetic analog), 1000..5500
//	           nodes, 150 labels, average out-degree 5.
//
// Query workloads T10..T100 are random-walk subtree extractions,
// mirroring the paper's procedure, with distinct labels by default and
// duplicate labels for the Eval-IV (Topk-GT) experiments.
package bench

import (
	"fmt"
	"math/rand"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
	"ktpm/internal/query"
	"ktpm/internal/store"
)

// Kind distinguishes the two dataset families.
type Kind int

const (
	// Citation is the real-data (DBLP/patent) analog.
	Citation Kind = iota
	// PowerLaw is the synthetic analog.
	PowerLaw
)

// Dataset describes one benchmark graph.
type Dataset struct {
	Name  string
	Kind  Kind
	Nodes int
	Seed  int64
}

// GD lists the citation-style datasets (the paper's GD1..GD5 analogs).
// Sizes are bounded by closure memory: windowed citation graphs have
// reachability cones covering a large fraction of later papers, so the
// closure grows near-quadratically like the paper's Table 2.
var GD = []Dataset{
	{Name: "GD1", Kind: Citation, Nodes: 1500, Seed: 11},
	{Name: "GD2", Kind: Citation, Nodes: 2500, Seed: 12},
	{Name: "GD3", Kind: Citation, Nodes: 4000, Seed: 13},
	{Name: "GD4", Kind: Citation, Nodes: 5000, Seed: 14},
	{Name: "GD5", Kind: Citation, Nodes: 6000, Seed: 15},
}

// GS lists the power-law datasets (the paper's GS1..GS6 analogs). The top
// size is bounded by closure memory: GS6's closure holds ~12M entries.
var GS = []Dataset{
	{Name: "GS1", Kind: PowerLaw, Nodes: 1000, Seed: 21},
	{Name: "GS2", Kind: PowerLaw, Nodes: 1600, Seed: 22},
	{Name: "GS3", Kind: PowerLaw, Nodes: 2500, Seed: 23},
	{Name: "GS4", Kind: PowerLaw, Nodes: 3500, Seed: 24},
	{Name: "GS5", Kind: PowerLaw, Nodes: 4500, Seed: 25},
	{Name: "GS6", Kind: PowerLaw, Nodes: 5500, Seed: 26},
}

// DefaultGD returns GD3, the paper's default real dataset.
func DefaultGD() Dataset { return GD[2] }

// DefaultGS returns GS3, the paper's default synthetic dataset.
func DefaultGS() Dataset { return GS[2] }

// Build materializes the dataset's graph.
func (d Dataset) Build() *graph.Graph {
	switch d.Kind {
	case Citation:
		// 100 venues with moderate Zipf skew: enough distinct labels for
		// the T70 workloads (the paper cannot build T100 on real data and
		// neither can this analog) while keeping label-pair tables (θ) in
		// the regime where lazy loading matters. The citation window
		// makes shortest paths grow with publication distance, restoring
		// the deep distance distribution of the million-node original.
		return gen.Citation(gen.CitationConfig{
			Nodes:        d.Nodes,
			AvgOutDegree: 3,
			Venues:       100,
			ZipfS:        1.2,
			Window:       50,
			Communities:  8,
			Seed:         d.Seed,
		})
	case PowerLaw:
		// Average degree 5 rather than the paper's 3 and a 150-label
		// alphabet: at ~50× smaller scale this keeps the reachability
		// cones deep and label-dense enough for the T100 workloads.
		return gen.PowerLaw(gen.PowerLawConfig{
			Nodes:        d.Nodes,
			AvgOutDegree: 5,
			Labels:       150,
			Window:       50,
			Communities:  10,
			Seed:         d.Seed,
		})
	}
	panic(fmt.Sprintf("bench: unknown dataset kind %d", d.Kind))
}

// Env is one prepared dataset: graph, closure, and simulated store, with
// cached query sets.
type Env struct {
	Dataset Dataset
	Graph   *graph.Graph
	Closure *closure.Closure
	Store   *store.Store

	queries map[querySetKey][]*query.Tree
}

type querySetKey struct {
	size     int
	distinct bool
}

// Prepare builds the dataset and its derived structures. The closure
// build corresponds to the paper's offline pre-computation (Table 2).
func Prepare(d Dataset) *Env {
	g := d.Build()
	c := closure.Compute(g, closure.Options{})
	return &Env{
		Dataset: d,
		Graph:   g,
		Closure: c,
		Store:   store.New(c, store.DefaultBlockSize),
		queries: make(map[querySetKey][]*query.Tree),
	}
}

// QueriesPerSet is how many queries each Tn workload holds. The paper uses
// 100; the laptop harness defaults to 5 and reports averages the same way.
var QueriesPerSet = 5

// Queries returns (building and caching on first use) the Tn query set of
// the given size. Sets that cannot be extracted (the paper's "we are
// unable to retrieve T100" case) come back empty.
func (e *Env) Queries(size int, distinct bool) []*query.Tree {
	key := querySetKey{size, distinct}
	if qs, ok := e.queries[key]; ok {
		return qs
	}
	qs, err := gen.QuerySet(e.Graph, QueriesPerSet, size, distinct, e.Dataset.Seed*1000+int64(size))
	if err != nil {
		qs = nil
	}
	e.queries[key] = qs
	return qs
}

// newRng is a test/seed helper kept here so harness consumers share one
// source construction.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
