// Package gen provides deterministic workload generators for the
// experiment suite (Section 6) and tests.
//
// The paper evaluates on the DBLP citation network ("real") and on Boost
// PLOD power-law graphs ("synthetic"). Neither input ships with this
// repository, so gen substitutes:
//
//   - Citation: a citation-style graph — edges point from earlier
//     publications to later citing ones, out-degrees are skewed, and labels
//     (venues) follow a Zipf distribution, matching DBLP's label
//     selectivity profile. This is the GD* analog.
//   - PowerLaw: a preferential-attachment power-law digraph with average
//     out-degree 3 and uniformly random labels from a fixed alphabet,
//     matching the paper's synthetic GS* datasets.
//
// Query workloads reproduce the paper's procedure: "use random walks to
// randomly generate query sets ... subtrees of the run-time graph", which
// guarantees at least one match exists.
package gen

import (
	"fmt"
	"math/rand"

	"ktpm/internal/graph"
)

// PowerLawConfig configures PowerLaw.
type PowerLawConfig struct {
	Nodes int
	// AvgOutDegree is the average out-degree; the paper uses 3.
	AvgOutDegree int
	// Labels is the alphabet size; the paper uses 200.
	Labels int
	// MixUniform is the probability of choosing an edge source uniformly
	// instead of preferentially (0 = pure preferential attachment, 1 =
	// uniform random DAG). Preferential attachment alone concentrates
	// edges on a few early hubs so hard that reachability cones collapse
	// to a few dozen nodes at laptop scale, which would make the paper's
	// T50-T100 workloads unextractable (see docs/REPRODUCTION.md); the default 0.8
	// keeps a skewed out-degree tail while preserving deep cones.
	MixUniform float64
	// MaxWeight, when > 1, draws edge weights uniformly from [1,
	// MaxWeight]. The paper's graphs are unit-weight, but at million-node
	// scale their shortest-path scores spread over a wide range; weighted
	// edges restore that spread at laptop scale (Section 2 notes the
	// techniques carry over to weighted scores unchanged).
	MaxWeight int32
	// Window, when positive, restricts edge sources to the last Window
	// nodes (plus a 5% chance of a global long-range link). Windowed
	// wiring makes path lengths grow with node distance, reproducing the
	// deep shortest-path distribution of million-node graphs that the
	// priority-order loading exploits; without it a laptop-scale graph is
	// so shallow that every candidate looks equally promising.
	Window int
	// Communities, when positive, assigns labels with topical locality:
	// node ranges form communities, and 70% of a node's label mass comes
	// from its community's home pool. Real graphs cluster topically —
	// most label-pair occurrences are far apart and only the local ones
	// are close — which is the heterogeneity that makes priority-order
	// loading effective. Zero disables community structure.
	Communities int
	Seed        int64
}

// PowerLaw generates a preferential-attachment power-law digraph. Each new
// node receives edges from existing nodes chosen with probability
// proportional to (out-degree + 1), giving a heavy-tailed out-degree
// distribution like the Boost PLOD generator the paper uses, and the
// forward edge orientation (hub → later node) that makes reachability
// cones deep enough to support the paper's T100 query workloads.
func PowerLaw(cfg PowerLawConfig) *graph.Graph {
	if cfg.AvgOutDegree <= 0 {
		cfg.AvgOutDegree = 3
	}
	if cfg.Labels <= 0 {
		cfg.Labels = 200
	}
	if cfg.MixUniform <= 0 {
		cfg.MixUniform = 0.8
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	b := graph.NewBuilder()
	for i := 0; i < cfg.Nodes; i++ {
		b.AddNode(fmt.Sprintf("L%03d", drawLabel(rng, i, cfg.Nodes, cfg.Labels, cfg.Communities, nil)))
	}
	// sources is a repeated-node sampling pool implementing preferential
	// attachment: a node appears once per outgoing edge plus once
	// unconditionally.
	sources := make([]int32, 0, cfg.Nodes*(cfg.AvgOutDegree+1))
	for v := 1; v < cfg.Nodes; v++ {
		sources = append(sources, int32(v-1)) // every node enters the pool once
		// In-degree of the new node ~ uniform in [1, 2*avg-1], mean = avg,
		// which is also the average out-degree across the graph.
		deg := 1 + rng.Intn(2*cfg.AvgOutDegree-1)
		seen := map[int32]bool{}
		for d := 0; d < deg && d < v; d++ {
			var from int32
			switch {
			case cfg.Window > 0:
				if rng.Float64() < 0.05 {
					from = int32(rng.Intn(v)) // rare long-range link
				} else {
					lo := v - cfg.Window
					if lo < 0 {
						lo = 0
					}
					from = int32(lo + rng.Intn(v-lo))
				}
			case rng.Float64() < cfg.MixUniform:
				from = int32(rng.Intn(v))
			default:
				from = sources[rng.Intn(len(sources))]
			}
			if from == int32(v) || seen[from] {
				continue
			}
			seen[from] = true
			b.AddWeightedEdge(from, int32(v), drawWeight(rng, cfg.MaxWeight))
			sources = append(sources, from)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic("gen: PowerLaw produced invalid graph: " + err.Error())
	}
	return g
}

// CitationConfig configures Citation.
type CitationConfig struct {
	Nodes int
	// AvgOutDegree is the average number of citations per paper.
	AvgOutDegree int
	// Venues is the number of distinct labels (the paper's DBLP slice has
	// 3136; scaled runs use fewer to keep label selectivity comparable).
	Venues int
	// ZipfS is the Zipf exponent for venue popularity (>1). Default 1.3.
	ZipfS float64
	// MaxWeight, when > 1, draws edge weights uniformly from [1,
	// MaxWeight]; see PowerLawConfig.MaxWeight.
	MaxWeight int32
	// Window, when positive, restricts citations to the last Window
	// papers (plus 5% long-range); see PowerLawConfig.Window.
	Window int
	// Communities, when positive, gives venues topical locality; see
	// PowerLawConfig.Communities.
	Communities int
	Seed        int64
}

// Citation generates a citation-style graph: node i (an earlier paper) is
// cited by later papers, i.e. edges run old → new following the paper's
// reading of the patent graph ("a patent in CS is cited by one in
// Economy"), with recency-biased citation choice and Zipf venue labels.
func Citation(cfg CitationConfig) *graph.Graph {
	if cfg.AvgOutDegree <= 0 {
		cfg.AvgOutDegree = 3
	}
	if cfg.Venues <= 0 {
		cfg.Venues = 100
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.3
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Venues-1))
	b := graph.NewBuilder()
	for i := 0; i < cfg.Nodes; i++ {
		b.AddNode(fmt.Sprintf("V%03d", drawLabel(rng, i, cfg.Nodes, cfg.Venues, cfg.Communities, zipf)))
	}
	for v := 1; v < cfg.Nodes; v++ {
		deg := 1 + rng.Intn(2*cfg.AvgOutDegree-1)
		seen := map[int32]bool{}
		for d := 0; d < deg && d < v; d++ {
			var anc int32
			if cfg.Window > 0 {
				if rng.Float64() < 0.05 {
					anc = int32(rng.Intn(v))
				} else {
					lo := v - cfg.Window
					if lo < 0 {
						lo = 0
					}
					anc = int32(lo + rng.Intn(v-lo))
				}
			} else {
				// Recency bias: sample an ancestor index with quadratic
				// skew toward recent papers, like real citation behaviour.
				f := rng.Float64()
				anc = int32(float64(v) * (1 - f*f))
				if anc >= int32(v) {
					anc = int32(v) - 1
				}
			}
			if seen[anc] {
				continue
			}
			seen[anc] = true
			// Edge old → new: the cited paper "reaches" its citers, which
			// is the direction the paper's twig example uses.
			b.AddWeightedEdge(anc, int32(v), drawWeight(rng, cfg.MaxWeight))
		}
	}
	g, err := b.Build()
	if err != nil {
		panic("gen: Citation produced invalid graph: " + err.Error())
	}
	return g
}

// drawLabel draws node i's label. With communities, node ranges form
// contiguous communities; 70% of draws come from the community's home
// slice of the alphabet and the rest from the global distribution (zipf
// when provided, uniform otherwise).
func drawLabel(rng *rand.Rand, i, n, labels, communities int, zipf *rand.Zipf) int {
	global := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		return rng.Intn(labels)
	}
	if communities <= 0 {
		return global()
	}
	if communities > labels {
		communities = labels
	}
	com := i * communities / n
	if com >= communities {
		com = communities - 1
	}
	if rng.Float64() < 0.7 {
		pool := labels / communities
		return com*pool + rng.Intn(pool)
	}
	return global()
}

// drawWeight draws a uniform edge weight in [1, maxW] (1 when maxW <= 1).
func drawWeight(rng *rand.Rand, maxW int32) int32 {
	if maxW <= 1 {
		return 1
	}
	return 1 + rng.Int31n(maxW)
}

// ErdosRenyi generates a uniform random digraph with n nodes and about m
// edges over the given label alphabet; handy for property tests.
func ErdosRenyi(n, m, labels int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("L%03d", rng.Intn(labels)))
	}
	for i := 0; i < m; i++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u != v {
			b.AddEdge(u, v)
		}
	}
	g, err := b.Build()
	if err != nil {
		panic("gen: ErdosRenyi produced invalid graph: " + err.Error())
	}
	return g
}
