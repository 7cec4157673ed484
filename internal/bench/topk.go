package bench

import (
	"fmt"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
	"ktpm/internal/query"
)

// TopKGraph builds the serving benchmarks' workload graph. Exported for
// the instrumentation benchmarks in internal/server, which run against
// the public ktpm API (this package cannot import ktpm: the root
// package's own benchmarks import this one).
func TopKGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{
		Nodes: 2000, AvgOutDegree: 5, Labels: 150,
		Window: 50, Communities: 10, MaxWeight: 8, Seed: 21,
	})
}

// TopKWorkload is the single source of truth for the sharded top-k
// benchmark workload, shared by BenchmarkShardedTopK, BenchmarkStreamGather
// and BenchmarkBatchTopK (bench_test.go): a weighted power-law graph
// whose spread-out scores keep tie groups small, with a distinct-label
// T4 workload and a deep k so Lawler enumeration dominates.
func TopKWorkload() (*graph.Graph, *closure.Closure, []*query.Tree, error) {
	g := TopKGraph()
	c := closure.Compute(g, closure.Options{})
	qs, err := gen.QuerySet(g, 4, 10, true, 12345)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, c, qs, nil
}

// OverloadSweepK is the overload sweep's per-request k: small enough
// that the sustainable rate is dominated by enumeration rather than
// serialization, large enough that a request is real work.
const OverloadSweepK = 100

// OverloadRow is one point of the overload sweep (benchkit -exp
// overload): an open-loop zipfian request storm at a multiple of the
// measured sustainable rate against a live ktpmd, recording the
// admitted-request latency distribution and how the overload-protection
// plane responded. The healthy picture: at 0.5x nothing is shed; at 4x
// the excess is shed as 429 (shed_429, not errors_5xx growing), the
// admitted p99 stays near the unloaded p99, and the brownout detector
// transitions. The sweep itself lives in cmd/benchkit.
type OverloadRow struct {
	Name       string  // "rate=0.5x" ... "rate=4x"
	RateMult   float64 // multiple of the sustainable rate
	OfferedQPS float64
	Sent       int
	Admitted   int // 200s
	// Shed429 counts predictive/brownout/memory sheds (429); QueueFull503
	// counts hard admission-queue rejections (503). Under overload the
	// predictive shed should fire first, keeping QueueFull503 small.
	Shed429      int
	QueueFull503 int
	// Errors5xx counts responses >= 500 other than 503 — the "5xx storm"
	// overload protection exists to prevent.
	Errors5xx int
	ShedRate  float64 // (429+503) / sent
	// Latency percentiles of admitted requests only, in milliseconds.
	P50MS  float64
	P99MS  float64
	P999MS float64
	// BrownoutStage and BrownoutTransitions are read from /stats after
	// the stage completes.
	BrownoutStage       int32
	BrownoutTransitions int64
}

// OverloadTable renders an overload sweep in the benchkit text format.
func OverloadTable(rows []*OverloadRow) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Overload sweep (k=%d, open-loop zipfian)", OverloadSweepK),
		Header: []string{"config", "qps", "sent", "ok", "429", "503", "5xx", "p50 ms", "p99 ms", "p99.9 ms"},
	}
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.0f", r.OfferedQPS),
			fmt.Sprint(r.Sent),
			fmt.Sprint(r.Admitted),
			fmt.Sprint(r.Shed429),
			fmt.Sprint(r.QueueFull503),
			fmt.Sprint(r.Errors5xx),
			fmt.Sprintf("%.1f", r.P50MS),
			fmt.Sprintf("%.1f", r.P99MS),
			fmt.Sprintf("%.1f", r.P999MS))
	}
	return t
}
