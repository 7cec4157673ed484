package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
	"ktpm/internal/lazy"
	"ktpm/internal/query"
	"ktpm/internal/shard"
	"ktpm/internal/store"
)

// TopKRow is one configuration of the sharded top-k benchmark as recorded
// in BENCH_topk.json: timing, allocation, and simulated-I/O accounting for
// one shard count of the sweep. TablesRead is the headline number — flat
// across shard counts, because every shard reads the one derived plane.
type TopKRow struct {
	Name        string  `json:"name"`
	Shards      int     `json:"shards"`
	Sharing     string  `json:"sharing"` // "shared", or "single" for the unsharded baseline
	Ops         int     `json:"ops"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// TablesRead counts summary tables derived from the simulated disk
	// over the whole run (not per op): the shared plane derives each
	// distinct table once regardless of shard count.
	TablesRead int64 `json:"tables_read"`
	// TableHits counts table loads served by the derived plane.
	TableHits  int64 `json:"table_hits"`
	BlocksRead int64 `json:"blocks_read"`
}

// BatchRow is one point of the batch amortization sweep in
// BENCH_topk.json: per-item latency of answering BatchSize queries
// (cycling UniqueQueries distinct ones) either as individual TopK calls
// ("loop") or as one TopKBatch call ("batch", which enumerates each
// distinct query once).
type BatchRow struct {
	Name          string  `json:"name"` // "batch=N/mode"
	BatchSize     int     `json:"batch_size"`
	UniqueQueries int     `json:"unique_queries"`
	Mode          string  `json:"mode"` // "loop" or "batch"
	Ops           int     `json:"ops"`
	NsPerItem     float64 `json:"ns_per_item"`
}

// StartupRow is one point of the snapshot startup sweep in
// BENCH_topk.json: how long opening a database takes — and how much the
// first query then pays — per acquisition mode at a given graph size.
// Mode "build" is BuildDatabase from the raw graph (closure computed at
// startup); "eager", "lazy", and "mmap" open a prepared KTPMSNAP2
// snapshot (ktpm.OpenSnapshot). Lazy and mmap open in O(directory) time,
// which is the headline: open_ms collapses while first_query_ms pays a
// modest fault-in premium once.
type StartupRow struct {
	Name  string `json:"name"` // "n=N/mode"
	Nodes int    `json:"nodes"`
	Mode  string `json:"mode"`
	Ops   int    `json:"ops"`
	// OpenMS is the mean wall time to open (or build) the database.
	OpenMS float64 `json:"open_ms"`
	// FirstQueryMS is the mean wall time of the first TopK on the fresh
	// database — where lazy modes pay their deferred table faults.
	FirstQueryMS float64 `json:"first_query_ms"`
	// SnapshotBytes is the snapshot file size (0 for "build" rows).
	SnapshotBytes int64 `json:"snapshot_bytes"`
}

// StartupGraph builds the startup sweep's workload graph at the given
// node count; at 2000 nodes it is exactly TopKGraph, so the sweep's
// largest point matches the serving sweeps' graph.
func StartupGraph(nodes int) *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{
		Nodes: nodes, AvgOutDegree: 5, Labels: 150,
		Window: 50, Communities: 10, MaxWeight: 8, Seed: 21,
	})
}

// StartupTable renders a startup sweep in the benchkit text format.
func StartupTable(rows []*StartupRow) *Table {
	t := &Table{
		Title:  "Snapshot startup sweep (open + first query)",
		Header: []string{"config", "open ms", "1st query ms", "snap MB"},
	}
	for _, r := range rows {
		t.AddRow(r.Name,
			fmt.Sprintf("%.2f", r.OpenMS),
			fmt.Sprintf("%.2f", r.FirstQueryMS),
			fmt.Sprintf("%.1f", float64(r.SnapshotBytes)/1e6))
	}
	return t
}

// TopKReport is the BENCH_topk.json document.
type TopKReport struct {
	Workload struct {
		Graph   string `json:"graph"`
		Queries int    `json:"queries"`
		K       int    `json:"k"`
		Ops     int    `json:"ops_per_config"`
	} `json:"workload"`
	GOOS   string     `json:"goos"`
	GOARCH string     `json:"goarch"`
	CPUs   int        `json:"cpus"`
	Rows   []*TopKRow `json:"rows"`
	// BatchSweep and StartupSweep are filled by the batch and startup
	// experiments (benchkit -exp batch,startup; -json runs them
	// automatically so the committed document always carries every
	// section).
	BatchSweep    []*BatchRow    `json:"batch_sweep"`
	StartupSweep  []*StartupRow  `json:"startup_sweep"`
	ObsSweep      []*ObsRow      `json:"obs_sweep"`
	DistSweep     []*DistRow     `json:"dist_sweep"`
	OverloadSweep []*OverloadRow `json:"overload_sweep"`
}

// ObsRow is one configuration of the instrumentation-overhead sweep in
// BENCH_topk.json: warm-cache /query latency through the full HTTP
// server with observability on (root span, stage spans, histograms,
// trace ring) versus off (Config.DisableObs). The "obs=on" row's
// overhead_pct is its ns_per_op relative to the off row — the number the
// ≤5% instrumentation budget is checked against. The sweep itself lives
// in cmd/benchkit (it exercises ktpm/internal/server, which this package
// cannot import: the root package's benchmarks import internal/bench).
type ObsRow struct {
	Name    string  `json:"name"` // "obs=on" or "obs=off"
	Enabled bool    `json:"enabled"`
	Ops     int     `json:"ops"`
	NsPerOp float64 `json:"ns_per_op"`
	// OverheadPct is (on-off)/off*100 on the enabled row, 0 on the
	// baseline row. Negative values are run-to-run noise.
	OverheadPct float64 `json:"overhead_pct"`
}

// ObsTable renders an instrumentation-overhead sweep in the benchkit
// text format.
func ObsTable(rows []*ObsRow) *Table {
	t := &Table{
		Title:  "Instrumentation overhead sweep (warm-cache /query)",
		Header: []string{"config", "us/op", "overhead %"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%.1f", r.NsPerOp/1e3), fmt.Sprintf("%+.1f", r.OverheadPct))
	}
	return t
}

// TopKGraph builds the workload graph shared by every sweep behind
// BENCH_topk.json. Exported for cmd/benchkit's batch sweep, which runs
// against the public ktpm API (this package cannot import ktpm: the
// root package's own benchmarks import this one).
func TopKGraph() *graph.Graph {
	return gen.PowerLaw(gen.PowerLawConfig{
		Nodes: 2000, AvgOutDegree: 5, Labels: 150,
		Window: 50, Communities: 10, MaxWeight: 8, Seed: 21,
	})
}

// TopKWorkload is the single source of truth for the sharded top-k
// benchmark workload, shared by BenchmarkShardedTopK /
// BenchmarkShardPlaneSweep (bench_test.go) and the benchkit topk sweep
// behind BENCH_topk.json: a weighted power-law graph whose spread-out
// scores keep tie groups small, with a distinct-label T4 workload and a
// deep k so Lawler enumeration dominates.
func TopKWorkload() (*graph.Graph, *closure.Closure, []*query.Tree, error) {
	g := TopKGraph()
	c := closure.Compute(g, closure.Options{})
	qs, err := gen.QuerySet(g, 4, 10, true, 12345)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, c, qs, nil
}

// runTopKConfig measures one sweep point on a fresh store (fresh derived
// plane, so TablesRead counts this configuration's own derives). shards 0
// is the unsharded baseline.
func runTopKConfig(c *closure.Closure, qs []*query.Tree, k, ops, shards int) (*TopKRow, error) {
	st := store.New(c, 0)
	var db *shard.DB
	if shards > 0 {
		var err error
		if db, err = shard.New(st, shards, shard.LabelBalanced{}); err != nil {
			return nil, err
		}
	}

	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		q := qs[i%len(qs)]
		if db != nil {
			db.TopK(q, k)
		} else {
			// Canonical semantics, like the public Database.TopK: the
			// tie group at the k-th score is drained and sorted, so the
			// single row prices the same contract the sharded rows do.
			lazy.TopKCanonical(st, q, k, lazy.Options{})
		}
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	cnt := st.Counters()
	if db != nil {
		cnt = db.Counters()
	}
	name, sharing := "single", "single"
	if db != nil {
		name, sharing = fmt.Sprintf("shards=%d/shared", shards), "shared"
	}
	return &TopKRow{
		Name:        name,
		Shards:      max(shards, 1),
		Sharing:     sharing,
		Ops:         ops,
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(ops),
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / float64(ops),
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(ops),
		TablesRead:  cnt.TablesRead,
		TableHits:   cnt.TableHits,
		BlocksRead:  cnt.BlocksRead,
	}, nil
}

// RunTopKSweep runs the shard-count sweep behind BENCH_topk.json: the
// unsharded baseline, then {1,2,4,8} shards over the shared derived
// plane. ops is the iteration count per configuration (0 means 5).
func RunTopKSweep(ops int) (*TopKReport, error) {
	if ops <= 0 {
		ops = 5
	}
	const k = 1500
	_, c, qs, err := TopKWorkload()
	if err != nil {
		return nil, err
	}
	rep := &TopKReport{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU()}
	rep.Workload.Graph = "powerlaw n=2000 deg=5 labels=150 maxw=8 seed=21"
	rep.Workload.Queries = len(qs)
	rep.Workload.K = k
	rep.Workload.Ops = ops

	for _, n := range []int{0, 1, 2, 4, 8} {
		row, err := runTopKConfig(c, qs, k, ops, n)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// BatchSweepK is the batch sweep's per-item k: smaller than the shard
// sweep's 1500 so the "loop" baseline at batch=32 stays affordable. The
// sweep itself lives in cmd/benchkit (it exercises the public
// ktpm.Database.TopKBatch API, which this package cannot import).
const BatchSweepK = 300

// DistSweepK is the distributed sweep's k, matching BatchSweepK so its
// local baseline is comparable to the other serving sweeps.
const DistSweepK = 300

// DistRow is one point of the local-vs-distributed sweep in
// BENCH_topk.json: top-k latency through the scatter-gather coordinator
// over N loopback HTTP workers, against the same database answered
// locally. HedgeRate is hedged opens per worker stream request — how
// often the coordinator's tail-latency hedge actually fired against
// healthy local workers (each shard has a hedge replica configured).
// The sweep itself lives in cmd/benchkit (it exercises ktpm and
// internal/remote, which this package cannot import: the root package's
// benchmarks import internal/bench, and remote's coordinator consumes
// the public ktpm API).
type DistRow struct {
	Name    string  `json:"name"`    // "local" or "workers=N"
	Workers int     `json:"workers"` // 0 on the local row
	Ops     int     `json:"ops"`
	NsPerOp float64 `json:"ns_per_op"`
	// HedgeRate is hedges/requests across the configuration's run; 0 on
	// the local row.
	HedgeRate float64 `json:"hedge_rate"`
}

// DistTable renders a distributed sweep in the benchkit text format.
func DistTable(rows []*DistRow) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Distributed scatter-gather sweep (k=%d, loopback workers)", DistSweepK),
		Header: []string{"config", "ms/op", "hedge rate"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%.1f", r.NsPerOp/1e6), fmt.Sprintf("%.3f", r.HedgeRate))
	}
	return t
}

// OverloadSweepK is the overload sweep's per-request k: small enough
// that the sustainable rate is dominated by enumeration rather than
// serialization, large enough that a request is real work.
const OverloadSweepK = 100

// OverloadRow is one point of the overload sweep in BENCH_topk.json:
// an open-loop zipfian request storm at a multiple of the measured
// sustainable rate against a small-concurrency server, recording the
// admitted-request latency distribution and how the overload-protection
// plane responded. The healthy picture: at 0.5x nothing is shed; at 4x
// the excess is shed as 429 (shed_429, not errors_5xx growing), the
// admitted p99 stays near the unloaded p99, and the brownout detector
// transitions. The sweep itself lives in cmd/benchkit (it exercises
// ktpm and internal/server, which this package cannot import).
type OverloadRow struct {
	Name       string  `json:"name"`      // "rate=0.5x" ... "rate=4x"
	RateMult   float64 `json:"rate_mult"` // multiple of the sustainable rate
	OfferedQPS float64 `json:"offered_qps"`
	Sent       int     `json:"sent"`
	Admitted   int     `json:"admitted"` // 200s
	// Shed429 counts predictive/brownout/memory sheds (429); QueueFull503
	// counts hard admission-queue rejections (503). Under overload the
	// predictive shed should fire first, keeping QueueFull503 small.
	Shed429      int `json:"shed_429"`
	QueueFull503 int `json:"queue_full_503"`
	// Errors5xx counts responses >= 500 other than 503 — the "5xx storm"
	// overload protection exists to prevent.
	Errors5xx int     `json:"errors_5xx"`
	ShedRate  float64 `json:"shed_rate"` // (429+503) / sent
	// Latency percentiles of admitted requests only, in milliseconds.
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	// BrownoutStage and BrownoutTransitions are read from /stats after
	// the stage completes.
	BrownoutStage       int32 `json:"brownout_stage"`
	BrownoutTransitions int64 `json:"brownout_transitions"`
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

// BatchTable renders a batch sweep in the benchkit text format.
func BatchTable(rows []*BatchRow) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Batch amortization sweep (k=%d)", BatchSweepK),
		Header: []string{"config", "ms/item", "unique"},
	}
	for _, r := range rows {
		t.AddRow(r.Name, fmt.Sprintf("%.1f", r.NsPerItem/1e6), fmt.Sprint(r.UniqueQueries))
	}
	return t
}

// Table renders the report in the benchkit text format.
func (r *TopKReport) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Sharded top-k sweep (k=%d, %d queries, %d ops/config)", r.Workload.K, r.Workload.Queries, r.Workload.Ops),
		Header: []string{"config", "ms/op", "allocs/op", "KB/op", "tables", "hits", "blocks"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name,
			fmt.Sprintf("%.1f", row.NsPerOp/1e6),
			fmt.Sprintf("%.0f", row.AllocsPerOp),
			fmt.Sprintf("%.0f", row.BytesPerOp/1024),
			fmt.Sprint(row.TablesRead),
			fmt.Sprint(row.TableHits),
			fmt.Sprint(row.BlocksRead))
	}
	return t
}

// WriteJSON writes the report to path, creating or truncating it.
func (r *TopKReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
