// Command benchkit regenerates the paper's tables and figures (Section 6)
// at laptop scale, plus the ablations listed in DESIGN.md.
//
// Usage:
//
//	benchkit                 # everything (several minutes)
//	benchkit -exp fig6       # one experiment: table2 table3 fig6 fig7 fig8
//	                         # fig9 ablations topk batch startup obs dist
//	                         # overload
//	benchkit -exp topk,batch # comma-separated experiment list
//	benchkit -queries 3      # queries averaged per data point
//	benchkit -quick          # smaller k sweep and fewer datasets
//	benchkit -exp topk,batch -json BENCH_topk.json  # serving sweeps (make bench-json)
//	benchkit -drift BENCH_topk.json                 # schema drift check (make bench-json-check)
//
// -json writes the shard-plane, batch amortization, snapshot startup,
// instrumentation overhead, distributed scatter-gather, and overload
// sweeps as one document; it implies every serving-sweep experiment so
// the written schema is always complete. -drift regenerates the same
// sweeps and fails when the committed document's schema (key paths, row
// names) no longer matches — CI's guard against a stale BENCH_topk.json.
//
// Output is plain text, one aligned table per paper artifact — the source
// for EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ktpm/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment, or comma-separated list: all, table2, table3, fig6, fig7, fig8, fig9, ablations, topk, batch, startup, obs, dist, overload")
		queries   = flag.Int("queries", 5, "queries per data point")
		quick     = flag.Bool("quick", false, "reduced sweeps for a fast pass")
		jsonPath  = flag.String("json", "", "write the topk+batch+startup+obs sweeps as one JSON document to this path (implies all four experiments; see make bench-json)")
		driftPath = flag.String("drift", "", "regenerate the topk+batch+startup+obs sweeps and compare their schema (key paths, row names) against this committed JSON document; exit nonzero on drift (implies all four experiments; see make bench-json-check)")
		topkOps   = flag.Int("topk-ops", 5, "iterations per configuration of the topk and batch sweeps")

		overloadTarget  = flag.String("overload-target", "", "overload sweep: storm this live ktpmd base URL instead of an in-process server (see the CI overload smoke)")
		overloadQueries = flag.String("overload-queries", "", "overload sweep: file of queries, one per line, required with -overload-target")
		overloadStage   = flag.Duration("overload-stage", 0, "overload sweep: duration of each rate stage (0 = default 1.5s)")
	)
	flag.Parse()
	bench.QueriesPerSet = *queries

	ks := []int{10, 20, 100}
	gdSets, gsSets := bench.GD, bench.GS
	if *quick {
		ks = []int{10, 100}
		gdSets, gsSets = bench.GD[:3], bench.GS[:3]
	}
	known := []string{"all", "table2", "table3", "fig6", "fig7", "fig8", "fig9", "ablations", "topk", "batch", "startup", "obs", "dist", "overload"}
	selected := map[string]bool{}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(name)
		valid := false
		for _, k := range known {
			valid = valid || name == k
		}
		if !valid {
			fmt.Fprintf(os.Stderr, "benchkit: unknown experiment %q (want a comma-separated subset of %s)\n", name, strings.Join(known, " "))
			os.Exit(2)
		}
		selected[name] = true
	}
	if *jsonPath != "" || *driftPath != "" {
		// The JSON document carries every serving sweep; a partial write
		// would silently drift the committed schema.
		selected["topk"] = true
		selected["batch"] = true
		selected["startup"] = true
		selected["obs"] = true
		selected["dist"] = true
		selected["overload"] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }
	t0 := time.Now()

	var gd, gs *bench.Env
	prepare := func() {
		if gd == nil {
			fmt.Fprintln(os.Stderr, "preparing GD3 and GS3 ...")
			gd = bench.Prepare(bench.DefaultGD())
			gs = bench.Prepare(bench.DefaultGS())
		}
	}

	if want("table2") {
		bench.RunTable2(append(append([]bench.Dataset{}, gdSets...), gsSets...)).Fprint(os.Stdout)
	}
	if want("table3") {
		prepare()
		bench.RunTable3(gd, bench.SortedSizes(bench.Citation)).Fprint(os.Stdout)
		bench.RunTable3(gs, bench.SortedSizes(bench.PowerLaw)).Fprint(os.Stdout)
	}
	if want("fig6") {
		prepare()
		for _, t := range bench.RunFig6(gd, ks) {
			t.Fprint(os.Stdout)
		}
		for _, t := range bench.RunFig6(gs, ks) {
			t.Fprint(os.Stdout)
		}
	}
	if want("fig7") {
		prepare()
		bench.RunFig7K(gd, ks).Fprint(os.Stdout)
		bench.RunFig7K(gs, ks).Fprint(os.Stdout)
		bench.RunFig7T(gd, bench.SortedSizes(bench.Citation)).Fprint(os.Stdout)
		bench.RunFig7T(gs, bench.SortedSizes(bench.PowerLaw)).Fprint(os.Stdout)
		bench.RunFig7G(gdSets).Fprint(os.Stdout)
		bench.RunFig7G(gsSets).Fprint(os.Stdout)
	}
	if want("fig8") {
		prepare()
		envs := []*bench.Env{gd, gs}
		bench.RunFig8K(envs, ks).Fprint(os.Stdout)
		bench.RunFig8T(envs, bench.SortedSizes(bench.PowerLaw)).Fprint(os.Stdout)
		bench.RunFig8G(gdSets).Fprint(os.Stdout)
		bench.RunFig8G(gsSets).Fprint(os.Stdout)
	}
	if want("fig9") {
		// kGPM needs the undirected closure; use the small datasets.
		e := bench.Prepare(bench.GS[0])
		bench.RunFig9K(e, ks).Fprint(os.Stdout)
		bench.RunFig9Q(e).Fprint(os.Stdout)
	}
	if want("ablations") {
		prepare()
		bench.RunAblationTrigger(gs, []int{10, 30, 50}).Fprint(os.Stdout)
		bench.RunAblationLazyQ(gs, ks).Fprint(os.Stdout)
		bench.RunAblationOracle([]bench.Dataset{gdSets[0], gsSets[0]}).Fprint(os.Stdout)
	}
	// The obs sweep measures a ~microsecond effect, so it runs before the
	// other serving sweeps inflate this process's heap (every extra live
	// byte makes each GC cycle — and thus the noise floor — bigger).
	var obsRows []*bench.ObsRow
	if want("obs") {
		var err error
		obsRows, err = runObsSweep(*topkOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchkit: obs sweep: %v\n", err)
			os.Exit(1)
		}
		bench.ObsTable(obsRows).Fprint(os.Stdout)
	}
	var rep *bench.TopKReport
	if want("topk") {
		var err error
		rep, err = bench.RunTopKSweep(*topkOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchkit: topk sweep: %v\n", err)
			os.Exit(1)
		}
		rep.Table().Fprint(os.Stdout)
	}
	if want("batch") {
		batchRows, err := runBatchSweep(*topkOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchkit: batch sweep: %v\n", err)
			os.Exit(1)
		}
		bench.BatchTable(batchRows).Fprint(os.Stdout)
		if rep != nil {
			rep.BatchSweep = batchRows
		}
	}
	if want("startup") {
		startupRows, err := runStartupSweep(*topkOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchkit: startup sweep: %v\n", err)
			os.Exit(1)
		}
		bench.StartupTable(startupRows).Fprint(os.Stdout)
		if rep != nil {
			rep.StartupSweep = startupRows
		}
	}
	if want("dist") {
		distRows, err := runDistSweep(*topkOps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchkit: dist sweep: %v\n", err)
			os.Exit(1)
		}
		bench.DistTable(distRows).Fprint(os.Stdout)
		if rep != nil {
			rep.DistSweep = distRows
		}
	}
	if want("overload") {
		overloadRows, err := runOverloadSweep(*overloadTarget, *overloadQueries, *overloadStage)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchkit: overload sweep: %v\n", err)
			os.Exit(1)
		}
		bench.OverloadTable(overloadRows).Fprint(os.Stdout)
		if rep != nil {
			rep.OverloadSweep = overloadRows
		}
	}
	if rep != nil {
		rep.ObsSweep = obsRows
	}
	if *jsonPath != "" {
		if err := rep.WriteJSON(*jsonPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchkit: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchkit: wrote %s\n", *jsonPath)
	}
	if *driftPath != "" {
		if err := checkDrift(rep, *driftPath); err != nil {
			fmt.Fprintf(os.Stderr, "benchkit: drift: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchkit: %s schema in sync\n", *driftPath)
	}
	fmt.Fprintf(os.Stderr, "benchkit: done in %v\n", time.Since(t0).Round(time.Millisecond))
}
