// Command benchkit regenerates the paper's tables and figures (Section 6)
// at laptop scale, plus the ablations A2-A5; docs/REPRODUCTION.md maps
// each experiment to the paper artifact it reproduces.
//
// Usage:
//
//	benchkit                 # every paper table, figure and ablation (several minutes)
//	benchkit -exp fig6       # one experiment: table2 table3 fig6 fig7 fig8
//	                         # fig9 ablations overload
//	benchkit -exp fig7,fig8  # comma-separated experiment list
//	benchkit -queries 3      # queries averaged per data point
//	benchkit -quick          # smaller k sweep and fewer datasets
//	benchkit -exp overload -overload-target URL -overload-queries FILE
//
// -exp overload storms a live ktpmd (the CI overload smoke) and needs
// both -overload-target and -overload-queries; "all" does not include
// it. Serving performance is measured by benchmark/ (BENCHMARK.json),
// not here.
//
// Output is plain text, one aligned table per paper artifact.
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
		exp     = flag.String("exp", "all", "experiment, or comma-separated list: all (the paper's tables, figures and ablations), table2, table3, fig6, fig7, fig8, fig9, ablations, overload")
		queries = flag.Int("queries", 5, "queries per data point")
		quick   = flag.Bool("quick", false, "reduced sweeps for a fast pass")

		overloadTarget  = flag.String("overload-target", "", "overload sweep: base URL of the live ktpmd to storm (required with -exp overload; see the CI overload smoke)")
		overloadQueries = flag.String("overload-queries", "", "overload sweep: file of queries, one per line (required with -exp overload)")
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
	known := []string{"all", "table2", "table3", "fig6", "fig7", "fig8", "fig9", "ablations", "overload"}
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
	if selected["overload"] && (*overloadTarget == "" || *overloadQueries == "") {
		fmt.Fprintln(os.Stderr, "benchkit: -exp overload needs -overload-target and -overload-queries")
		os.Exit(2)
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
	if selected["overload"] {
		rows, err := runOverloadSweep(*overloadTarget, *overloadQueries, *overloadStage)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchkit: overload sweep: %v\n", err)
			os.Exit(1)
		}
		bench.OverloadTable(rows).Fprint(os.Stdout)
	}
	fmt.Fprintf(os.Stderr, "benchkit: done in %v\n", time.Since(t0).Round(time.Millisecond))
}
