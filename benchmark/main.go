// Command benchmark is the repository's performance benchmark: it builds
// cmd/ktpmd and cmd/ktpm from the working tree, generates every input
// from a seed, drives real ktpmd processes over loopback HTTP from this
// one generator process, checks the answers, and prints every metric
// BENCHMARK.json names. See README.md in this directory.
//
//	go run ./benchmark -seed 1                        all workloads, both modes
//	go run ./benchmark -seed 1 -workload query_hot -trace 0
//	go run ./benchmark -repeat 3 -out benchmark/out/a
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is BENCHMARK.json: the metric names, units and bounds come
// from it, so what this command prints is what that file promises.
type benchSpec struct {
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*benchSpec, error) {
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, l := range s.Workloads {
		if findWorkload(l.Name) == nil {
			return nil, fmt.Errorf("BENCHMARK.json names workload %q, which this command does not have", l.Name)
		}
	}
	return &s, nil
}

// results is what one invocation writes to results.json.
type results struct {
	Seed    int64                         `json:"seed"`
	Seconds float64                       `json:"seconds"`
	Smoke   bool                          `json:"smoke"`
	Cores   int                           `json:"cores"`
	Runs    []*runResult                  `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"` // workload -> metric
}

// options are the command line.
type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        string
	repeat       int
	smoke        bool
	out          string
	compare      bool
	updateGolden bool
	args         []string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this workload only (default: all five)")
	flag.Int64Var(&o.seed, "seed", 1, "decides the order requests arrive in; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	flag.StringVar(&o.trace, "trace", "both", "0: end-to-end phases, tracing off; 1: traced replay and daemon scrapes; both")
	flag.IntVar(&o.repeat, "repeat", 1, "run each workload this many times and report median and quartiles")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny graphs and short phases: checks the plumbing, not the speed")
	flag.StringVar(&o.out, "out", "", "output directory (default benchmark/out under the module root)")
	flag.BoolVar(&o.compare, "compare", false, "compare two results files: -compare old.json new.json")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "with -seed 1: rewrite benchmark/golden/inputs.sha256 from this run instead of checking against it")
	spinFlag := flag.Bool("spin", false, "internal: be one of the processes that keep the cores awake, see spin.go")
	flag.Parse()
	if *spinFlag {
		spin()
		return
	}
	o.args = flag.Args()
	if err := realMain(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(o options) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	if o.compare {
		if len(o.args) != 2 {
			return fmt.Errorf("-compare wants two results files")
		}
		return compareFiles(spec, o.args[0], o.args[1], os.Stdout)
	}
	var todo []*workload
	if o.workload == "" {
		todo = workloads
	} else if w := findWorkload(o.workload); w != nil {
		todo = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	var modes []bool
	switch o.trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace wants 0, 1 or both, got %q", o.trace)
	}
	if o.repeat < 1 {
		return fmt.Errorf("-repeat wants at least 1")
	}
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	if o.out == "" {
		o.out = filepath.Join(root, "benchmark", "out")
	}
	if o.out, err = filepath.Abs(o.out); err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	e := &env{out: o.out, seed: o.seed, seconds: o.seconds, smoke: o.smoke, sz: fullSizes, nproc: runtime.NumCPU(), spec: spec}
	e.golden = o.seed == 1 && !o.smoke && !o.updateGolden
	if e.seconds <= 0 {
		e.seconds = float64(spec.RunSeconds)
		if o.smoke {
			e.seconds = 2
		}
	}
	if o.smoke {
		e.sz = smokeSizes
	}
	if e.ktpmd, e.ktpm, err = buildPrograms(filepath.Join(root, ".bench_build", "bin")); err != nil {
		return err
	}

	if !o.smoke {
		defer startSpinners(e.nproc)()
	}

	all := &results{Seed: o.seed, Seconds: e.seconds, Smoke: o.smoke, Cores: e.nproc}
	failed := false
	for _, w := range todo {
		for _, traced := range modes {
			for i := 0; i < o.repeat; i++ {
				res, err := e.run(w, traced)
				if err != nil {
					return fmt.Errorf("%s: %w", w.name, err)
				}
				all.Runs = append(all.Runs, res)
				printRun(os.Stdout, res)
				if !res.Correct {
					failed = true
				}
			}
		}
	}
	if o.updateGolden {
		if o.seed != 1 || o.smoke {
			return fmt.Errorf("-update-golden wants -seed 1 at full size")
		}
		if err := writeGolden(all.Runs); err != nil {
			return err
		}
	}
	all.Summary = summarize(all.Runs)
	raw, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if o.repeat > 1 {
		printSummary(os.Stdout, all.Summary)
	}
	// One workload in one mode is what the driver asks for; its last line
	// of output is that run's result as one JSON object.
	if len(all.Runs) == 1 {
		r := all.Runs[0]
		line, err := json.Marshal(map[string]any{
			"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
		})
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if failed {
		return fmt.Errorf("a run failed its checks; see the problems above")
	}
	return nil
}

func printRun(w *os.File, r *runResult) {
	mode := "end to end"
	if r.Trace == 1 {
		mode = "per layer"
	}
	fmt.Fprintf(w, "== %s  %s  seed %d  inputs_sha256 %s\n", r.Workload, mode, r.Seed, r.InputsSHA)
	if r.AnswersSHA != "" {
		fmt.Fprintf(w, "   answers_sha256 %s\n", r.AnswersSHA)
	}
	fmt.Fprintf(w, "   correct %v  attempted %d  failed %d\n", r.Correct, r.Attempted, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM %s\n", p)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(tw, "   %s\t%.6g\t%s\n", name, m.Value, m.Unit)
	}
	tw.Flush()
}

func printSummary(w *os.File, sum map[string]map[string]summary) {
	fmt.Fprintln(w, "== median [q1, q3] over the repeats")
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, wl := range sortedKeys(sum) {
		for _, name := range sortedKeys(sum[wl]) {
			s := sum[wl][name]
			fmt.Fprintf(tw, "   %s\t%s\t%.6g\t[%.6g, %.6g]\t%s\tn=%d\n", wl, name, s.Median, s.Q1, s.Q3, s.Unit, s.N)
		}
	}
	tw.Flush()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goldenPrefix is how many requests of a sequence the answers digest
// covers.
const goldenPrefix = 2000

func goldenPath() (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	return filepath.Join(root, "benchmark", "golden", "inputs.sha256"), nil
}

// readGolden returns the committed digests: workload -> inputs digest,
// answers digest ("-" where the answers depend on the run).
func readGolden() (map[string][2]string, error) {
	path, err := goldenPath()
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][2]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			out[f[0]] = [2]string{f[1], f[2]}
		}
	}
	return out, nil
}

// checkGolden compares a seed-1 run's input and answer digests with the
// committed ones, so that an edit to the generators or to the canonical
// match order cannot silently change what is measured.
func checkGolden(r *runResult) error {
	golden, err := readGolden()
	if err != nil {
		return err
	}
	want, ok := golden[r.Workload]
	if !ok {
		return fmt.Errorf("golden: no line for %s in benchmark/golden/inputs.sha256", r.Workload)
	}
	if want[0] != r.InputsSHA {
		return fmt.Errorf("golden: inputs_sha256 is %s, benchmark/golden/inputs.sha256 has %s", r.InputsSHA, want[0])
	}
	if r.AnswersSHA != "" && want[1] != r.AnswersSHA {
		return fmt.Errorf("golden: answers_sha256 is %s, benchmark/golden/inputs.sha256 has %s", r.AnswersSHA, want[1])
	}
	return nil
}

// writeGolden replaces the lines of the workloads that ran.
func writeGolden(runs []*runResult) error {
	golden, err := readGolden()
	if err != nil {
		return err
	}
	for _, r := range runs {
		answers := r.AnswersSHA
		if answers == "" {
			answers = "-"
		}
		golden[r.Workload] = [2]string{r.InputsSHA, answers}
	}
	var b strings.Builder
	for _, wl := range sortedKeys(golden) {
		fmt.Fprintf(&b, "%s %s %s\n", wl, golden[wl][0], golden[wl][1])
	}
	path, err := goldenPath()
	if err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
