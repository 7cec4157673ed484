package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// smokeRun runs every workload at smoke size in the given mode and
// returns results.json.
func smokeRun(t *testing.T, seed int64, trace string) *results {
	t.Helper()
	dir := t.TempDir()
	if err := realMain(options{seed: seed, trace: trace, repeat: 1, smoke: true, out: dir}); err != nil {
		t.Fatalf("benchmark -smoke -seed %d -trace %s: %v", seed, trace, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var r results
	if err := json.Unmarshal(raw, &r); err != nil {
		t.Fatal(err)
	}
	return &r
}

// TestSmoke drives the whole benchmark at toy size: real daemons, the
// three-process topology, the SIGKILL and restart check, the traced
// replay. It asserts what must hold at any size: every metric
// BENCHMARK.json names is reported and finite, the answers check out, one
// seed gives one set of inputs and the same exact counts, another seed
// gives other inputs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("launches daemons; skipped under -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the benchmark builds cmd/ktpmd with the go command, which is not on PATH")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}

	first := smokeRun(t, 1, "both")
	if want := 2 * len(workloads); len(first.Runs) != want {
		t.Fatalf("%d runs, want %d", len(first.Runs), want)
	}
	for _, r := range first.Runs {
		if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s trace %d: correct %v, failed %d of %d: %v", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted, r.Problems)
		}
		names := spec.EndToEnd
		if r.Trace == 1 {
			names = spec.PerLayer
		}
		for _, m := range names {
			got, ok := r.Metrics[m.Name]
			if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Unit != m.Unit {
				t.Errorf("%s trace %d: metric %s is %+v (reported: %v)", r.Workload, r.Trace, m.Name, got, ok)
			}
		}
		if r.Trace == 0 {
			for _, m := range spec.EndToEnd {
				if r.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must be positive", r.Workload, m.Name, r.Metrics[m.Name].Value)
				}
			}
		}
	}

	// The same seed again: the same requests, and the same value for
	// every metric that is a count.
	exact := []string{
		"closure.entries", "closure.bytes_per_entry", "batch.dedup_share",
		"store.entries_read_per_match", "store.blocks_read_per_query", "store.tables_read", "store.table_hit_share",
		"closure.overlay_entries_per_edge", "wal.bytes_per_edge",
	}
	second := smokeRun(t, 1, "1")
	for _, b := range second.Runs {
		for _, a := range first.Runs {
			if a.Workload != b.Workload || a.Trace != b.Trace {
				continue
			}
			if a.InputsSHA != b.InputsSHA || a.AnswersSHA != b.AnswersSHA {
				t.Errorf("%s: seed 1 gave inputs %s answers %s, then inputs %s answers %s", a.Workload, a.InputsSHA, a.AnswersSHA, b.InputsSHA, b.AnswersSHA)
			}
			for _, name := range exact {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s: %s was %v, then %v", a.Workload, name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}
		}
	}

	// query_uncached and dist_gather must replay the same requests, or
	// their latencies cannot be set against each other.
	sha := map[string]string{}
	for _, r := range first.Runs {
		sha[r.Workload] = r.InputsSHA
	}
	if sha["query_uncached"] != sha["dist_gather"] {
		t.Errorf("query_uncached inputs %s, dist_gather inputs %s", sha["query_uncached"], sha["dist_gather"])
	}

	// Another seed: other inputs.
	for _, w := range workloads {
		in, err := makeInputs(w, 2, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		if in.sha == sha[w.name] {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", w.name)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4) == [2.0, 8.0, 32.0]
	q1, q2, q3 := quartiles([]float64{64, 1, 8, 2, 32, 4, 16})
	if q1 != 2 || q2 != 8 || q3 != 32 {
		t.Errorf("quartiles = %v %v %v, want 2 8 32", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.25 || q2 != 2.5 || q3 != 3.75 {
		t.Errorf("quartiles = %v %v %v, want 1.25 2.5 3.75", q1, q2, q3)
	}
}
