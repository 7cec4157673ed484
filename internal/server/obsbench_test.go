package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"ktpm"
	"ktpm/internal/bench"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
)

// benchPaths builds the serving benchmark workload — the TopK benchmark
// graph plus its generated 4-node query set — as /query request paths.
func benchPaths(b testing.TB) (*ktpm.Database, []string) {
	g := bench.TopKGraph()
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		b.Fatal(err)
	}
	pg, err := ktpm.LoadGraph(&buf)
	if err != nil {
		b.Fatal(err)
	}
	db, err := ktpm.BuildDatabase(pg, ktpm.DatabaseOptions{})
	if err != nil {
		b.Fatal(err)
	}
	trees, err := gen.QuerySet(g, 4, 4, true, 12345)
	if err != nil {
		b.Fatal(err)
	}
	paths := make([]string, len(trees))
	for i, t := range trees {
		paths[i] = "/query?q=" + url.QueryEscape(t.String()) + "&k=10"
	}
	return db, paths
}

// benchWorkload drives warm-cache /query requests through the full
// ServeHTTP stack with instrumentation on or off. Sequential go-bench
// runs of the two variants are NOT directly comparable on a noisy
// machine (each run sees its own GC and scheduler regime) — the
// overhead comparison is benchmark/'s obs.overhead_us, which replays the
// same requests through both configurations. These benchmarks
// exist for -benchmem alloc accounting and profiling a single variant.
func benchWorkload(b *testing.B, disable bool) {
	db, paths := benchPaths(b)
	s := New(db, Config{DisableObs: disable})
	b.Cleanup(s.Close)
	for _, p := range paths {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != 200 {
			b.Fatalf("%s: %d %s", p, rec.Code, rec.Body.String())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil))
	}
}

func BenchmarkSweepWorkloadObsOn(b *testing.B)  { benchWorkload(b, false) }
func BenchmarkSweepWorkloadObsOff(b *testing.B) { benchWorkload(b, true) }
