package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"ktpm"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
)

// benchDatabase builds a mid-size random graph once per benchmark run.
func benchDatabase(b *testing.B) *ktpm.Database {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	labels := []string{"a", "b", "c", "d", "e", "f"}
	gb := ktpm.NewGraphBuilder()
	const n = 2000
	ids := make([]int32, n)
	for i := 0; i < n; i++ {
		ids[i] = gb.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 1; i < n; i++ {
		for e := 0; e < 3; e++ {
			gb.AddEdge(ids[rng.Intn(i)], ids[i])
		}
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

var benchQueries = []string{"a(b)", "a(b,c)", "b(c(d))", "c(d,e)", "a(b(c),d)"}

func serveQueries(b *testing.B, s *Server, spread int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			q := benchQueries[i%len(benchQueries)]
			k := 5 + (i%spread)*3
			path := fmt.Sprintf("/query?q=%s&k=%d", url.QueryEscape(q), k)
			req := httptest.NewRequest(http.MethodGet, path, nil)
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
			}
			i++
		}
	})
}

// BenchmarkServerTopK measures concurrent /query throughput through the
// full HTTP stack — parse, canonicalize, admission, worker pool,
// enumeration, JSON encoding.
//
// cold disables the result cache, so every request pays the enumeration;
// warm uses the default cache with a small working set, so nearly every
// request after the first few is a hit. The gap is the price the cache
// buys back on repeated traffic.
func BenchmarkServerTopK(b *testing.B) {
	db := benchDatabase(b)
	b.Run("cold", func(b *testing.B) {
		s := New(db, Config{CacheEntries: -1})
		defer s.Close()
		serveQueries(b, s, 4)
	})
	b.Run("warm", func(b *testing.B) {
		s := New(db, Config{})
		defer s.Close()
		serveQueries(b, s, 4)
	})
}

// hotPaths builds the query_hot shape in process: a power-law graph of
// the benchmark's family, 256 distinct canonical queries of sizes T6 to
// T14 at k=20, and a Zipf(1.1) draw sequence over them.
func hotPaths(b *testing.B) (*ktpm.Database, []string, []string) {
	b.Helper()
	g := gen.PowerLaw(gen.PowerLawConfig{Nodes: 800, AvgOutDegree: 5, Labels: 150, Window: 50, Communities: 10, Seed: 21})
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
	const nKeys = 256
	seen := map[string]bool{}
	var keys []string
	for round := int64(0); round < 40 && len(keys) < nKeys; round++ {
		for size := 6; size <= 14 && len(keys) < nKeys; size++ {
			trees, err := gen.QuerySet(g, 32, size, true, round*1_000_003+int64(size)*101)
			if err != nil {
				continue
			}
			for _, t := range trees {
				if c := t.Canonical(); !seen[c] && len(keys) < nKeys {
					seen[c] = true
					keys = append(keys, "/query?q="+url.QueryEscape(c)+"&k=20")
				}
			}
		}
	}
	if len(keys) < nKeys {
		b.Fatalf("only %d distinct queries", len(keys))
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(2)), 1.1, 1, nKeys-1)
	draws := make([]string, 4096)
	for i := range draws {
		draws[i] = keys[zipf.Uint64()]
	}
	return db, keys, draws
}

// BenchmarkServerHit is the query_hot request in process: every /query
// is a result-cache hit through the full ServeHTTP stack, so what it
// times is parsing, the cache probe, the observability middleware and
// the response encode. bytes/resp is the mean reply size.
func BenchmarkServerHit(b *testing.B) {
	db, keys, draws := hotPaths(b)
	s := New(db, Config{})
	defer s.Close()
	for _, p := range keys {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("GET %s = %d: %s", p, rec.Code, rec.Body.String())
		}
	}
	var bytesOut int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, draws[i%len(draws)], nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d", rec.Code)
		}
		bytesOut += int64(rec.Body.Len())
	}
	b.ReportMetric(float64(bytesOut)/float64(b.N), "bytes/resp")
}
