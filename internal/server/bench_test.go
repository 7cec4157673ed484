package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
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

// powerLawFamily returns, in process, a 800-node graph of the benchmark's
// power-law family (built through the text encoding the daemon reads)
// and up to want of its distinct canonical queries of sizes T6 to T14.
// The database is built once per test binary and shared read-only, so
// the benchmarks and tests over it pay for one closure.
func powerLawFamily(tb testing.TB, want int) (*ktpm.Database, []string) {
	tb.Helper()
	family.once.Do(func() { family.db, family.queries, family.err = buildPowerLawFamily(256) })
	if family.err != nil {
		tb.Fatal(family.err)
	}
	return family.db, family.queries[:min(want, len(family.queries))]
}

var family struct {
	once    sync.Once
	db      *ktpm.Database
	queries []string
	err     error
}

func buildPowerLawFamily(want int) (*ktpm.Database, []string, error) {
	g := gen.PowerLaw(gen.PowerLawConfig{Nodes: 800, AvgOutDegree: 5, Labels: 150, Window: 50, Communities: 10, Seed: 21})
	var buf bytes.Buffer
	if err := graph.Encode(&buf, g); err != nil {
		return nil, nil, err
	}
	pg, err := ktpm.LoadGraph(&buf)
	if err != nil {
		return nil, nil, err
	}
	db, err := ktpm.BuildDatabase(pg, ktpm.DatabaseOptions{})
	if err != nil {
		return nil, nil, err
	}
	seen := map[string]bool{}
	var queries []string
	for round := int64(0); round < 40 && len(queries) < want; round++ {
		for size := 6; size <= 14 && len(queries) < want; size++ {
			trees, err := gen.QuerySet(g, 32, size, true, round*1_000_003+int64(size)*101)
			if err != nil {
				continue
			}
			for _, t := range trees {
				if c := t.Canonical(); !seen[c] && len(queries) < want {
					seen[c] = true
					queries = append(queries, c)
				}
			}
		}
	}
	return db, queries, nil
}

// queryPath is the /query request for q at k.
func queryPath(q string, k int) string {
	return "/query?q=" + url.QueryEscape(q) + "&k=" + strconv.Itoa(k)
}

// hotPaths builds the query_hot shape in process: 256 distinct canonical
// queries of the power-law family at k=20, and a Zipf(1.1) draw sequence
// over them.
func hotPaths(b *testing.B) (*ktpm.Database, []string, []string) {
	b.Helper()
	const nKeys = 256
	db, queries := powerLawFamily(b, nKeys)
	if len(queries) < nKeys {
		b.Fatalf("only %d distinct queries", len(queries))
	}
	keys := make([]string, nKeys)
	for i, q := range queries {
		keys[i] = queryPath(q, 20)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(2)), 1.1, 1, nKeys-1)
	draws := make([]string, 4096)
	for i := range draws {
		draws[i] = keys[zipf.Uint64()]
	}
	return db, keys, draws
}

// serveOK sends one GET through ServeHTTP and fails on a non-200 reply.
func serveOK(tb testing.TB, s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		tb.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec
}

// BenchmarkServerMiss is the query_uncached request in process, the
// counterpart of BenchmarkServerHit: the result cache is off, so every
// /query runs Topk-EN through the full ServeHTTP stack. Queries are the
// power-law family's T6–T14 at k drawn from 10..100, after one warm pass
// at k=9 that faults in every table they touch, as the benchmark's
// prelude does. allocs/op and B/op are the cost of one miss.
func BenchmarkServerMiss(b *testing.B) {
	db, queries := powerLawFamily(b, 256)
	s := New(db, Config{CacheEntries: -1})
	defer s.Close()
	for _, q := range queries {
		serveOK(b, s, queryPath(q, 9))
	}
	rng := rand.New(rand.NewSource(3))
	paths := make([]string, 4096)
	for i := range paths {
		paths[i] = queryPath(queries[rng.Intn(len(queries))], 10+rng.Intn(91))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOK(b, s, paths[i%len(paths)])
	}
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
		serveOK(b, s, p)
	}
	var bytesOut int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytesOut += int64(serveOK(b, s, draws[i%len(draws)]).Body.Len())
	}
	b.ReportMetric(float64(bytesOut)/float64(b.N), "bytes/resp")
}
