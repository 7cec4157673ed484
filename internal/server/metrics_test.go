package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ktpm"
)

func getRaw(t testing.TB, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	// Drive one query and one rejection-free stats read so counters move.
	if rec, _ := getQuery(t, s, "/query?q=C(E,S)&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up query: status %d", rec.Code)
	}
	rec := getRaw(t, s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q, want Prometheus text format", ct)
	}
	body := rec.Body.String()
	for _, w := range []string{
		"# TYPE ktpmd_queries_total counter",
		"ktpmd_queries_total 1",
		"# TYPE ktpmd_uptime_seconds gauge",
		"ktpmd_graph_nodes 7",
		"ktpmd_cache_misses_total 1",
		"ktpmd_io_tables_read_total",
		"ktpmd_executor_workers",
	} {
		if !strings.Contains(body, w) {
			t.Errorf("metrics output missing %q", w)
		}
	}
	if strings.Contains(body, "ktpmd_shards") {
		t.Error("unsharded backend reported shard metrics")
	}
}

func TestMetricsAndStatsSharded(t *testing.T) {
	db := testDatabase(t)
	sdb, err := db.Shard(3, ktpm.PartitionByLabel())
	if err != nil {
		t.Fatal(err)
	}
	s := New(sdb, Config{})
	t.Cleanup(s.Close)
	if rec, _ := getQuery(t, s, "/query?q=C(E,S)&k=5"); rec.Code != http.StatusOK {
		t.Fatalf("query against sharded backend: status %d", rec.Code)
	}

	// /stats grows a sharding section with one entry per shard.
	rec, body := get(t, s, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	sh, ok := body["sharding"].(map[string]any)
	if !ok {
		t.Fatalf("stats missing sharding section: %v", body)
	}
	if got := sh["shards"].(float64); got != 3 {
		t.Fatalf("sharding.shards = %v, want 3", got)
	}
	if got := sh["partitioner"].(string); got != "label" {
		t.Fatalf("sharding.partitioner = %q, want label", got)
	}
	per, ok := sh["per_shard"].([]any)
	if !ok || len(per) != 3 {
		t.Fatalf("sharding.per_shard = %v, want 3 entries", sh["per_shard"])
	}

	// /metrics carries the per-shard series.
	mrec := getRaw(t, s, "/metrics")
	mbody := mrec.Body.String()
	for _, w := range []string{
		"ktpmd_shards 3",
		`ktpmd_shard_vertices{shard="0",partitioner="label"}`,
		`ktpmd_shard_merged_total{shard="2"}`,
		`ktpmd_shard_blocks_read_total{shard="1"}`,
	} {
		if !strings.Contains(mbody, w) {
			t.Errorf("sharded metrics missing %q", w)
		}
	}
}

// TestShardedBackendSameContract runs the core /query contract against a
// sharded backend: identical JSON shape, caching, and agreement with the
// unsharded database on scores.
func TestShardedBackendSameContract(t *testing.T) {
	db := testDatabase(t)
	sdb, err := db.Shard(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := New(sdb, Config{})
	t.Cleanup(s.Close)

	rec, qr := getQuery(t, s, "/query?q=C(S,E)&k=4")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if qr.Canonical != "C(E,S)" {
		t.Fatalf("canonical %q, want C(E,S)", qr.Canonical)
	}
	q, err := db.ParseQuery("C(E,S)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.TopK(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Matches) != len(want) {
		t.Fatalf("%d matches, want %d", len(qr.Matches), len(want))
	}
	for i := range want {
		if qr.Matches[i].Score != want[i].Score {
			t.Fatalf("score[%d] = %d, want %d", i, qr.Matches[i].Score, want[i].Score)
		}
	}
	// Second request hits the cache with the same payload.
	rec2, qr2 := getQuery(t, s, "/query?q=C(E,S)&k=4")
	if rec2.Code != http.StatusOK || !qr2.Cached {
		t.Fatalf("expected cached response, got status %d cached=%v", rec2.Code, qr2.Cached)
	}
}

// TestFlightLeaderCacheRecheck covers the window where a request misses
// the cache in the handler but another identical flight completes before
// it registers as leader: the new leader must serve the cached result
// (via Peek, so cache-effectiveness counters stay untouched) instead of
// redoing the enumeration.
func TestFlightLeaderCacheRecheck(t *testing.T) {
	s, db := newTestServer(t, Config{})
	if rec, _ := getQuery(t, s, "/query?q=C(E,S)&k=3"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up status %d", rec.Code)
	}
	statsBefore := s.cache.Stats()
	q, err := db.ParseQuery("C(E,S)")
	if err != nil {
		t.Fatal(err)
	}
	key := s.resultKey(q.Canonical(), 3)
	req := httptest.NewRequest(http.MethodGet, "/query?q=C(E,S)&k=3", nil)
	res, coalesced, err := s.runQuery(httptest.NewRecorder(), req, key, q, 3)
	if err != nil || coalesced {
		t.Fatalf("runQuery = coalesced %v, err %v", coalesced, err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("recheck returned no matches")
	}
	statsAfter := s.cache.Stats()
	if statsAfter.Misses != statsBefore.Misses || statsAfter.Hits != statsBefore.Hits {
		t.Fatalf("leader recheck moved cache counters: %+v -> %+v", statsBefore, statsAfter)
	}
	s.flightMu.Lock()
	n := len(s.flights)
	s.flightMu.Unlock()
	if n != 0 {
		t.Fatalf("%d flights left registered after recheck", n)
	}
}
