package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"ktpm"
	"ktpm/internal/obs"
)

func TestRequestIDGeneratedAndEchoed(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	// No header: the server mints one.
	rec, _ := getQuery(t, s, "/query?q=C(E,S)&k=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Request-ID"); !regexp.MustCompile(`^[0-9a-f]{16}$`).MatchString(got) {
		t.Fatalf("generated X-Request-ID = %q, want 16 hex chars", got)
	}

	// Caller-supplied header: echoed verbatim.
	req := httptest.NewRequest(http.MethodGet, "/query?q=C(E,S)&k=2", nil)
	req.Header.Set("X-Request-ID", "caller-id-123")
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, req)
	if got := rec2.Header().Get("X-Request-ID"); got != "caller-id-123" {
		t.Fatalf("echoed X-Request-ID = %q, want caller-id-123", got)
	}

	// Non-endpoint paths get the echo too.
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec3 := httptest.NewRecorder()
	s.ServeHTTP(rec3, req)
	if got := rec3.Header().Get("X-Request-ID"); got == "" {
		t.Fatal("no X-Request-ID on /healthz")
	}
}

func TestStatsLatencyBlock(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		if rec, _ := getQuery(t, s, "/query?q=C(E,S)&k=2"); rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, rec.Code)
		}
	}
	st := getStats(t, s)
	if st.Latency == nil {
		t.Fatal("/stats has no latency block")
	}
	q := st.Latency.Endpoints["query"]
	if q.Count != 3 {
		t.Fatalf("endpoint query count = %d, want 3", q.Count)
	}
	if q.P50MS <= 0 || q.P99MS < q.P50MS {
		t.Fatalf("implausible quantiles: p50=%v p99=%v", q.P50MS, q.P99MS)
	}
	// Every request parses; the first request enumerates (cache misses),
	// the rest probe the cache.
	if st.Latency.Stages["parse"].Count != 3 {
		t.Fatalf("stage parse count = %d, want 3", st.Latency.Stages["parse"].Count)
	}
	if st.Latency.Stages["enumerate"].Count < 1 {
		t.Fatal("stage enumerate never observed")
	}
	if st.Latency.Stages["cache_probe"].Count != 3 {
		t.Fatalf("stage cache_probe count = %d, want 3", st.Latency.Stages["cache_probe"].Count)
	}
	if st.Build.Version == "" || st.Build.Go == "" {
		t.Fatalf("build info incomplete: %+v", st.Build)
	}

	// /batch (body decode plus per-item validation) and /stream parse
	// too: each adds one parse observation.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(`{"items":[{"q":"C(E,S)","k":2},{"q":"C(E)","k":1}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	if got := getStats(t, s).Latency.Stages["parse"].Count; got != 4 {
		t.Fatalf("stage parse count after /batch = %d, want 4", got)
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stream?q=C(E,S)&max=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body.String())
	}
	if got := getStats(t, s).Latency.Stages["parse"].Count; got != 5 {
		t.Fatalf("stage parse count after /stream = %d, want 5", got)
	}
}

func getStats(t *testing.T, s *Server) StatsResponse {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad /stats body: %v", err)
	}
	return st
}

func TestQueryDebugTrace(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec, qr := getQuery(t, s, "/query?q=C(E,S)&k=2&debug=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if qr.Trace == nil {
		t.Fatal("debug=1 returned no trace")
	}
	if qr.RequestID != rec.Header().Get("X-Request-ID") {
		t.Fatalf("trace request_id %q != header %q", qr.RequestID, rec.Header().Get("X-Request-ID"))
	}
	if qr.Trace.Name != "query" {
		t.Fatalf("root span name = %q, want query", qr.Trace.Name)
	}
	stages := map[string]float64{}
	var sum float64
	for _, c := range qr.Trace.Children {
		stages[c.Name] += c.DurMS
		sum += c.DurMS
	}
	for _, want := range []string{"parse", "admission_wait", "cache_probe", "enumerate"} {
		if _, ok := stages[want]; !ok {
			t.Fatalf("stage %q missing from trace children %v", want, stages)
		}
	}
	// Stage durations are disjoint slices of the request, so their sum
	// cannot exceed the total elapsed time (the snapshot is taken before
	// elapsed_ms is stamped).
	if sum > qr.ElapsedMS {
		t.Fatalf("stage sum %.3fms exceeds total %.3fms", sum, qr.ElapsedMS)
	}

	// Without debug=1 the response carries neither field.
	if _, qr2 := getQuery(t, s, "/query?q=C(E,S)&k=2"); qr2.Trace != nil || qr2.RequestID != "" {
		t.Fatal("trace fields leaked into a non-debug response")
	}
}

func TestDebugTracesRing(t *testing.T) {
	s, _ := newTestServer(t, Config{TraceRing: 4})
	for i := 0; i < 6; i++ {
		if rec, _ := getQuery(t, s, "/query?q=C(E,S)&k=2"); rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var dt DebugTracesResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &dt); err != nil {
		t.Fatalf("bad body: %v", err)
	}
	if dt.Capacity != 4 || dt.Total != 6 || len(dt.Traces) != 4 {
		t.Fatalf("capacity=%d total=%d retained=%d, want 4/6/4", dt.Capacity, dt.Total, len(dt.Traces))
	}
	tr := dt.Traces[0] // newest first
	if tr.Endpoint != "query" || tr.Status != http.StatusOK || tr.RequestID == "" || tr.Root == nil {
		t.Fatalf("bad trace entry: %+v", tr)
	}
	if tr.Query != "C(E,S)" {
		t.Fatalf("trace query = %q", tr.Query)
	}

	// ?n= limits the page.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces?n=2", nil))
	dt = DebugTracesResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &dt); err != nil {
		t.Fatal(err)
	}
	if len(dt.Traces) != 2 {
		t.Fatalf("n=2 returned %d traces", len(dt.Traces))
	}
}

func TestDebugTracesDisabled(t *testing.T) {
	s, _ := newTestServer(t, Config{TraceRing: -1})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404 when the ring is disabled", rec.Code)
	}
}

// faultyBackend wraps a Backend with a snapshotStater reporting a sticky
// load fault, the condition /readyz must translate to 503.
type faultyBackend struct {
	Backend
	err string
}

func (f *faultyBackend) SnapshotStats() (ktpm.SnapshotStats, bool) {
	return ktpm.SnapshotStats{Mode: "lazy", Err: f.err}, true
}

func TestReadyz(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec, body := get(t, s, "/readyz")
	if rec.Code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("status %d body %v", rec.Code, body)
	}

	// Embedder-held readiness.
	s.SetReady(false)
	if rec, _ := get(t, s, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready status %d, want 503", rec.Code)
	}
	s.SetReady(true)
	if rec, _ := get(t, s, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("re-ready status %d, want 200", rec.Code)
	}

	// A healthy snapshot stays ready; a sticky fault drops readiness but
	// not liveness.
	db := testDatabase(t)
	fs := New(&faultyBackend{Backend: db, err: ""}, Config{})
	t.Cleanup(fs.Close)
	if rec, _ := get(t, fs, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("healthy snapshot readyz = %d, want 200", rec.Code)
	}
	fs2 := New(&faultyBackend{Backend: db, err: "table 7: bad magic"}, Config{})
	t.Cleanup(fs2.Close)
	rec2, body2 := get(t, fs2, "/readyz")
	if rec2.Code != http.StatusServiceUnavailable {
		t.Fatalf("faulted readyz = %d, want 503", rec2.Code)
	}
	if body2["error"] != "table 7: bad magic" {
		t.Fatalf("faulted readyz body %v", body2)
	}
	if rec3, _ := get(t, fs2, "/healthz"); rec3.Code != http.StatusOK {
		t.Fatalf("healthz must stay 200 on a snapshot fault, got %d", rec3.Code)
	}
}

func TestDisableObsPassthrough(t *testing.T) {
	s, _ := newTestServer(t, Config{DisableObs: true})
	rec, qr := getQuery(t, s, "/query?q=C(E,S)&k=2&debug=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Request-ID") != "" {
		t.Fatal("DisableObs still sets X-Request-ID")
	}
	if qr.Trace != nil {
		t.Fatal("DisableObs still produces traces")
	}
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st StatsResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Latency != nil {
		t.Fatal("DisableObs still reports latency stats")
	}
	// Histogram families disappear from /metrics; the rest remains.
	rec3 := httptest.NewRecorder()
	s.ServeHTTP(rec3, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rec3.Body.String(), "ktpmd_request_duration_seconds") {
		t.Fatal("DisableObs still exposes latency histograms")
	}
}

func TestMetricsHistograms(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for i := 0; i < 2; i++ {
		if rec, _ := getQuery(t, s, "/query?q=C(E,S)&k=2"); rec.Code != http.StatusOK {
			t.Fatalf("query %d: status %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()

	for _, want := range []string{
		"# TYPE ktpmd_request_duration_seconds histogram",
		`ktpmd_request_duration_seconds_bucket{endpoint="query",le="+Inf"} 2`,
		`ktpmd_request_duration_seconds_count{endpoint="query"} 2`,
		"# TYPE ktpmd_stage_duration_seconds histogram",
		`ktpmd_stage_duration_seconds_count{stage="parse"} 2`,
		"# TYPE ktpmd_build_info gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("body:\n%s", body)
	}
}

func TestMetricsExpositionLints(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	// Exercise every endpoint family so all series render.
	getQuery(t, s, "/query?q=C(E,S)&k=2")
	getQuery(t, s, "/query?q=C(E,S)&k=2") // cache hit
	get(t, s, "/explain?q=C(E,S)")
	req := httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(`{"items":[{"q":"C(E,S)","k":2},{"q":"C(E)","k":1}]}`))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stream?q=C(E,S)&max=3", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if errs := obs.LintExposition(strings.NewReader(rec.Body.String())); len(errs) > 0 {
		for _, err := range errs {
			t.Errorf("lint: %v", err)
		}
		t.Logf("body:\n%s", rec.Body.String())
	}
}

func TestMetricsExpositionLintsSharded(t *testing.T) {
	sdb, err := testDatabase(t).Shard(2, ktpm.PartitionByHash())
	if err != nil {
		t.Fatal(err)
	}
	s := New(sdb, Config{})
	t.Cleanup(s.Close)
	if rec, _ := getQuery(t, s, "/query?q=C(E,S)&k=2"); rec.Code != http.StatusOK {
		t.Fatalf("sharded query status %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if errs := obs.LintExposition(strings.NewReader(rec.Body.String())); len(errs) > 0 {
		for _, err := range errs {
			t.Errorf("lint: %v", err)
		}
	}
	// The sharded path records shard_merge stage time.
	rec2 := httptest.NewRecorder()
	s.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var st StatsResponse
	if err := json.Unmarshal(rec2.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Latency == nil || st.Latency.Stages["shard_merge"].Count < 1 {
		t.Fatal("sharded query recorded no shard_merge stage time")
	}
}
