package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ktpm"
)

// testDatabase builds the paper's Figure 1 citation example: three C
// nodes reaching E and S nodes, so "C(E,S)" has several matches with top
// score 2.
func testDatabase(t testing.TB) *ktpm.Database {
	t.Helper()
	gb := ktpm.NewGraphBuilder()
	v1 := gb.AddNode("C")
	v2 := gb.AddNode("C")
	v3 := gb.AddNode("C")
	v4 := gb.AddNode("S")
	v5 := gb.AddNode("E")
	v6 := gb.AddNode("E")
	v7 := gb.AddNode("S")
	gb.AddEdge(v1, v4)
	gb.AddEdge(v1, v5)
	gb.AddEdge(v2, v6)
	gb.AddEdge(v6, v4)
	gb.AddEdge(v3, v6)
	gb.AddEdge(v3, v7)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func newTestServer(t testing.TB, cfg Config) (*Server, *ktpm.Database) {
	t.Helper()
	db := testDatabase(t)
	s := New(db, cfg)
	t.Cleanup(s.Close)
	return s, db
}

func get(t testing.TB, s *Server, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: non-JSON body %q: %v", path, rec.Body.String(), err)
	}
	return rec, body
}

func getQuery(t testing.TB, s *Server, path string) (*httptest.ResponseRecorder, QueryResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var qr QueryResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &qr); err != nil {
			t.Fatalf("GET %s: bad body %q: %v", path, rec.Body.String(), err)
		}
	}
	return rec, qr
}

func TestQueryEndToEnd(t *testing.T) {
	s, db := newTestServer(t, Config{})
	rec, qr := getQuery(t, s, "/query?q=C(E,S)&k=5")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	// The server must agree with a direct library call on the canonical
	// query.
	q, err := db.ParseQuery("C(E,S)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.TopK(q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Matches) != len(want) {
		t.Fatalf("got %d matches, want %d", len(qr.Matches), len(want))
	}
	for i := range want {
		if qr.Matches[i].Score != want[i].Score {
			t.Errorf("match %d score %d, want %d", i, qr.Matches[i].Score, want[i].Score)
		}
	}
	if qr.Canonical != "C(E,S)" {
		t.Errorf("canonical = %q", qr.Canonical)
	}
	if len(qr.Positions) != 3 || qr.Positions[0] != "C" {
		t.Errorf("positions = %v", qr.Positions)
	}
	if qr.Cached {
		t.Error("first query reported cached")
	}
}

// TestAlgoParamRemoved pins the removal of the algorithm choice: a
// non-empty algo fails with 400 naming the removal on every endpoint
// that once took it, and as an item error inside /batch — a client that
// asked for a baseline must not be served Topk-EN silently.
func TestAlgoParamRemoved(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for _, path := range []string{
		"/query?q=C(E,S)&algo=dp-b",
		"/query?q=C(E,S)&algo=topk-en",
		"/explain?q=C(E,S)&algo=topk",
		"/stream?q=C(E,S)&algo=dp-p",
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "algo was removed") {
			t.Errorf("GET %s = %d %s, want 400 naming the removal", path, rec.Code, rec.Body.String())
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch",
		strings.NewReader(`{"items":[{"q":"C(E,S)"},{"q":"C(E,S)","algo":"dp-b"}]}`)))
	var br BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("/batch = %d %s", rec.Code, rec.Body.String())
	}
	if br.Items[0].Error != "" || !strings.Contains(br.Items[1].Error, "algo was removed") {
		t.Fatalf("/batch item errors %q, %q; want none, then the removal", br.Items[0].Error, br.Items[1].Error)
	}
}

func TestQueryCacheHitAndCanonicalization(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	if rec, qr := getQuery(t, s, "/query?q=C(E,S)&k=5"); rec.Code != http.StatusOK || qr.Cached {
		t.Fatalf("first query: status %d cached %v", rec.Code, qr.Cached)
	}
	rec, qr := getQuery(t, s, "/query?q=C(E,S)&k=5")
	if rec.Code != http.StatusOK || !qr.Cached {
		t.Fatalf("repeat query: status %d cached %v, want cached", rec.Code, qr.Cached)
	}
	// Different sibling order, same canonical form: must hit.
	rec, qr = getQuery(t, s, "/query?q="+url.QueryEscape("C(S,E)")+"&k=5")
	if rec.Code != http.StatusOK || !qr.Cached {
		t.Fatalf("sibling-permuted query: status %d cached %v, want cached", rec.Code, qr.Cached)
	}
	if qr.Canonical != "C(E,S)" {
		t.Errorf("canonical = %q, want C(E,S)", qr.Canonical)
	}
	// Different k: distinct cache entry.
	if _, qr := getQuery(t, s, "/query?q=C(E,S)&k=3"); qr.Cached {
		t.Error("k=3 hit the k=5 entry")
	}
	_, stats := get(t, s, "/stats")
	cache := stats["cache"].(map[string]any)
	if hits := cache["hits"].(float64); hits != 2 {
		t.Errorf("cache hits = %v, want 2", hits)
	}
}

func TestQueryCacheEviction(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheEntries: 2})
	for _, q := range []string{"C(E)", "C(S)", "C(E,S)"} {
		if rec, _ := getQuery(t, s, "/query?q="+url.QueryEscape(q)); rec.Code != http.StatusOK {
			t.Fatalf("query %q failed: %d", q, rec.Code)
		}
	}
	_, stats := get(t, s, "/stats")
	cache := stats["cache"].(map[string]any)
	if ev := cache["evictions"].(float64); ev < 1 {
		t.Errorf("evictions = %v, want >= 1", ev)
	}
	if entries := cache["entries"].(float64); entries > 2 {
		t.Errorf("entries = %v exceeds capacity 2", entries)
	}
	// The first query was evicted; re-running it must miss.
	if _, qr := getQuery(t, s, "/query?q="+url.QueryEscape("C(E)")); qr.Cached {
		t.Error("evicted entry reported as cached")
	}
}

// TestCacheAdmissionThreshold checks cost-aware admission: with an
// unreachable CacheMinEntries every result is bypassed (repeats recompute),
// with a trivial threshold every result is admitted (repeats hit), and
// /stats reports the split.
func TestCacheAdmissionThreshold(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheMinEntries: 1 << 30})
	for i := 0; i < 2; i++ {
		rec, qr := getQuery(t, s, "/query?q=C(E,S)&k=5")
		if rec.Code != http.StatusOK || qr.Cached {
			t.Fatalf("run %d: status %d cached %v, want uncached (bypassed)", i, rec.Code, qr.Cached)
		}
	}
	_, stats := get(t, s, "/stats")
	adm := stats["cache_admission"].(map[string]any)
	if adm["min_entries"].(float64) != 1<<30 {
		t.Errorf("min_entries = %v", adm["min_entries"])
	}
	if got := adm["bypassed"].(float64); got != 2 {
		t.Errorf("bypassed = %v, want 2", got)
	}
	if got := adm["admitted"].(float64); got != 0 {
		t.Errorf("admitted = %v, want 0", got)
	}

	s2, _ := newTestServer(t, Config{CacheMinEntries: 1})
	if _, qr := getQuery(t, s2, "/query?q=C(E,S)&k=5"); qr.Cached {
		t.Fatal("first run cached")
	}
	if _, qr := getQuery(t, s2, "/query?q=C(E,S)&k=5"); !qr.Cached {
		t.Fatal("admitted result did not serve the repeat from cache")
	}
	_, stats = get(t, s2, "/stats")
	adm = stats["cache_admission"].(map[string]any)
	if adm["admitted"].(float64) != 1 || adm["bypassed"].(float64) != 0 {
		t.Errorf("admission split = %v, want 1 admitted / 0 bypassed", adm)
	}
}

func TestExplainEndToEnd(t *testing.T) {
	s, db := newTestServer(t, Config{})
	rec, _ := get(t, s, "/explain?q="+url.QueryEscape("C(S,E)"))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var er ExplainResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatal(err)
	}
	if er.Canonical != "C(E,S)" {
		t.Errorf("canonical = %q", er.Canonical)
	}
	q, _ := db.ParseQuery("C(S,E)")
	want, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if er.Plan == nil || er.Plan.TotalMatches != want.TotalMatches {
		t.Errorf("plan = %+v, want TotalMatches %d", er.Plan, want.TotalMatches)
	}
	if len(er.Plan.Edges) != 2 {
		t.Errorf("plan has %d edges, want 2", len(er.Plan.Edges))
	}
}

func TestHealthz(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec, body := get(t, s, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", rec.Code, body)
	}
}

func TestStatsCounters(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	getQuery(t, s, "/query?q=C(E)")
	getQuery(t, s, "/query?q=C(E)")
	get(t, s, "/explain?q=C(E)")
	getQuery(t, s, "/query?q=)broken(")
	_, stats := get(t, s, "/stats")
	if q := stats["queries"].(float64); q != 2 {
		t.Errorf("queries = %v, want 2", q)
	}
	if e := stats["explains"].(float64); e != 1 {
		t.Errorf("explains = %v, want 1", e)
	}
	if e := stats["errors"].(float64); e != 1 {
		t.Errorf("errors = %v, want 1", e)
	}
	io := stats["io"].(map[string]any)
	if io["BlocksRead"].(float64)+io["TablesRead"].(float64) == 0 {
		t.Error("I/O counters all zero after serving queries")
	}
}

func TestBadRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxK: 50})
	cases := []struct {
		path string
		want int
	}{
		{"/query", http.StatusBadRequest},                              // missing q
		{"/query?q=" + url.QueryEscape("a((("), http.StatusBadRequest}, // parse error
		{"/query?q=C(E)&k=0", http.StatusBadRequest},                   // non-positive k
		{"/query?q=C(E)&k=banana", http.StatusBadRequest},              // non-numeric k
		{"/query?q=C(E)&k=51", http.StatusBadRequest},                  // k over MaxK
		{"/query?q=C(E)&algo=quantum", http.StatusBadRequest},          // algo was removed
		{"/explain", http.StatusBadRequest},                            // missing q
		{"/nope", http.StatusNotFound},
	}
	for _, c := range cases {
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != c.want {
			t.Errorf("GET %s = %d, want %d", c.path, rec.Code, c.want)
		}
	}
	req := httptest.NewRequest(http.MethodDelete, "/query?q=C(E)", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /query = %d, want 405", rec.Code)
	}
}

// occupyWorkers blocks all workers of s with never-finishing tasks and
// returns the release function.
func occupyWorkers(t *testing.T, s *Server, n int) (release func()) {
	t.Helper()
	block := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = s.exec.Do(context.Background(), func() { <-block })
		}()
	}
	waitFor(t, func() bool { return s.exec.inFlight.Load() == int64(n) })
	var once sync.Once
	return func() {
		once.Do(func() { close(block) })
		wg.Wait()
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAdmissionControlRejection(t *testing.T) {
	s, _ := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1})
	release := occupyWorkers(t, s, 1)
	defer release()
	// Fill the single queue slot.
	queued := make(chan error, 1)
	go func() {
		queued <- s.exec.Do(context.Background(), func() {})
	}()
	waitFor(t, func() bool { return s.exec.queued.Load() == 1 })
	// Pool busy and queue full: the request must be shed with 503.
	rec, _ := getQuery(t, s, "/query?q=C(E,S)")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	_, stats := get(t, s, "/stats")
	exec := stats["executor"].(map[string]any)
	if r := exec["rejected"].(float64); r != 1 {
		t.Errorf("rejected = %v, want 1", r)
	}
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued task failed: %v", err)
	}
	// Capacity restored: the same request must now succeed.
	rec, _ = getQuery(t, s, "/query?q=C(E,S)")
	if rec.Code != http.StatusOK {
		t.Fatalf("status after release %d, want 200", rec.Code)
	}
}

func TestRequestTimeoutWhileQueued(t *testing.T) {
	s, _ := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4, RequestTimeout: 30 * time.Millisecond})
	release := occupyWorkers(t, s, 1)
	// The request is admitted but can never reach the worker before its
	// deadline.
	rec, _ := getQuery(t, s, "/query?q=C(E,S)")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	_, stats := get(t, s, "/stats")
	exec := stats["executor"].(map[string]any)
	if v := exec["timed_out"].(float64); v != 1 {
		t.Errorf("timed_out = %v, want 1", v)
	}
	release()
	// The abandoned task is dropped by the worker, not executed.
	waitFor(t, func() bool { return s.exec.queued.Load() == 0 })
	waitFor(t, func() bool { return s.exec.canceled.Load() == 1 })
}

// TestEmptyAlgoDefaultsToTopkEN: an empty algo is no choice at all, so
// the request runs Topk-EN and answers exactly like one without it.
func TestEmptyAlgoDefaultsToTopkEN(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheEntries: -1})
	rec, qr := getQuery(t, s, "/query?q=C(E)&algo=")
	if rec.Code != http.StatusOK {
		t.Fatalf("empty algo: status %d, want 200: %s", rec.Code, rec.Body.String())
	}
	if _, plain := getQuery(t, s, "/query?q=C(E)"); !reflect.DeepEqual(qr.Matches, plain.Matches) {
		t.Fatalf("empty algo matches %v, without algo %v", qr.Matches, plain.Matches)
	}
}

func TestCoalescedConcurrentIdenticalQueries(t *testing.T) {
	s, _ := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4})
	release := occupyWorkers(t, s, 1)
	defer release()
	// Three identical cold queries arrive while the pool is busy: one
	// leads (and queues), two must join its flight instead of queueing.
	type result struct {
		code int
		qr   QueryResponse
	}
	results := make(chan result, 3)
	for i := 0; i < 3; i++ {
		go func() {
			rec, qr := getQuery(t, s, "/query?q=C(E,S)&k=5")
			results <- result{rec.Code, qr}
		}()
	}
	waitFor(t, func() bool { return s.coalesced.Load() == 2 })
	if q := s.exec.queued.Load(); q != 1 {
		t.Errorf("queued = %d; followers must not occupy queue slots", q)
	}
	release()
	var coalesced int
	for i := 0; i < 3; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("status %d", r.code)
		}
		if r.qr.Coalesced {
			coalesced++
		}
	}
	if coalesced != 2 {
		t.Errorf("%d responses marked coalesced, want 2", coalesced)
	}
	// All three probed the cache before the flight (3 misses), but only
	// the leader computed: the entry exists, so a fourth request hits.
	if _, qr := getQuery(t, s, "/query?q=C(E,S)&k=5"); !qr.Cached {
		t.Error("post-flight query missed the cache")
	}
	_, stats := get(t, s, "/stats")
	if c := stats["coalesced"].(float64); c != 2 {
		t.Errorf("stats coalesced = %v, want 2", c)
	}
}

func TestQueryLengthCap(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxQueryLen: 64})
	// A deeply nested bomb far past the cap must be rejected before the
	// recursive parser ever sees it.
	bomb := strings.Repeat("C(", 5000) + "E" + strings.Repeat(")", 5000)
	rec, _ := getQuery(t, s, "/query?q="+url.QueryEscape(bomb))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("nesting bomb: status %d, want 400", rec.Code)
	}
	// At or under the cap still parses.
	rec, _ = getQuery(t, s, "/query?q=C(E,S)")
	if rec.Code != http.StatusOK {
		t.Fatalf("short query: status %d, want 200", rec.Code)
	}
}

func TestCoalescedFollowerSurvivesLeaderDisconnect(t *testing.T) {
	s, _ := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4})
	release := occupyWorkers(t, s, 1)
	defer release()
	// Leader: a request whose client disconnects while its task queues.
	leaderCtx, leaderCancel := context.WithCancel(context.Background())
	leaderDone := make(chan int, 1)
	go func() {
		req := httptest.NewRequest(http.MethodGet, "/query?q=C(E,S)&k=4", nil).WithContext(leaderCtx)
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		leaderDone <- rec.Code
	}()
	waitFor(t, func() bool { return s.exec.queued.Load() == 1 })
	// Follower joins the leader's flight.
	followerDone := make(chan result2, 1)
	go func() {
		rec, qr := getQuery(t, s, "/query?q=C(E,S)&k=4")
		followerDone <- result2{rec.Code, qr}
	}()
	waitFor(t, func() bool { return s.coalesced.Load() == 1 })
	// The leader's client goes away; the shared flight must keep going.
	leaderCancel()
	release()
	fr := <-followerDone
	if fr.code != http.StatusOK {
		t.Fatalf("follower status %d after leader disconnect, want 200", fr.code)
	}
	if len(fr.qr.Matches) == 0 || !fr.qr.Coalesced {
		t.Fatalf("follower response degraded: %d matches, coalesced %v", len(fr.qr.Matches), fr.qr.Coalesced)
	}
	<-leaderDone
	// The completed flight also warmed the cache.
	if _, qr := getQuery(t, s, "/query?q=C(E,S)&k=4"); !qr.Cached {
		t.Error("flight result not cached after leader disconnect")
	}
}

type result2 struct {
	code int
	qr   QueryResponse
}

func TestUnknownLabelQueriesServeEmpty(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	for i := 0; i < 10; i++ {
		path := fmt.Sprintf("/query?q=C(nosuchlabel%d)", i)
		rec, qr := getQuery(t, s, path)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d", path, rec.Code)
		}
		if len(qr.Matches) != 0 {
			t.Fatalf("query with unknown label returned %d matches", len(qr.Matches))
		}
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	s, _ := newTestServer(t, Config{Concurrency: 4})
	queries := []string{"C(E,S)", "C(S,E)", "C(E)", "C(S)", "C(E,S(E))", "C(/E)"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := queries[(g+i)%len(queries)]
				path := fmt.Sprintf("/query?q=%s&k=%d", url.QueryEscape(q), 1+i%7)
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	_, stats := get(t, s, "/stats")
	if q := stats["queries"].(float64); q != 240 {
		t.Errorf("queries = %v, want 240", q)
	}
	if e := stats["errors"].(float64); e != 0 {
		t.Errorf("errors = %v, want 0", e)
	}
}
