package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ktpm"
)

// parseNDJSON splits a /stream body into header, match lines, and
// trailer, failing on any framing violation.
func parseNDJSON(t testing.TB, body string) (StreamHeader, []StreamMatch, StreamTrailer) {
	t.Helper()
	lines := strings.Split(strings.TrimRight(body, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("NDJSON body has %d lines, want >= 2 (header + trailer): %q", len(lines), body)
	}
	var hdr StreamHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("bad header line %q: %v", lines[0], err)
	}
	var tr StreamTrailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil || !tr.Done {
		t.Fatalf("bad trailer line %q: %v", lines[len(lines)-1], err)
	}
	var ms []StreamMatch
	for _, ln := range lines[1 : len(lines)-1] {
		var m StreamMatch
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("bad match line %q: %v", ln, err)
		}
		ms = append(ms, m)
	}
	return hdr, ms, tr
}

func getStream(t testing.TB, s *Server, path string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec, rec.Body.String()
}

func TestStreamEndToEnd(t *testing.T) {
	s, db := newTestServer(t, Config{})
	rec, body := getStream(t, s, "/stream?q=C(E,S)")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	hdr, ms, tr := parseNDJSON(t, body)
	if hdr.Canonical != "C(E,S)" || len(hdr.Positions) != 3 {
		t.Errorf("header = %+v", hdr)
	}
	if !tr.Complete || tr.Reason != "exhausted" || tr.Count != len(ms) {
		t.Errorf("trailer = %+v with %d matches", tr, len(ms))
	}
	// The stream, drained, agrees with an exhaustive library call.
	q, err := db.ParseQuery("C(E,S)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.TopK(q, len(ms)+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ms) {
		t.Fatalf("stream wrote %d matches, library has %d", len(ms), len(want))
	}
	for i := range want {
		if ms[i].Score != want[i].Score {
			t.Errorf("match %d score %d, want %d", i, ms[i].Score, want[i].Score)
		}
	}
	_, stats := get(t, s, "/stats")
	st := stats["stream"].(map[string]any)
	if got := st["streams"].(float64); got != 1 {
		t.Errorf("stats stream.streams = %v, want 1", got)
	}
	if got := st["matches"].(float64); got != float64(len(ms)) {
		t.Errorf("stats stream.matches = %v, want %d", got, len(ms))
	}
}

func TestStreamMaxGuard(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec, body := getStream(t, s, "/stream?q=C(E,S)&max=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	_, ms, tr := parseNDJSON(t, body)
	if len(ms) != 2 || tr.Count != 2 || tr.Complete || tr.Reason != "max" {
		t.Fatalf("max guard: %d matches, trailer %+v", len(ms), tr)
	}
	_, stats := get(t, s, "/stats")
	st := stats["stream"].(map[string]any)
	if got := st["truncated_max"].(float64); got != 1 {
		t.Errorf("truncated_max = %v, want 1", got)
	}
}

// TestStreamMaxExactlyExhausted: a match space holding exactly max
// matches reports complete/exhausted, not a truncation — the post-loop
// probe tells the two apart so clients don't re-enumerate a finished
// space chasing a phantom remainder.
func TestStreamMaxExactlyExhausted(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	rec, body := getStream(t, s, "/stream?q=C(E,S)&max=4") // C(E,S) has exactly 4 matches
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	_, ms, tr := parseNDJSON(t, body)
	if len(ms) != 4 || !tr.Complete || tr.Reason != "exhausted" {
		t.Fatalf("exact-max stream: %d matches, trailer %+v", len(ms), tr)
	}
	_, stats := get(t, s, "/stats")
	st := stats["stream"].(map[string]any)
	if got := st["truncated_max"].(float64); got != 0 {
		t.Errorf("truncated_max = %v, want 0", got)
	}
}

func TestStreamBadRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxStreamMatches: 100})
	cases := []struct {
		path string
		want int
	}{
		{"/stream", http.StatusBadRequest},                     // missing q
		{"/stream?q=C(E)&max=0", http.StatusBadRequest},        // non-positive max
		{"/stream?q=C(E)&max=banana", http.StatusBadRequest},   // non-numeric max
		{"/stream?q=C(E)&max=101", http.StatusBadRequest},      // max over cap
		{"/stream?q=C(E)&algo=quantum", http.StatusBadRequest}, // algo was removed
		{"/stream?q=" + strings.Repeat("C", 5000), http.StatusBadRequest},
	}
	for _, c := range cases {
		rec, _ := getStream(t, s, c.path)
		if rec.Code != c.want {
			t.Errorf("GET %s = %d, want %d", c.path, rec.Code, c.want)
		}
	}
	req := httptest.NewRequest(http.MethodDelete, "/stream?q=C(E)", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /stream = %d, want 405", rec.Code)
	}
}

// TestStreamAdmission: a stream occupies a worker slot, so queue-full
// sheds it with 503 and a deadline while queued answers 504 — and a
// finished stream releases its slot.
func TestStreamAdmission(t *testing.T) {
	s, _ := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1})
	release := occupyWorkers(t, s, 1)
	queued := make(chan error, 1)
	go func() { queued <- s.exec.Do(context.Background(), func() {}) }()
	waitFor(t, func() bool { return s.exec.queued.Load() == 1 })
	rec, _ := getStream(t, s, "/stream?q=C(E,S)")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	release()
	if err := <-queued; err != nil {
		t.Fatal(err)
	}
	// Slot free again: the stream runs, and afterwards /query still works
	// (the stream's Acquire released its worker).
	rec, body := getStream(t, s, "/stream?q=C(E,S)")
	if rec.Code != http.StatusOK {
		t.Fatalf("status after release %d: %s", rec.Code, body)
	}
	if rec2, _ := getQuery(t, s, "/query?q=C(E)"); rec2.Code != http.StatusOK {
		t.Fatalf("/query after stream = %d; stream leaked its worker slot", rec2.Code)
	}
}

func TestStreamDeadlineWhileQueued(t *testing.T) {
	s, _ := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4, RequestTimeout: 30 * time.Millisecond})
	release := occupyWorkers(t, s, 1)
	defer release()
	rec, _ := getStream(t, s, "/stream?q=C(E,S)")
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
}

// cancelAfterWriter cancels a context once n writes have happened,
// standing in for a client that hangs up mid-stream.
type cancelAfterWriter struct {
	*httptest.ResponseRecorder
	n      int
	cancel context.CancelFunc
}

func (w *cancelAfterWriter) Write(p []byte) (int, error) {
	w.n--
	if w.n == 0 {
		w.cancel()
	}
	return w.ResponseRecorder.Write(p)
}

// TestStreamClientDisconnectMidStream: with flush-per-match, a client
// vanishing after the first match stops the stream within one chunk and
// is counted as a stream disconnect, not a timeout.
func TestStreamClientDisconnectMidStream(t *testing.T) {
	s, _ := newTestServer(t, Config{StreamChunk: 1})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Write 1 is the header, write 2 the first match: cancel there.
	w := &cancelAfterWriter{ResponseRecorder: httptest.NewRecorder(), n: 2, cancel: cancel}
	req := httptest.NewRequest(http.MethodGet, "/stream?q=C(E,S)", nil).WithContext(ctx)
	s.ServeHTTP(w, req)
	_, ms, tr := parseNDJSON(t, w.Body.String())
	if len(ms) != 1 || tr.Reason != "disconnect" || tr.Complete {
		t.Fatalf("disconnect handling: %d matches, trailer %+v", len(ms), tr)
	}
	_, stats := get(t, s, "/stats")
	st := stats["stream"].(map[string]any)
	if got := st["disconnects"].(float64); got != 1 {
		t.Errorf("stream disconnects = %v, want 1", got)
	}
	ex := stats["executor"].(map[string]any)
	if got := ex["timed_out"].(float64); got != 0 {
		t.Errorf("disconnect counted as timeout: %v", got)
	}
}

// slowWriter delays every write past the request deadline.
type slowWriter struct {
	*httptest.ResponseRecorder
	delay time.Duration
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return w.ResponseRecorder.Write(p)
}

// TestStreamDeadlineMidStream: the request deadline also guards an
// already-flowing stream.
func TestStreamDeadlineMidStream(t *testing.T) {
	s, _ := newTestServer(t, Config{StreamChunk: 1, RequestTimeout: 20 * time.Millisecond})
	w := &slowWriter{ResponseRecorder: httptest.NewRecorder(), delay: 15 * time.Millisecond}
	req := httptest.NewRequest(http.MethodGet, "/stream?q=C(E,S)", nil)
	s.ServeHTTP(w, req)
	_, ms, tr := parseNDJSON(t, w.Body.String())
	if tr.Reason != "deadline" || tr.Complete {
		t.Fatalf("deadline handling: %d matches, trailer %+v", len(ms), tr)
	}
	if len(ms) == 0 {
		t.Fatal("deadline stream wrote nothing before cutting off")
	}
	_, stats := get(t, s, "/stats")
	st := stats["stream"].(map[string]any)
	if got := st["truncated_deadline"].(float64); got != 1 {
		t.Errorf("truncated_deadline = %v, want 1", got)
	}
}

// TestStreamSharded runs /stream against a sharded backend: the NDJSON
// lines are the sharded database's canonical stream.
func TestStreamSharded(t *testing.T) {
	db := testDatabase(t)
	sdb, err := db.Shard(3, ktpm.PartitionByLabel())
	if err != nil {
		t.Fatal(err)
	}
	s := New(sdb, Config{})
	t.Cleanup(s.Close)
	rec, body := getStream(t, s, "/stream?q=C(E,S)")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	_, ms, tr := parseNDJSON(t, body)
	if !tr.Complete {
		t.Fatalf("trailer %+v", tr)
	}
	q, err := sdb.ParseQuery("C(E,S)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sdb.TopK(q, len(ms)+10)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(ms) {
		t.Fatalf("stream wrote %d matches, sharded library has %d", len(ms), len(want))
	}
	for i := range want {
		if ms[i].Score != want[i].Score || !bytes.Equal(int32sToBytes(ms[i].Nodes), int32sToBytes(want[i].Nodes)) {
			t.Fatalf("match %d = %+v, want score %d nodes %v", i, ms[i], want[i].Score, want[i].Nodes)
		}
	}
}

func int32sToBytes(xs []int32) []byte {
	out := make([]byte, 0, 4*len(xs))
	for _, x := range xs {
		out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
	}
	return out
}
