package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ktpm"
	"ktpm/internal/obs"
)

// encodeCase is one input to the encoder-equivalence check: the strings
// go into every string field of every response type.
type encodeCase struct {
	query, label, msg string
	k                 int
	score             int64
	node              int32
	nMatches          int
	flags             uint8
	elapsed           float64
}

// checkEncoding holds the append encoder to json.Marshal for every
// response type built from c: QueryResponse, BatchResponse (with its
// omitempty items), and the three /stream line types.
func checkEncoding(t *testing.T, c encodeCase) {
	t.Helper()
	if math.IsNaN(c.elapsed) || math.IsInf(c.elapsed, 0) {
		return // json.Marshal rejects these; elapsed times never are
	}
	positions := []string{c.label, c.query, "a"}[:1+int(c.flags>>5)%3]
	ms := make([]ktpm.Match, c.nMatches%6)
	mj := make([]MatchJSON, len(ms))
	for i := range ms {
		nodes := make([]int32, len(positions))
		for j := range nodes {
			nodes[j] = c.node + int32(i*len(nodes)+j)
		}
		ms[i] = ktpm.Match{Score: c.score + int64(i), Nodes: nodes}
		mj[i] = MatchJSON{Score: ms[i].Score, Nodes: nodes}
	}
	flag := func(bit uint) bool { return c.flags&(1<<bit) != 0 }
	res := encodeResult(positions, ms, flag(1))
	same := func(what string, got []byte, v any) {
		t.Helper()
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: Marshal: %v", what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
		}
	}

	qr := QueryResponse{
		Query: c.query, Canonical: c.label, K: c.k,
		Cached: flag(0), Partial: flag(1), Coalesced: flag(2), ElapsedMS: c.elapsed,
	}
	if flag(3) {
		qr.RequestID = c.msg
	}
	if flag(4) {
		qr.Trace = &obs.SpanJSON{Name: c.label, DurMS: c.elapsed, Attrs: map[string]any{c.msg: c.k}}
	}
	got := appendQuery(nil, &qr, res)
	qr.Positions, qr.Matches = positions, mj
	same("QueryResponse", got, qr)

	// Item 0 is computed, 1 failed, 2 a cached hit of 0's result, 3 a
	// deduped copy of it.
	br := BatchResponse{
		Items: []BatchItemResponse{
			{Query: c.query, Canonical: c.label, K: c.k, Partial: flag(1)},
			{Query: c.label, Error: c.msg},
			{Query: c.msg, Canonical: c.label, K: c.k, Cached: true},
			{Query: c.query, Canonical: c.label, K: c.k, Deduped: flag(2), Partial: flag(1)},
		},
		Computed: c.k, CacheHits: c.nMatches, Deduped: int(c.flags), ElapsedMS: c.elapsed,
	}
	got = appendBatch(nil, &br, []cachedResult{res, {}, res, res})
	for _, i := range []int{0, 2, 3} {
		br.Items[i].Positions, br.Items[i].Matches = positions, mj
	}
	same("BatchResponse", got, br)

	hdr := StreamHeader{Query: c.query, Canonical: c.label, Positions: positions}
	same("StreamHeader", appendStreamHeader(nil, &hdr), hdr)
	for _, m := range ms {
		same("StreamMatch", appendMatch(nil, m.Score, m.Nodes), StreamMatch{Score: m.Score, Nodes: m.Nodes})
	}
	tr := StreamTrailer{
		Done: flag(0), Count: c.nMatches, Complete: flag(2), Reason: c.label,
		ElapsedMS: c.elapsed, Partial: flag(1), Error: c.msg,
	}
	same("StreamTrailer", appendStreamTrailer(nil, &tr), tr)
}

var encodeCases = []encodeCase{
	{query: "C(E,S)", label: "C", msg: "", k: 5, score: 2, node: 0, nMatches: 3, elapsed: 0.123},
	{query: "a<b>&c", label: "<script>", msg: "x&y", k: 1, score: -4, node: -1, nMatches: 1, flags: 0xff, elapsed: 1},
	{query: "line\u2028sep\u2029para", label: "\u2028", msg: "\u2029", k: 20, nMatches: 2, flags: 0x15, elapsed: 0},
	{query: "bad\xffutf8\xc3", label: "\xfe\xfe", msg: "ok\xe2\x80", k: 1000, nMatches: 5, flags: 0x2a, elapsed: 1e-7},
	{query: "q", label: "zero", msg: "no matches", k: 3, nMatches: 0, flags: 0x41, elapsed: 1e21},
	{query: "\"quoted\"\\\n\r\t\b\f\x00\x1f\x7f", label: "é漢字", msg: "e\u0301", k: 7, nMatches: 4, flags: 0x0e, elapsed: 123456.789},
	{query: "", label: "", msg: "", k: 0, score: math.MaxInt64 - 8, node: math.MaxInt32 - 30, nMatches: 5, flags: 0x60, elapsed: 5e-324},
	{query: "neg", label: "n", msg: "m", k: -1, score: math.MinInt64, node: math.MinInt32, nMatches: 1, flags: 0x08, elapsed: -0.5},
}

// TestResponseEncoding checks the encoder against json.Marshal on inputs
// chosen for encoding/json's edge rules: HTML escapes, U+2028/2029,
// invalid UTF-8, control bytes, zero matches, every omitempty flag, and
// elapsed_ms at 0, 1e-7, 1e21 and the float extremes.
func TestResponseEncoding(t *testing.T) {
	for _, c := range encodeCases {
		checkEncoding(t, c)
	}
	if got := string(encodeResult([]string{"a"}, nil, false).matches); got != "[]" {
		t.Fatalf("no matches encode as %s, want []", got)
	}
}

func FuzzResponseEncoding(f *testing.F) {
	for _, c := range encodeCases {
		f.Add(c.query, c.label, c.msg, c.k, c.score, c.node, uint8(c.nMatches), c.flags, c.elapsed)
	}
	f.Fuzz(func(t *testing.T, query, label, msg string, k int, score int64, node int32, nMatches, flags uint8, elapsed float64) {
		checkEncoding(t, encodeCase{query, label, msg, k, score, node, int(nMatches), flags, elapsed})
	})
}

// rawFields decodes a JSON object into its fields' raw bytes.
func rawFields(t *testing.T, b []byte) map[string]json.RawMessage {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("bad JSON %q: %v", b, err)
	}
	return m
}

// sameExcept fails unless objects a and b have the same fields with the
// same bytes, apart from the named fields.
func sameExcept(t *testing.T, what string, a, b map[string]json.RawMessage, except ...string) {
	t.Helper()
	skip := map[string]bool{}
	for _, k := range except {
		skip[k] = true
	}
	for k, v := range a {
		if !skip[k] && !bytes.Equal(v, b[k]) {
			t.Fatalf("%s: field %q is %s, want %s", what, k, b[k], v)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok && !skip[k] {
			t.Fatalf("%s: extra field %q", what, k)
		}
	}
}

// TestStoredBytesServeEveryPath holds every response that carries a
// cached result to the bytes of the miss that filled the entry: a /query
// hit, a coalesced follower, and /batch cached and deduped items. Only
// cached, coalesced, deduped and elapsed_ms may differ.
func TestStoredBytesServeEveryPath(t *testing.T) {
	s, _ := newTestServer(t, Config{Concurrency: 1, QueueDepth: 4})
	query := func(path string) map[string]json.RawMessage {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("GET %s: Content-Length %q for a %d-byte body", path, cl, rec.Body.Len())
		}
		return rawFields(t, rec.Body.Bytes())
	}

	miss := query("/query?q=C(E,S)&k=5")
	if string(miss["cached"]) != "false" {
		t.Fatal("first query was not a miss")
	}
	hit := query("/query?q=C(E,S)&k=5")
	if string(hit["cached"]) != "true" {
		t.Fatal("second query was not a hit")
	}
	sameExcept(t, "hit", miss, hit, "cached", "elapsed_ms")

	// A leader and a follower of one flight, while the pool is busy.
	release := occupyWorkers(t, s, 1)
	out := make(chan map[string]json.RawMessage, 2)
	for i := 0; i < 2; i++ {
		go func() { out <- query("/query?q=C(E,S)&k=3") }()
	}
	waitFor(t, func() bool { return s.coalesced.Load() == 1 })
	release()
	a, b := <-out, <-out
	if string(a["coalesced"]) == "true" {
		a, b = b, a
	}
	if string(b["coalesced"]) != "true" {
		t.Fatal("no follower was coalesced")
	}
	sameExcept(t, "coalesced follower", a, b, "coalesced", "elapsed_ms")

	// Items: a hit of k=5, a miss of k=2 and its deduped sibling order,
	// and a hit of k=3.
	body := `{"items":[{"q":"C(E,S)","k":5},{"q":"C(E,S)","k":2},{"q":"C(S,E)","k":2},{"q":"C(S,E)","k":3}]}`
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("batch = %d: %s", rec.Code, rec.Body.String())
	}
	var br struct{ Items []map[string]json.RawMessage }
	if err := json.Unmarshal(rec.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	filled := query("/query?q=C(E,S)&k=2") // a hit of the entry the batch filled
	for i, want := range []map[string]json.RawMessage{miss, filled, filled, a} {
		got := br.Items[i]
		for _, f := range []string{"canonical", "k", "positions", "matches"} {
			if !bytes.Equal(got[f], want[f]) {
				t.Fatalf("batch item %d: %s is %s, want %s", i, f, got[f], want[f])
			}
		}
	}
	if string(br.Items[0]["cached"]) != "true" || string(br.Items[2]["deduped"]) != "true" || string(br.Items[3]["cached"]) != "true" {
		t.Fatalf("batch items not served as hit, deduped, hit: %s", rec.Body.String())
	}
}

// cachedHitAllocBound is the 49 allocations measured plus one, which
// the race detector's random sync.Pool drops take. The indented
// reflective encode this replaced made the same request 55; a compact
// json.Marshal of the envelope around the stored bytes makes it 51.
const cachedHitAllocBound = 50

// uncachedMissAllocBound is the 102 allocations TestUncachedQueryAllocs
// measured plus three. Parsing the canonical q a second time made the
// same miss 123; with a map per query position in place of the
// enumerator's dense index it makes two more per position of its 7-node
// query. The race detector drops a random quarter of sync.Pool puts, and
// each dropped enumerator re-allocates its slabs on the next query: under
// it the measured 123–126 get their own slack.
const (
	uncachedMissAllocBound = 105
	uncachedMissRaceSlack  = 40
)

// TestCachedHitAllocs bounds the allocations of a cached /query through
// ServeHTTP — request, recorder, parse, middleware and encode together —
// so a reflective encode on the hit path fails here, not only on a
// stopwatch.
func TestCachedHitAllocs(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	const path = "/query?q=C(E,S)&k=5"
	if rec, qr := getQuery(t, s, path); rec.Code != http.StatusOK || qr.Cached {
		t.Fatalf("fill: status %d cached %v", rec.Code, qr.Cached)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
			t.Fatalf("not a hit: %d %s", rec.Code, rec.Body.String())
		}
	})
	t.Logf("%.0f allocs per cached /query", allocs)
	if allocs > cachedHitAllocBound {
		t.Fatalf("%.0f allocs per cached /query, bound %d", allocs, cachedHitAllocBound)
	}
}

// TestUncachedQueryAllocs bounds the allocations of one uncached /query
// through ServeHTTP, the miss-path companion of TestCachedHitAllocs: the
// result cache is off, so every run enumerates with Topk-EN over a warm
// store. The enumerator's state comes from a pool, so a per-query map,
// slice growth or slab chunk on that path fails here, not only on a
// stopwatch.
func TestUncachedQueryAllocs(t *testing.T) {
	db, queries := powerLawFamily(t, 40)
	s := New(db, Config{CacheEntries: -1})
	t.Cleanup(s.Close)
	path := queryPath(queries[len(queries)-1], 50)
	serveOK(t, s, path) // faults in the tables and fills the pool
	allocs := testing.AllocsPerRun(200, func() {
		if rec := serveOK(t, s, path); bytes.Contains(rec.Body.Bytes(), []byte(`"cached":true`)) {
			t.Fatalf("a hit with the cache off: %s", rec.Body.String())
		}
	})
	t.Logf("%.1f allocs per uncached /query of %s", allocs, path)
	bound := uncachedMissAllocBound
	if raceEnabled {
		bound += uncachedMissRaceSlack
	}
	if allocs > float64(bound) {
		t.Fatalf("%.1f allocs per uncached /query, bound %d", allocs, bound)
	}
}

// TestCachedResultSurvivesMisses fills the result cache for one key, runs
// 100 misses whose enumerators reuse the pool that served it, and
// requires the cached "positions" and "matches" bytes to be unchanged:
// a cached result must never alias an enumerator's pooled memory.
func TestCachedResultSurvivesMisses(t *testing.T) {
	db, queries := powerLawFamily(t, 40)
	s := New(db, Config{})
	t.Cleanup(s.Close)
	key := queryPath(queries[0], 20)
	serveOK(t, s, key)
	answer := func() []byte {
		body := serveOK(t, s, key).Body.Bytes()
		lo, hi := bytes.Index(body, []byte(`"positions":`)), bytes.Index(body, []byte(`,"cached":true`))
		if lo < 0 || hi < lo {
			t.Fatalf("not a cached answer: %s", body)
		}
		return bytes.Clone(body[lo:hi])
	}
	before := answer()
	for i := 0; i < 100; i++ {
		path := queryPath(queries[i%len(queries)], 21+i)
		if rec := serveOK(t, s, path); !bytes.Contains(rec.Body.Bytes(), []byte(`"cached":false`)) {
			t.Fatalf("%s was not a miss: %s", path, rec.Body.String())
		}
	}
	if after := answer(); !bytes.Equal(before, after) {
		t.Fatalf("cached answer changed after 100 misses:\nbefore %s\nafter  %s", before, after)
	}
}
