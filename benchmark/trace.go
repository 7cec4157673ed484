package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ktpm"
	"ktpm/internal/remote"
	"ktpm/internal/server"
)

// span is one timed call into a layer, recorded by this package around
// the layer's public function. Parent is the index of the span whose
// call was running when this one began, -1 for a root; spans of one
// replayed request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Pass   string `json:"pass"`
}

func (s span) dur() float64 { return float64(s.End - s.Start) }

// tracer collects spans in memory. A nil *tracer records nothing, which
// is how the spans-off pass runs the same code. The replay is one call
// chain at a time (the handler waits for the executor task it submits),
// so the innermost open span is a single cursor; the mutex only orders
// the hand-off between the replay goroutine and the server's worker.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cur   int
	req   int
	pass  string
	muted bool                 // while the prelude runs: it is set-up, not workload
	notes map[string][]float64 // measurements that are not intervals
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), cur: -1, notes: map[string][]float64{}}
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.muted {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Parent: t.cur, Req: t.req, Pass: t.pass,
		Start: int64(time.Since(t.t0))})
	t.cur = id
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.cur = t.spans[id].Parent
}

func (t *tracer) mute(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.muted = on
	t.mu.Unlock()
}

func (t *tracer) note(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.muted {
		return
	}
	t.notes[name] = append(t.notes[name], v)
}

// durations returns, in nanoseconds, the spans of one pass with the
// given name.
func (t *tracer) durations(pass, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Pass == pass && s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, for every span of the pass with the given name, its
// duration minus the durations of its direct children.
func (t *tracer) selfTimes(pass, name string) []float64 {
	child := map[int]float64{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	var out []float64
	for i, s := range t.spans {
		if s.Pass == pass && s.Name == name {
			out = append(out, s.dur()-child[i])
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(map[string]any{"spans": t.spans, "notes": t.notes})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// tracedBackend puts a span around every call the server makes into its
// backend, so a handler span's children are the engine's share of the
// request and the rest is the server's own.
type tracedBackend struct {
	server.Backend
	tr     *tracer
	engine string // span name of TopKWith: lazy.topk, shard.topk or remote.topk
}

func (b *tracedBackend) ParseQuery(s string) (*ktpm.Query, error) {
	id := b.tr.begin("query.parse")
	defer b.tr.end(id)
	return b.Backend.ParseQuery(s)
}

func (b *tracedBackend) TopKWith(q *ktpm.Query, k int, opt ktpm.Options) ([]ktpm.Match, error) {
	id := b.tr.begin(b.engine)
	defer b.tr.end(id)
	return b.Backend.TopKWith(q, k, opt)
}

func (b *tracedBackend) TopKBatch(items []ktpm.BatchItem) []ktpm.BatchResult {
	id := b.tr.begin("batch.topk")
	defer b.tr.end(id)
	return b.Backend.TopKBatch(items)
}

func (b *tracedBackend) OpenStream(q *ktpm.Query, opt ktpm.Options) (ktpm.MatchStream, error) {
	whole := b.tr.begin("lazy.stream")
	first := b.tr.begin("lazy.first_match")
	st, err := b.Backend.OpenStream(q, opt)
	if err != nil {
		b.tr.end(first)
		b.tr.end(whole)
		return nil, err
	}
	return &tracedStream{MatchStream: st, tr: b.tr, whole: whole, first: first}, nil
}

// tracedStream ends the first-match span when the first Next returns and
// adds up the time spent inside the later Next calls, which is the
// enumerator's cost per further match without the handler's encoding
// between them.
type tracedStream struct {
	ktpm.MatchStream
	tr           *tracer
	whole, first int
	n            int
	later        time.Duration
	closed       bool
}

func (s *tracedStream) Next() (ktpm.Match, bool) {
	t0 := time.Now()
	m, ok := s.MatchStream.Next()
	if s.n == 0 {
		s.tr.end(s.first)
	} else {
		s.later += time.Since(t0)
	}
	if ok {
		s.n++
	}
	return m, ok
}

func (s *tracedStream) Close() {
	s.MatchStream.Close()
	if s.closed {
		return
	}
	s.closed = true
	if s.n == 0 {
		s.tr.end(s.first)
	}
	s.tr.end(s.whole)
	if s.n > 1 {
		s.tr.note("lazy.us_per_match", float64(s.later.Nanoseconds())/1e3/float64(s.n-1))
	}
}

// pass is what one replay of the request prefix returns beside its spans.
type pass struct {
	wall       time.Duration
	io0, io1   ktpm.IOStats // the backend's counters before and after the requests
	matches    int
	queries    int   // /query requests replayed
	queryBytes int64 // bytes of their replies
	failed     int   // replies that were not 200
}

// replay pushes prelude and then reqs, in order, through a server built
// over backend and into a response recorder: the daemon's handler path
// without the socket. The prelude is sent as the daemon's was, for the
// state it leaves behind, and is neither traced nor counted. Each
// request's root span is server.handler.<endpoint>.
func replay(backend server.Backend, cfg server.Config, tr *tracer, name, engine string, prelude, reqs []request) pass {
	if tr != nil {
		tr.pass = name
		backend = &tracedBackend{Backend: backend, tr: tr, engine: engine}
	}
	srv := server.New(backend, cfg)
	defer srv.Close()
	serve := func(r *request) *httptest.ResponseRecorder {
		var hr *http.Request
		if r.body != nil {
			hr = httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		} else {
			hr = httptest.NewRequest(http.MethodGet, r.path, nil)
		}
		rec := httptest.NewRecorder()
		id := tr.begin("server.handler." + r.kind.String())
		srv.ServeHTTP(rec, hr)
		tr.end(id)
		return rec
	}
	var p pass
	tr.mute(true)
	for i := range prelude {
		if serve(&prelude[i]).Code != http.StatusOK {
			p.failed++
		}
	}
	tr.mute(false)
	p.io0 = backend.IOStats()
	t0 := time.Now()
	for i := range reqs {
		r := &reqs[i]
		if tr != nil {
			tr.req = i
		}
		rec := serve(r)
		if rec.Code != http.StatusOK {
			p.failed++
		}
		p.matches += bytes.Count(rec.Body.Bytes(), scoreKey)
		switch r.kind {
		case kindQuery:
			p.queries++
			p.queryBytes += int64(rec.Body.Len())
		case kindBatch:
			// The handler folds identical items together before it calls
			// the backend, so the share comes from its reply.
			var reply struct {
				Deduped int `json:"deduped"`
			}
			if json.Unmarshal(rec.Body.Bytes(), &reply) == nil {
				tr.note("batch.dedup_share", float64(reply.Deduped)/float64(len(r.items)))
			}
		}
	}
	p.wall = time.Since(t0)
	p.io1 = backend.IOStats()
	return p
}

// countingHandler adds up the bytes a handler writes.
type countingHandler struct {
	h     http.Handler
	bytes *atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	bytes *atomic.Int64
}

func (w countingWriter) Write(b []byte) (int, error) {
	w.bytes.Add(int64(len(b)))
	return w.ResponseWriter.Write(b)
}

func (w countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (c countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.h.ServeHTTP(countingWriter{w, c.bytes}, r)
}

// localFleet is a coordinator over two workers, each behind its own
// loopback listener in this process.
type localFleet struct {
	coord     *remote.Coordinator
	servers   []*httptest.Server
	wireBytes atomic.Int64
}

func newLocalFleet(db *ktpm.Database) (*localFleet, error) {
	f := &localFleet{}
	part := ktpm.PartitionByHash()
	eps := make([][]remote.Endpoint, 2)
	for i := range eps {
		w, err := remote.NewWorker(db, remote.WorkerConfig{Index: i, Count: 2, Partitioner: part})
		if err != nil {
			f.close()
			return nil, err
		}
		s := httptest.NewServer(countingHandler{w.Handler(), &f.wireBytes})
		f.servers = append(f.servers, s)
		eps[i] = []remote.Endpoint{remote.NewHTTPEndpoint(s.URL)}
	}
	coord, err := remote.NewCoordinator(db, part.Name(), eps, remote.Config{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.coord = coord
	return f, nil
}

func (f *localFleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

// p50 is the median of xs, 0 for none.
func p50(xs []float64) float64 { return percentile(xs, 0.50) }

// percentile is the nearest-rank percentile of xs, 0 for none.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p*float64(len(s))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
