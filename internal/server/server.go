package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ktpm"
	"ktpm/internal/lru"
	"ktpm/internal/obs"
	"ktpm/internal/remote"
)

// Backend is the query surface the server serves: parsing, top-k
// execution (single, batched, and streaming), plans, and counters over
// one immutable prepared graph. Both *ktpm.Database and
// *ktpm.ShardedDatabase implement it, which is how ktpmd -shards routes
// /query, /batch, /stream, and /explain through the sharded database
// without any endpoint noticing.
type Backend interface {
	ParseQuery(s string) (*ktpm.Query, error)
	TopKWith(q *ktpm.Query, k int, opt ktpm.Options) ([]ktpm.Match, error)
	TopKBatch(items []ktpm.BatchItem) []ktpm.BatchResult
	OpenStream(q *ktpm.Query, opt ktpm.Options) (ktpm.MatchStream, error)
	Explain(q *ktpm.Query) (*ktpm.Plan, error)
	Graph() *ktpm.Graph
	IOStats() ktpm.IOStats
}

// shardStater is the optional Backend extension a sharded backend
// implements; /stats and /metrics surface its per-shard match counts.
type shardStater interface {
	ShardStats() ktpm.ShardingStats
}

// snapshotStater is the optional Backend extension a snapshot-opened
// database implements; /stats and /metrics surface its backing mode,
// faulted-table progress, and mapped bytes.
type snapshotStater interface {
	SnapshotStats() (ktpm.SnapshotStats, bool)
}

// coordinatorStater is the optional Backend extension the distributed
// coordinator implements; /stats ("workers" block) and the
// ktpmd_worker_* metrics surface its per-replica counters.
type coordinatorStater interface {
	CoordinatorStats() remote.CoordinatorStats
}

// StartupInfo records how the daemon obtained its database, surfaced
// verbatim in /stats and /metrics so operators can see what a restart
// would cost. The zero value reports nothing.
type StartupInfo struct {
	// Source is "graph" (closure built at startup) or "snapshot" (a
	// KTPMSNAP2 file opened at startup).
	Source string `json:"source"`
	// SnapshotMode is the effective snapshot backing ("eager", "lazy",
	// "mmap"); empty for non-snapshot sources.
	SnapshotMode string `json:"snapshot_mode,omitempty"`
	// OpenMS is the wall time spent building or opening the database
	// before serving could begin.
	OpenMS float64 `json:"open_ms"`
}

// Config tunes the service. The zero value serves with sensible defaults.
type Config struct {
	// Concurrency is the worker-pool size; 0 means GOMAXPROCS.
	Concurrency int
	// QueueDepth is how many admitted requests may wait for a worker
	// beyond the ones running; 0 means 64. Requests beyond it get 503.
	QueueDepth int
	// RequestTimeout bounds queue wait plus execution; 0 means 10s.
	RequestTimeout time.Duration
	// CacheEntries is the result-cache capacity; 0 means 1024, negative
	// disables caching.
	CacheEntries int
	// CacheMinEntries is the cost-aware admission threshold: a result is
	// cached only when computing it read at least this many store entries
	// (simulated I/O), so cheap queries do not evict expensive ones. 0
	// admits every result. The cost is measured as the database-wide
	// EntriesRead delta around the computation, which under concurrent
	// traffic may include other queries' reads — an overestimate that only
	// ever biases toward admission, never wrongly bypasses an expensive
	// query.
	CacheMinEntries int
	// DefaultK is used when a /query request omits k; 0 means 10.
	DefaultK int
	// MaxK rejects larger k values (one request cannot ask for an
	// arbitrarily large enumeration); 0 means 1000.
	MaxK int
	// MaxQueryLen rejects longer q strings; 0 means 4096. The cap also
	// bounds the recursive parser's depth (each nesting level costs at
	// least two bytes), keeping adversarial deeply-nested queries from
	// exhausting the handler goroutine's stack.
	MaxQueryLen int
	// MaxBatchItems rejects /batch requests with more items; 0 means 256.
	// One batch occupies one worker for its whole run, so the cap bounds
	// how long a single admission decision can hold the pool.
	MaxBatchItems int
	// MaxStreamMatches caps how many matches one /stream response may
	// carry (and is the default when the request omits max); 0 means
	// 100000.
	MaxStreamMatches int
	// StreamChunk is the NDJSON flush granularity: the response is
	// flushed (and client disconnect / deadline checked) every this many
	// matches; 0 means 32.
	StreamChunk int
	// MaxQueueWait is the adaptive-admission budget: a request predicted
	// to wait longer than this (or than its own timeout, whichever is
	// smaller) for a worker is shed up front with 429 + Retry-After
	// instead of queueing toward a 504. 0 disables predictive shedding
	// (the bounded queue's 503 remains). ktpmd defaults the flag to 2s.
	MaxQueueWait time.Duration
	// MemSoftLimit is the heap soft limit in bytes: the memory watcher
	// degrades the server in stages (shrink cache, stop cache admission,
	// shed non-cached requests) as live heap approaches it. 0 disables
	// the watcher.
	MemSoftLimit int64
	// MaxBodyBytes caps POST request bodies on /query, /batch, and
	// /stream; oversized bodies answer 413. 0 means 4 MiB; negative
	// disables the cap.
	MaxBodyBytes int64
	// QuarantineCap bounds the poison-query quarantine set (canonical
	// queries whose enumeration panicked; repeats fast-fail with 500).
	// 0 means 128.
	QuarantineCap int
	// Startup describes how the backend database was loaded (ktpmd fills
	// it); reported in /stats and /metrics.
	Startup StartupInfo
	// TraceRing is the /debug/traces ring capacity; 0 means 64, negative
	// disables the ring (trace spans are still built and aggregated).
	TraceRing int
	// SlowQuery is the slow-query threshold: requests at or above it are
	// logged with their span tree and are the only ones retained in the
	// trace ring. 0 retains every query-family request in the ring and
	// never emits the slow-query log.
	SlowQuery time.Duration
	// Logger receives structured access and slow-query logs; nil disables
	// logging (histograms, spans, and the ring still work).
	Logger *slog.Logger
	// AccessLog enables the per-request access log on Logger.
	AccessLog bool
	// DisableObs turns the observability middleware off entirely — no
	// request IDs, spans, histograms, ring, or logs. Exists for the
	// instrumentation-overhead benchmark; production servers leave it on.
	DisableObs bool
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0 // lru treats 0 as disabled
	}
	if c.DefaultK <= 0 {
		c.DefaultK = 10
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.MaxQueryLen <= 0 {
		c.MaxQueryLen = 4096
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 256
	}
	if c.MaxStreamMatches <= 0 {
		c.MaxStreamMatches = 100000
	}
	if c.StreamChunk <= 0 {
		c.StreamChunk = 32
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = 4 << 20
	}
	if c.QuarantineCap <= 0 {
		c.QuarantineCap = 128
	}
	return c
}

// MatchJSON is one match in a QueryResponse: Nodes[i] is the data node
// bound to canonical-query position i (see QueryResponse.Positions).
type MatchJSON struct {
	Score int64   `json:"score"`
	Nodes []int32 `json:"nodes"`
}

// QueryResponse is the /query response body.
type QueryResponse struct {
	Query     string      `json:"query"`
	Canonical string      `json:"canonical"`
	K         int         `json:"k"`
	Positions []string    `json:"positions"`
	Matches   []MatchJSON `json:"matches"`
	Cached    bool        `json:"cached"`
	// Coalesced marks a response served by another concurrent request's
	// in-flight computation rather than a worker of its own.
	Coalesced bool    `json:"coalesced,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// RequestID and Trace are present only with ?debug=1: the request's
	// correlation ID (also echoed in the X-Request-ID header) and the
	// request's span tree as of response assembly — earlier stages are
	// finished, encode and the root are still open, so stage durations
	// sum to at most the root's.
	RequestID string        `json:"request_id,omitempty"`
	Trace     *obs.SpanJSON `json:"trace,omitempty"`
}

// Server is the HTTP query service over one shared backend.
type Server struct {
	db    Backend
	cfg   Config
	exec  *executor
	cache *lru.Cache[cachedResult]
	mux   *http.ServeMux
	start time.Time
	obs   *serverObs  // nil when Config.DisableObs
	ready atomic.Bool // /readyz gate; New starts ready

	// The resilience layer: predictive admission, the brownout
	// controller, the poison-query quarantine, the memory watcher (nil
	// unless MemSoftLimit is set), and the drain gate.
	adm      *admission
	brown    *brownout
	quar     *quarantine
	mem      *memWatcher
	draining atomic.Bool // BeginDrain flips it; query-family endpoints reject 503

	// flights coalesces concurrent cache misses for the same key: one
	// leader occupies a worker, followers wait on its flightCall. Without
	// this, N simultaneous identical cold queries would run N identical
	// enumerations and monopolize the pool.
	flightMu sync.Mutex
	flights  map[string]*flightCall

	cacheAdmitted atomic.Int64 // results cached after passing admission
	cacheBypassed atomic.Int64 // results not cached: below CacheMinEntries

	queries    atomic.Int64 // /query requests that produced matches (incl. cached)
	explains   atomic.Int64
	errors     atomic.Int64 // 4xx/5xx responses of any kind
	rejected   atomic.Int64 // 503: admission queue full
	timedOut   atomic.Int64 // 504: deadline expired
	clientGone atomic.Int64 // 499: client disconnected before the result
	coalesced  atomic.Int64 // /query requests served by another request's flight

	batches        atomic.Int64 // successful /batch responses
	batchItems     atomic.Int64 // items across successful batches
	batchComputed  atomic.Int64 // items that ran an enumeration
	batchDeduped   atomic.Int64 // items served by an identical item in the same batch
	batchCacheHits atomic.Int64 // items served from the result cache
	batchItemErrs  atomic.Int64 // items that failed inside an otherwise-successful batch

	streams            atomic.Int64 // /stream responses started
	streamMatches      atomic.Int64 // NDJSON match lines written
	streamMaxHits      atomic.Int64 // streams truncated by the max-matches guard
	streamDeadlineHits atomic.Int64 // streams truncated by the request deadline
	streamDisconnects  atomic.Int64 // streams stopped by a mid-stream client disconnect

	shedDeadline atomic.Int64 // 429: predicted queue wait exceeded the budget
	shedBrownout atomic.Int64 // 429: brownout shed an uncached work class
	shedMemory   atomic.Int64 // 429: heap over the soft limit shed non-cached work
	shedDrain    atomic.Int64 // 503: request arrived while draining
	tooLarge     atomic.Int64 // 413: POST body over MaxBodyBytes
}

// flightCall is one in-progress /query computation, shared by every
// request that arrived for the same key while it ran. res and err are
// written once, before done is closed.
type flightCall struct {
	done chan struct{}
	res  cachedResult
	err  error
}

// New builds a Server over db. The caller owns db's lifetime; Close stops
// the worker pool.
func New(db Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:      db,
		cfg:     cfg,
		exec:    newExecutor(cfg.Concurrency, cfg.QueueDepth),
		cache:   lru.New[cachedResult](cfg.CacheEntries),
		mux:     http.NewServeMux(),
		start:   time.Now(),
		flights: make(map[string]*flightCall),
		adm:     newAdmission(cfg.MaxQueueWait, cfg.Concurrency),
		brown:   newBrownout(),
		quar:    newQuarantine(cfg.QuarantineCap),
	}
	if !cfg.DisableObs {
		s.obs = newServerObs(cfg)
	}
	if cfg.MemSoftLimit > 0 {
		s.mem = newMemWatcher(cfg.MemSoftLimit, s.cache)
		s.mem.start()
	}
	s.ready.Store(true)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/stream", s.handleStream)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/debug/traces", s.handleDebugTraces)
	return s
}

// ServeHTTP implements http.Handler. With observability on (the
// default), every request passes through the middleware: request-ID
// propagation, a root trace span carried via context, endpoint and stage
// latency histograms, the trace ring, and access/slow-query logging.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil {
		s.mux.ServeHTTP(w, r)
		return
	}
	s.obs.serve(s, w, r)
}

// Close stops the worker pool after in-flight queries finish, and the
// memory watcher when one is running.
func (s *Server) Close() {
	if s.mem != nil {
		s.mem.stopWatch()
	}
	s.exec.Close()
}

// BeginDrain flips the server into drain mode: /readyz answers 503
// immediately (load balancers stop routing here), every query-family
// endpoint rejects new work with 503 + Retry-After, and in-flight
// requests run to completion — the caller (ktpmd's SIGTERM path) then
// bounds the wait with http.Server.Shutdown and -drain-timeout.
// /healthz keeps answering 200: the process is alive, just leaving.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.ready.Store(false)
	}
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// rejectDraining answers a request that arrived after BeginDrain.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	s.shedDrain.Add(1)
	w.Header().Set("Retry-After", "1")
	s.writeError(w, http.StatusServiceUnavailable, "server is draining for shutdown")
}

// shedClass returns the shed reason that currently applies to a request
// class, or "" when it may proceed. expensive marks the uncached work
// classes brownout stage 1 sheds first (/stream, and /batch with cache
// misses); /query and /explain misses keep flowing until the memory
// watcher reaches its final stage.
func (s *Server) shedClass(expensive bool) string {
	if s.memStage() >= memStageShed {
		return shedReasonMemory
	}
	if expensive && s.brown.stage.Load() >= brownoutShed {
		return shedReasonBrownout
	}
	return ""
}

// writeShed answers a load-shed request with 429 + Retry-After. Only
// deadline sheds feed the brownout detector: brownout- and memory-shed
// responses are consequences of their own controllers, and feeding them
// back would keep brownout latched after the pressure is gone.
func (s *Server) writeShed(w http.ResponseWriter, reason string) {
	switch reason {
	case shedReasonDeadline:
		s.shedDeadline.Add(1)
	case shedReasonBrownout:
		s.shedBrownout.Add(1)
	case shedReasonMemory:
		s.shedMemory.Add(1)
	}
	s.brown.record(reason == shedReasonDeadline)
	est := s.adm.estWait(s.exec.queued.Load())
	w.Header().Set("Retry-After", retryAfterSeconds(est))
	s.writeError(w, http.StatusTooManyRequests, "server overloaded (%s), retry later", reason)
}

// limitBody wraps a POST body in http.MaxBytesReader and parses the
// form, answering 413 when the body exceeds MaxBodyBytes. GET requests
// (query in the URL) never pass through it.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.MaxBodyBytes > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	}
	if err := r.ParseForm(); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.tooLarge.Add(1)
			s.writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", s.cfg.MaxBodyBytes)
		} else {
			s.writeError(w, http.StatusBadRequest, "bad form body: %v", err)
		}
		return false
	}
	return true
}

// recordPanic quarantines canonical when err is a PanicError, so
// repeats of the crashing query fast-fail instead of burning another
// worker. It reports whether err was a panic.
func (s *Server) recordPanic(canonical string, err error) bool {
	var pe *PanicError
	if !errors.As(err, &pe) {
		return false
	}
	s.quar.add(canonical)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Error("query panicked; canonical form quarantined",
			"canonical", canonical,
			"panic", fmt.Sprint(pe.Val),
			"stack", string(pe.Stack),
		)
	}
	return true
}

// writeJSON answers with v as compact JSON and a trailing newline, the
// one style every reply shares.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b, status = []byte(`{"error":"encode response: unsupported value"}`), http.StatusInternalServerError
	}
	writeBody(w, status, append(b, '\n'))
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.errors.Add(1)
	s.writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// errAlgoRemoved answers a request that still names an algorithm. Every
// request runs Topk-EN; serving it to a client that asked for a baseline
// would be a silent wrong answer, so the parameter fails loudly instead.
const errAlgoRemoved = "algo was removed: every request runs Topk-EN"

// parseRequest extracts and validates the q/k parameters shared by
// /query and /explain. A nil *Query return means an error response was
// already written.
func (s *Server) parseRequest(w http.ResponseWriter, r *http.Request) (q *ktpm.Query, k int, ok bool) {
	sp := requestSpan(w, r).StartChild("parse")
	defer sp.End()
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return nil, 0, false
	}
	if r.Method == http.MethodPost && !s.limitBody(w, r) {
		return nil, 0, false
	}
	qs := r.FormValue("q")
	if qs == "" {
		s.writeError(w, http.StatusBadRequest, "missing required parameter q")
		return nil, 0, false
	}
	if len(qs) > s.cfg.MaxQueryLen {
		s.writeError(w, http.StatusBadRequest, "query length %d exceeds the maximum %d", len(qs), s.cfg.MaxQueryLen)
		return nil, 0, false
	}
	k = s.cfg.DefaultK
	if ks := r.FormValue("k"); ks != "" {
		var err error
		k, err = strconv.Atoi(ks)
		if err != nil || k < 1 {
			s.writeError(w, http.StatusBadRequest, "k must be a positive integer, got %q", ks)
			return nil, 0, false
		}
		if k > s.cfg.MaxK {
			s.writeError(w, http.StatusBadRequest, "k=%d exceeds the maximum %d", k, s.cfg.MaxK)
			return nil, 0, false
		}
	}
	if r.FormValue("algo") != "" {
		s.writeError(w, http.StatusBadRequest, "%s", errAlgoRemoved)
		return nil, 0, false
	}
	q, err := s.db.ParseQuery(qs)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad query: %v", err)
		return nil, 0, false
	}
	return q, k, true
}

// execute runs fn through the pool under the endpoint family ep (which
// names the moving cost estimate its execution time feeds), returning
// the executor's error for the caller to map via writeExecError.
func (s *Server) execute(w http.ResponseWriter, r *http.Request, ep string, fn func()) error {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	// The admission-wait span opens before Do and is ended as the task's
	// first statement, so it measures exactly the queue wait. The second
	// End (for tasks dropped before running) is an idempotent no-op when
	// the first already fired.
	wait := requestSpan(w, r).StartChild("admission_wait")
	err := s.exec.Do(ctx, func() {
		wait.End()
		t0 := time.Now()
		fn()
		s.adm.observe(ep, time.Since(t0))
	})
	wait.End()
	return err
}

// writeExecError maps an executor error to its HTTP response; it reports
// whether err was nil (the computation's result may be used).
func (s *Server) writeExecError(w http.ResponseWriter, err error) bool {
	switch {
	case err == nil:
		s.brown.record(false)
		return true
	case errors.Is(err, ErrQueueFull):
		// A full queue is a saturation signal exactly like a predictive
		// deadline shed; both feed the brownout detector.
		s.rejected.Add(1)
		s.brown.record(true)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusServiceUnavailable, "admission queue full, retry later")
		return false
	case errors.Is(err, context.DeadlineExceeded):
		s.timedOut.Add(1)
		s.writeError(w, http.StatusGatewayTimeout, "request exceeded %v", s.cfg.RequestTimeout)
		return false
	case errors.Is(err, context.Canceled):
		// The client went away before the result was ready; nobody reads
		// this response. Counted separately from deadline expiry so client
		// churn does not masquerade as server timeouts in /metrics. 499 is
		// the de-facto "client closed request" status.
		s.clientGone.Add(1)
		s.writeError(w, 499, "client canceled the request")
		return false
	default:
		s.writeError(w, http.StatusInternalServerError, "query failed: %v", err)
		return false
	}
}

// runQuery computes the result for key through the worker pool,
// coalescing concurrent identical requests: the first request for a key
// leads and occupies a worker; the rest wait on its result (reported by
// coalesced) without consuming pool capacity. The returned error may be
// ErrQueueFull, a context error, or a query failure.
func (s *Server) runQuery(w http.ResponseWriter, r *http.Request, key string, cq *ktpm.Query, k int) (_ cachedResult, coalesced bool, _ error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	s.flightMu.Lock()
	if fc, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		s.coalesced.Add(1)
		select {
		case <-fc.done:
			return fc.res, true, fc.err
		case <-ctx.Done():
			return cachedResult{}, true, ctx.Err()
		}
	}
	fc := &flightCall{done: make(chan struct{})}
	s.flights[key] = fc
	s.flightMu.Unlock()

	// A finished flight fills the cache before deregistering, so a
	// request that missed the cache in the handler but reached flightMu
	// after that deregistration would otherwise redo completed work.
	// Peek, not Get: the handler's miss is already counted.
	if res, hit := s.cache.Peek(key); hit {
		s.flightMu.Lock()
		delete(s.flights, key)
		s.flightMu.Unlock()
		fc.res = res
		close(fc.done)
		return res, false, nil
	}

	// The flight runs under its own deadline, detached from the leader's
	// request: the computation is shared, so one client's disconnect must
	// not fail the coalesced followers with a spurious error.
	fctx, fcancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer fcancel()
	// Stage spans attach to the leader's trace; coalesced followers have
	// no stages of their own (they only wait).
	trace := requestSpan(w, r)
	// The closure writes only its own locals: if Do returns a deadline
	// error while the task is still running on a worker, the abandoned
	// task must not race with followers reading fc after done closes.
	var (
		res     cachedResult
		callErr error
	)
	wait := trace.StartChild("admission_wait")
	err := s.exec.Do(fctx, func() {
		wait.End()
		tExec := time.Now()
		defer func() { s.adm.observe("query", time.Since(tExec)) }()
		var costBefore int64
		if s.cfg.CacheMinEntries > 0 {
			costBefore = s.db.IOStats().EntriesRead
		}
		// Table faults and shard merges the call triggers nest under the
		// enumerate span.
		en := trace.StartChild("enumerate")
		ms, err := s.db.TopKWith(cq, k, ktpm.Options{Trace: en})
		en.End()
		if err != nil {
			callErr = err
			return
		}
		// Encoded once here: this response, its coalesced followers and
		// later hits all splice the same bytes.
		enc := trace.StartChild("encode")
		res = encodeResult(positionsOf(cq), ms)
		enc.End()
		if s.cfg.CacheEntries <= 0 {
			return // cache disabled: admission would be bookkeeping fiction
		}
		if !s.cacheAdmitAllowed() {
			// Memory stage 2+: every byte the cache takes is a byte the
			// watcher has to claw back next sample.
			s.cacheBypassed.Add(1)
			return
		}
		// Cost-aware admission: only results whose enumeration did real
		// store I/O earn a cache slot (see Config.CacheMinEntries).
		if s.cfg.CacheMinEntries > 0 {
			if cost := s.db.IOStats().EntriesRead - costBefore; cost < int64(s.cfg.CacheMinEntries) {
				s.cacheBypassed.Add(1)
				return
			}
		}
		// Cache from inside the task: even if every waiter times out, the
		// completed work still warms the cache for the retry.
		s.cache.Put(key, res)
		s.cacheAdmitted.Add(1)
	})
	wait.End() // no-op unless the task was dropped before running
	if err == nil {
		fc.res, fc.err = res, callErr
	} else {
		fc.err = err
	}
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	close(fc.done)
	return fc.res, false, fc.err
}

// resultKey is the result-cache and dedup identity of a query execution.
// /query and /batch share cache entries, so every probe and fill site
// must build keys through this one method. On a live (writable) backend
// the key carries the serving epoch: every acked ingest and every
// compaction swap bump the epoch, so results cached against an older
// graph are simply never probed again — they age out of the LRU instead
// of being served stale, and in-flight coalesced computations keyed
// under the old epoch stay correct for the requests that joined them.
func (s *Server) resultKey(canonical string, k int) string {
	key := canonical + "\x00" + strconv.Itoa(k)
	if li, ok := s.db.(liveBackend); ok {
		key = strconv.FormatUint(li.Epoch(), 16) + "\x00" + key
	}
	return key
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.draining.Load() {
		s.rejectDraining(w)
		return
	}
	q, k, ok := s.parseRequest(w, r)
	if !ok {
		return
	}
	canonical := q.Canonical()
	key := s.resultKey(canonical, k)
	resp := QueryResponse{
		Query:     r.FormValue("q"),
		Canonical: canonical,
		K:         k,
	}
	cp := requestSpan(w, r).StartChild("cache_probe")
	res, hit := s.cache.Get(key)
	cp.End()
	if hit {
		s.queries.Add(1)
		resp.Cached = true
		s.writeQuery(w, r, &resp, res, t0)
		return
	}
	// Cache misses pass the overload gates: the quarantine fast-fail,
	// the memory watcher's final stage, and the predictive queue-wait
	// check. Cache hits above never get here — serving paid-for work is
	// the whole point of brownout.
	if s.quar.has(canonical) {
		s.writeError(w, http.StatusInternalServerError, "query quarantined: its enumeration previously crashed")
		return
	}
	if reason := s.shedClass(false); reason != "" {
		s.writeShed(w, reason)
		return
	}
	if _, bad := s.adm.shouldShed(s.exec.queued.Load(), s.cfg.RequestTimeout); bad {
		s.writeShed(w, shedReasonDeadline)
		return
	}
	// Execute the canonical form so cached position numbering is
	// reproducible regardless of which sibling order first filled the
	// entry. A request already in canonical form parsed to exactly that.
	cq := q
	if resp.Query != canonical {
		var err error
		if cq, err = s.db.ParseQuery(canonical); err != nil {
			s.writeError(w, http.StatusInternalServerError, "canonical reparse: %v", err)
			return
		}
	}
	res, coalesced, err := s.runQuery(w, r, key, cq, k)
	if err != nil && !coalesced {
		// Only the flight leader quarantines: followers share the same
		// error and would multiply the panic count.
		s.recordPanic(canonical, err)
	}
	if !s.writeExecError(w, err) {
		return
	}
	s.queries.Add(1)
	resp.Coalesced = coalesced
	s.writeQuery(w, r, &resp, res, t0)
}

// writeQuery assembles the /query envelope around res's stored bytes and
// writes it, inside the request's encode span. With ?debug=1 the trace
// is snapshotted first — encode is still open then — and before
// ElapsedMS is stamped, so the trace's stage sum never exceeds the total
// the client sees.
func (s *Server) writeQuery(w http.ResponseWriter, r *http.Request, resp *QueryResponse, res cachedResult, t0 time.Time) {
	trace := requestSpan(w, r)
	enc := trace.StartChild("encode")
	if r.FormValue("debug") == "1" {
		resp.RequestID = w.Header().Get("X-Request-ID")
		resp.Trace = trace.Snapshot()
	}
	resp.ElapsedMS = msSince(t0)
	bp := getBuf()
	b := append(appendQuery(*bp, resp, res), '\n')
	writeBody(w, http.StatusOK, b)
	putBuf(bp, b)
	enc.End()
}

// ExplainResponse is the /explain response body.
type ExplainResponse struct {
	Canonical string     `json:"canonical"`
	Plan      *ktpm.Plan `json:"plan"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.draining.Load() {
		s.rejectDraining(w)
		return
	}
	q, _, ok := s.parseRequest(w, r)
	if !ok {
		return
	}
	canonical := q.Canonical()
	if s.quar.has(canonical) {
		s.writeError(w, http.StatusInternalServerError, "query quarantined: its enumeration previously crashed")
		return
	}
	if reason := s.shedClass(false); reason != "" {
		s.writeShed(w, reason)
		return
	}
	if _, bad := s.adm.shouldShed(s.exec.queued.Load(), s.cfg.RequestTimeout); bad {
		s.writeShed(w, shedReasonDeadline)
		return
	}
	var (
		plan    *ktpm.Plan
		callErr error
	)
	// Explain plans from the closure's table directory: it reads no
	// table and builds no run-time graph. It still runs in the same
	// admission-controlled pool as /query, so /explain shares the
	// daemon's concurrency limit, shedding and deadlines. Planning counts
	// as the request's enumerate stage: it is the work a worker slot was
	// held for.
	trace := requestSpan(w, r)
	err := s.execute(w, r, "explain", func() {
		en := trace.StartChild("enumerate")
		plan, callErr = s.db.Explain(q)
		en.End()
	})
	s.recordPanic(canonical, err)
	if !s.writeExecError(w, err) {
		return
	}
	if callErr != nil {
		s.writeError(w, http.StatusInternalServerError, "explain failed: %v", callErr)
		return
	}
	s.explains.Add(1)
	s.writeJSON(w, http.StatusOK, ExplainResponse{
		Canonical: q.Canonical(),
		Plan:      plan,
		ElapsedMS: msSince(t0),
	})
}

// StatsResponse is the /stats response body.
type StatsResponse struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Graph         struct {
		Nodes int `json:"nodes"`
		Edges int `json:"edges"`
	} `json:"graph"`
	Queries  int64 `json:"queries"`
	Explains int64 `json:"explains"`
	Errors   int64 `json:"errors"`
	// Coalesced counts /query requests answered by joining another
	// request's in-flight computation.
	Coalesced int64     `json:"coalesced"`
	Cache     lru.Stats `json:"cache"`
	// Batch reports the /batch pipeline: Items counts items across
	// successful batches, split into Computed (ran an enumeration),
	// Deduped (served by an identical item in the same batch), and
	// CacheHits (served from the result cache); ItemErrors counts items
	// that failed inside an otherwise-successful batch.
	Batch struct {
		Batches    int64 `json:"batches"`
		Items      int64 `json:"items"`
		Computed   int64 `json:"computed"`
		Deduped    int64 `json:"deduped"`
		CacheHits  int64 `json:"cache_hits"`
		ItemErrors int64 `json:"item_errors"`
	} `json:"batch"`
	// Stream reports the /stream pipeline: Matches counts NDJSON match
	// lines written; TruncatedMax/TruncatedDeadline count streams cut by
	// the max-matches guard and the request deadline; Disconnects counts
	// streams stopped by a mid-stream client disconnect.
	Stream struct {
		Streams           int64 `json:"streams"`
		Matches           int64 `json:"matches"`
		TruncatedMax      int64 `json:"truncated_max"`
		TruncatedDeadline int64 `json:"truncated_deadline"`
		Disconnects       int64 `json:"disconnects"`
	} `json:"stream"`
	// CacheAdmission reports the cost-aware admission policy: results are
	// cached only when their computation read at least MinEntries store
	// entries (0 = admit everything). Admitted counts results cached,
	// Bypassed counts results returned but judged too cheap to cache.
	CacheAdmission struct {
		MinEntries int   `json:"min_entries"`
		Admitted   int64 `json:"admitted"`
		Bypassed   int64 `json:"bypassed"`
	} `json:"cache_admission"`
	Executor struct {
		Workers    int   `json:"workers"`
		QueueDepth int   `json:"queue_depth"`
		InFlight   int64 `json:"in_flight"`
		Queued     int64 `json:"queued"`
		Rejected   int64 `json:"rejected"`
		TimedOut   int64 `json:"timed_out"`
		// ClientDisconnects counts requests whose client went away before
		// the result was ready (499), distinct from deadline expiry.
		ClientDisconnects int64 `json:"client_disconnects"`
		Canceled          int64 `json:"canceled"`
	} `json:"executor"`
	IO ktpm.IOStats `json:"io"`
	// Latency reports per-endpoint and per-stage latency quantiles from
	// the lock-free log-bucketed histograms; omitted when observability
	// is disabled. Quantiles are upper-bound estimates with at most 12.5%
	// bucket error; means are exact.
	Latency *LatencyStats `json:"latency,omitempty"`
	// Build identifies the binary: stamped version, toolchain, VCS
	// revision when embedded.
	Build obs.BuildInfo `json:"build"`
	// Startup reports how the database was loaded and how long the open
	// took (ktpmd -graph builds, -snapshot opens in the configured
	// mode).
	Startup StartupInfo `json:"startup"`
	// Snapshot reports the snapshot backing — effective mode, tables
	// faulted so far out of the directory total, mapped bytes — when the
	// backend was opened from a snapshot; omitted otherwise.
	Snapshot *ktpm.SnapshotStats `json:"snapshot,omitempty"`
	// Ingest reports the crash-safe write path — WAL, epoch overlay, and
	// background compaction — when the backend is a live (writable)
	// engine (ktpmd -wal-dir); omitted for read-only backends.
	Ingest *ktpm.IngestStats `json:"ingest,omitempty"`
	// Sharding reports per-shard vertex and answered-match counts when
	// the backend is a ShardedDatabase; omitted for a single database.
	Sharding *ktpm.ShardingStats `json:"sharding,omitempty"`
	// Workers reports the distributed coordinator's per-replica request,
	// failure, match and breaker counters when the backend is a
	// remote.Coordinator; omitted otherwise.
	Workers *remote.CoordinatorStats `json:"workers,omitempty"`
	// Overload reports the resilience layer: drain state, predictive
	// admission estimates, brownout stage, shed counters by reason, and
	// the memory watcher when -mem-soft-limit is set.
	Overload OverloadStats `json:"overload"`
	// Quarantine reports the poison-query set: canonical queries whose
	// enumeration panicked, fast-failed on repeat.
	Quarantine QuarantineStats `json:"quarantine"`
}

// OverloadStats is the /stats overload block.
type OverloadStats struct {
	// Draining is true after BeginDrain: /readyz answers 503 and new
	// query-family requests are rejected.
	Draining bool `json:"draining"`
	// MaxQueueWaitMS is the predictive admission budget (0 = disabled);
	// EstQueueWaitMS is the current wait estimate for a newly-admitted
	// task (queued × pooled cost ÷ workers).
	MaxQueueWaitMS float64 `json:"max_queue_wait_ms"`
	EstQueueWaitMS float64 `json:"est_queue_wait_ms"`
	// CostEWMAMS is the moving execution-cost estimate per endpoint
	// family, plus "pooled" — the queue-pricing estimate across all of
	// them.
	CostEWMAMS map[string]float64 `json:"cost_ewma_ms"`
	// BrownoutStage is 0 (serving everything) or 1 (shedding uncached
	// /batch and /stream); BrownoutTransitions counts stage changes in
	// either direction.
	BrownoutStage       int32 `json:"brownout_stage"`
	BrownoutTransitions int64 `json:"brownout_transitions"`
	// Shed counts 429/503 rejections by reason; BodyTooLarge counts 413s.
	Shed struct {
		Deadline int64 `json:"deadline"`
		Brownout int64 `json:"brownout"`
		Memory   int64 `json:"memory"`
		Drain    int64 `json:"drain"`
	} `json:"shed"`
	BodyTooLarge int64 `json:"body_too_large"`
	// Memory is the backpressure watcher's state; omitted when
	// -mem-soft-limit is unset.
	Memory *MemoryStats `json:"memory,omitempty"`
}

// MemoryStats is the memory watcher's /stats block.
type MemoryStats struct {
	SoftLimitBytes int64 `json:"soft_limit_bytes"`
	HeapBytes      int64 `json:"heap_bytes"`
	// Stage is 0 (normal), 1 (cache shrinking), 2 (cache admission
	// disabled), or 3 (shedding non-cached requests).
	Stage         int32 `json:"stage"`
	CacheCapacity int   `json:"cache_capacity"`
	CacheShrinks  int64 `json:"cache_shrinks"`
	Transitions   int64 `json:"transitions"`
}

// QuarantineStats is the /stats quarantine block.
type QuarantineStats struct {
	Capacity int `json:"capacity"`
	// Panics counts recovered enumeration crashes; Hits counts requests
	// fast-failed because their canonical form was already quarantined.
	Panics  int64             `json:"panics"`
	Hits    int64             `json:"hits"`
	Entries []QuarantineEntry `json:"entries"`
}

// overloadStats assembles the /stats overload block.
func (s *Server) overloadStats() OverloadStats {
	var o OverloadStats
	o.Draining = s.draining.Load()
	o.MaxQueueWaitMS = float64(s.adm.maxWait.Nanoseconds()) / 1e6
	o.EstQueueWaitMS = float64(s.adm.estWait(s.exec.queued.Load()).Nanoseconds()) / 1e6
	o.CostEWMAMS = make(map[string]float64, len(s.adm.endpoint)+1)
	o.CostEWMAMS["pooled"] = float64(s.adm.pooled.get().Nanoseconds()) / 1e6
	for ep, c := range s.adm.endpoint {
		o.CostEWMAMS[ep] = float64(c.get().Nanoseconds()) / 1e6
	}
	o.BrownoutStage = s.brown.stage.Load()
	o.BrownoutTransitions = s.brown.transitions.Load()
	o.Shed.Deadline = s.shedDeadline.Load()
	o.Shed.Brownout = s.shedBrownout.Load()
	o.Shed.Memory = s.shedMemory.Load()
	o.Shed.Drain = s.shedDrain.Load()
	o.BodyTooLarge = s.tooLarge.Load()
	if s.mem != nil {
		o.Memory = &MemoryStats{
			SoftLimitBytes: s.mem.soft,
			HeapBytes:      s.mem.heapBytes.Load(),
			Stage:          s.mem.stage.Load(),
			CacheCapacity:  s.cache.Capacity(),
			CacheShrinks:   s.mem.shrinks.Load(),
			Transitions:    s.mem.transitions.Load(),
		}
	}
	return o
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	g := s.db.Graph()
	resp.Graph.Nodes = g.NumNodes()
	resp.Graph.Edges = g.NumEdges()
	resp.Queries = s.queries.Load()
	resp.Explains = s.explains.Load()
	resp.Errors = s.errors.Load()
	resp.Coalesced = s.coalesced.Load()
	resp.Cache = s.cache.Stats()
	resp.Batch.Batches = s.batches.Load()
	resp.Batch.Items = s.batchItems.Load()
	resp.Batch.Computed = s.batchComputed.Load()
	resp.Batch.Deduped = s.batchDeduped.Load()
	resp.Batch.CacheHits = s.batchCacheHits.Load()
	resp.Batch.ItemErrors = s.batchItemErrs.Load()
	resp.Stream.Streams = s.streams.Load()
	resp.Stream.Matches = s.streamMatches.Load()
	resp.Stream.TruncatedMax = s.streamMaxHits.Load()
	resp.Stream.TruncatedDeadline = s.streamDeadlineHits.Load()
	resp.Stream.Disconnects = s.streamDisconnects.Load()
	resp.CacheAdmission.MinEntries = s.cfg.CacheMinEntries
	resp.CacheAdmission.Admitted = s.cacheAdmitted.Load()
	resp.CacheAdmission.Bypassed = s.cacheBypassed.Load()
	resp.Executor.Workers = s.cfg.Concurrency
	resp.Executor.QueueDepth = s.cfg.QueueDepth
	resp.Executor.InFlight = s.exec.inFlight.Load()
	resp.Executor.Queued = s.exec.queued.Load()
	resp.Executor.Rejected = s.rejected.Load()
	resp.Executor.TimedOut = s.timedOut.Load()
	resp.Executor.ClientDisconnects = s.clientGone.Load()
	resp.Executor.Canceled = s.exec.canceled.Load()
	resp.IO = s.db.IOStats()
	if s.obs != nil {
		resp.Latency = s.obs.latencyStats()
	}
	resp.Build = buildInfo()
	resp.Startup = s.cfg.Startup
	if sn, ok := s.db.(snapshotStater); ok {
		if st, ok := sn.SnapshotStats(); ok {
			resp.Snapshot = &st
		}
	}
	if li, ok := s.db.(liveBackend); ok {
		st := li.IngestStats()
		resp.Ingest = &st
	}
	if ss, ok := s.db.(shardStater); ok {
		st := ss.ShardStats()
		resp.Sharding = &st
	}
	if cs, ok := s.db.(coordinatorStater); ok {
		st := cs.CoordinatorStats()
		resp.Workers = &st
	}
	resp.Overload = s.overloadStats()
	resp.Quarantine = QuarantineStats{
		Capacity: s.cfg.QuarantineCap,
		Panics:   s.quar.panics.Load(),
		Hits:     s.quar.hits.Load(),
		Entries:  s.quar.snapshot(),
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is pure liveness: it answers 200 even while draining
// (the process is alive and finishing work — it is /readyz that tells
// the load balancer to stop routing here). The status string flips to
// "draining" so operators can tell the two apart at a glance.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status": status,
		"uptime": time.Since(s.start).String(),
	})
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0).Microseconds()) / 1000 }
