package server

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"ktpm/internal/obs"
)

// obs.go is the server's observability spine: the middleware that wraps
// every request with a root trace span, per-endpoint and per-stage
// latency histograms fed by walking the finished span tree, the trace
// ring behind /debug/traces, structured access and slow-query logging,
// and the /readyz and /debug/traces handlers.

// endpointNames maps request paths to the endpoint label used by the
// latency histograms, the trace ring, and /metrics. Paths outside the
// map (stats, metrics, health, debug) get request-ID echo and access
// logging but no histograms — their latency is not query latency.
var endpointNames = map[string]string{
	"/query":   "query",
	"/explain": "explain",
	"/batch":   "batch",
	"/stream":  "stream",
}

// stageNames is the fixed stage vocabulary: every span name the request
// path emits maps to one of these histograms. worker_stream is a
// per-worker slice of the distributed remote_merge stage and is folded
// into it.
var stageNames = []string{
	"parse", "admission_wait", "cache_probe", "enumerate", "shard_merge", "table_fault", "remote_merge", "encode",
}

// stageOf maps a span name to its stage histogram name ("" = not a
// stage: root spans and decorative spans are not aggregated).
func stageOf(name string) string {
	if name == "worker_stream" {
		return "remote_merge"
	}
	for _, s := range stageNames {
		if name == s {
			return s
		}
	}
	return ""
}

// serverObs bundles the observability state; nil on a Server means
// instrumentation is off (Config.DisableObs) and requests flow straight
// to the mux.
type serverObs struct {
	endpoints map[string]*obs.Histogram
	stages    map[string]*obs.Histogram
	ring      *obs.Ring // nil when the trace ring is disabled
	logger    *slog.Logger
	accessLog bool
	slow      time.Duration
	// stageFn feeds the stage histograms during the span-tree walk; built
	// once here so the per-request path allocates no closure.
	stageFn func(stage string, d time.Duration)
}

func newServerObs(cfg Config) *serverObs {
	o := &serverObs{
		endpoints: make(map[string]*obs.Histogram, len(endpointNames)),
		stages:    make(map[string]*obs.Histogram, len(stageNames)),
		logger:    cfg.Logger,
		accessLog: cfg.AccessLog,
		slow:      cfg.SlowQuery,
	}
	for _, ep := range endpointNames {
		o.endpoints[ep] = &obs.Histogram{}
	}
	for _, st := range stageNames {
		o.stages[st] = &obs.Histogram{}
	}
	if cfg.TraceRing >= 0 {
		n := cfg.TraceRing
		if n == 0 {
			n = 64
		}
		o.ring = obs.NewRing(n)
	}
	o.stageFn = func(stage string, d time.Duration) {
		o.stages[stage].Observe(d)
	}
	return o
}

// statusWriter records the response status and preserves http.Flusher,
// which /stream's NDJSON transport depends on. It also carries the
// request's root span: handing the span through the writer wrapper the
// middleware already allocates avoids the context.WithValue +
// Request.WithContext pair (two allocations and a ~400-byte Request
// copy) on every request; obs.ContextWith/FromContext remain the
// general-purpose carrier and requestSpan's fallback.
type statusWriter struct {
	http.ResponseWriter
	code int
	span *obs.Span
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// serve is the instrumentation middleware: request-ID propagation, root
// span carried via context, endpoint/stage histograms, trace ring, and
// access/slow-query logs.
// headerRequestID is the pre-canonicalized MIME spelling of the
// X-Request-ID header: Header.Get/Set with the canonical form skip the
// per-call canonicalization rewrite (and its allocation) on the hot
// path. Lookups stay case-insensitive for callers either way.
const headerRequestID = "X-Request-Id"

func (o *serverObs) serve(s *Server, w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	reqID := r.Header.Get(headerRequestID)
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set(headerRequestID, reqID)
	sw := &statusWriter{ResponseWriter: w}

	ep := endpointNames[r.URL.Path]
	if ep == "" {
		s.mux.ServeHTTP(sw, r)
		o.access(r, reqID, "", sw.status(), time.Since(t0))
		return
	}

	// The request ID is not duplicated as a span attr: the ring's Trace,
	// the debug response, and the logs all carry it alongside the tree.
	root := obs.StartRoot(ep)
	sw.span = root
	s.mux.ServeHTTP(sw, r)
	root.End()

	dur := root.Duration()
	o.endpoints[ep].Observe(dur)
	// The stage histograms are fed by walking the live span tree — no
	// SpanJSON rendering on the hot path. A span whose stage already
	// appeared on its ancestor path is skipped (nested table_fault spans
	// from a derive that refaults tables overlap and would double-charge
	// the stage), while siblings of one stage each count.
	root.EachStageMapped(stageOf, o.stageFn)

	slow := o.slow > 0 && dur >= o.slow
	if o.ring != nil && (o.slow <= 0 || slow) {
		// Span, not Root: the tree is rendered lazily by the first
		// /debug/traces read that returns it.
		o.ring.Add(obs.Trace{
			RequestID: reqID,
			Endpoint:  ep,
			Query:     r.FormValue("q"),
			Status:    sw.status(),
			Start:     t0,
			DurMS:     float64(dur.Nanoseconds()) / 1e6,
			Slow:      slow,
			Span:      root,
		})
	}
	o.access(r, reqID, ep, sw.status(), dur)
	if slow && o.logger != nil {
		o.logger.Warn("slow query",
			"request_id", reqID,
			"endpoint", ep,
			"query", r.FormValue("q"),
			"status", sw.status(),
			"dur_ms", float64(dur.Nanoseconds())/1e6,
			"trace", root.Snapshot(),
		)
	}
}

func (o *serverObs) access(r *http.Request, reqID, ep string, status int, dur time.Duration) {
	if !o.accessLog || o.logger == nil {
		return
	}
	o.logger.Info("request",
		"request_id", reqID,
		"method", r.Method,
		"path", r.URL.Path,
		"endpoint", ep,
		"status", status,
		"dur_ms", float64(dur.Nanoseconds())/1e6,
	)
}

// requestSpan returns the request's root trace span (nil when
// instrumentation is off), the anchor every handler hangs its stage
// spans on: the middleware's statusWriter when present, otherwise a
// span carried on the request context (the path for embedders driving
// handlers directly with obs.ContextWith).
func requestSpan(w http.ResponseWriter, r *http.Request) *obs.Span {
	if sw, ok := w.(*statusWriter); ok && sw.span != nil {
		return sw.span
	}
	return obs.FromContext(r.Context())
}

// QuantileBlock is one histogram's summary in the /stats latency block.
type QuantileBlock struct {
	Count  int64   `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
}

func quantileBlock(h *obs.Histogram) QuantileBlock {
	sn := h.Snapshot()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return QuantileBlock{
		Count:  sn.Count,
		MeanMS: ms(sn.Mean()),
		P50MS:  ms(sn.Quantile(0.50)),
		P90MS:  ms(sn.Quantile(0.90)),
		P99MS:  ms(sn.Quantile(0.99)),
		P999MS: ms(sn.Quantile(0.999)),
	}
}

// LatencyStats is the /stats latency block: per-endpoint and per-stage
// quantiles from the log-bucketed histograms (upper-bound estimates with
// at most 12.5% bucket error).
type LatencyStats struct {
	Endpoints map[string]QuantileBlock `json:"endpoints"`
	Stages    map[string]QuantileBlock `json:"stages"`
}

func (o *serverObs) latencyStats() *LatencyStats {
	out := &LatencyStats{
		Endpoints: make(map[string]QuantileBlock, len(o.endpoints)),
		Stages:    make(map[string]QuantileBlock, len(o.stages)),
	}
	for name, h := range o.endpoints {
		out.Endpoints[name] = quantileBlock(h)
	}
	for name, h := range o.stages {
		out.Stages[name] = quantileBlock(h)
	}
	return out
}

// handleReadyz is the readiness probe: 200 only when the server accepts
// work AND the backend is healthy. Distinct from /healthz (pure
// liveness): a lazy/mmap snapshot source that hit a fault-time load
// failure keeps the process alive but must drop out of load-balancer
// rotation, which is exactly the sticky snapshot error this reports.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Drain flips readiness the instant it starts: the load balancer
		// must stop routing here while /healthz (liveness) stays 200 for
		// the remainder of the drain window.
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "draining",
		})
		return
	}
	if !s.ready.Load() {
		s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "starting",
		})
		return
	}
	if sn, ok := s.db.(snapshotStater); ok {
		if st, ok := sn.SnapshotStats(); ok && st.Err != "" {
			s.writeJSON(w, http.StatusServiceUnavailable, map[string]string{
				"status": "snapshot fault",
				"error":  st.Err,
			})
			return
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// SetReady flips the /readyz gate; New starts ready. Embedders that
// construct the Server before their backend is warm can hold readiness
// until it is.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// DebugTracesResponse is the /debug/traces response body.
type DebugTracesResponse struct {
	// Capacity is the ring size; Total counts traces ever recorded
	// (recorded minus retained = evicted).
	Capacity int   `json:"capacity"`
	Total    int64 `json:"total"`
	// SlowQueryMS is the retention threshold; 0 means every query-family
	// request is retained.
	SlowQueryMS float64      `json:"slow_query_ms"`
	Traces      []*obs.Trace `json:"traces"`
}

func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	if s.obs == nil || s.obs.ring == nil {
		s.writeError(w, http.StatusNotFound, "trace ring disabled")
		return
	}
	n := 0
	if ns := r.FormValue("n"); ns != "" {
		var err error
		n, err = strconv.Atoi(ns)
		if err != nil || n < 1 {
			s.writeError(w, http.StatusBadRequest, "n must be a positive integer, got %q", ns)
			return
		}
	}
	traces := s.obs.ring.Snapshot(n)
	if traces == nil {
		traces = []*obs.Trace{}
	}
	s.writeJSON(w, http.StatusOK, DebugTracesResponse{
		Capacity:    s.obs.ring.Cap(),
		Total:       s.obs.ring.Total(),
		SlowQueryMS: float64(s.obs.slow.Nanoseconds()) / 1e6,
		Traces:      traces,
	})
}

// Build re-exports the binary's build info for /stats and /metrics.
func buildInfo() obs.BuildInfo { return obs.Build() }
