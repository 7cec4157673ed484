package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ktpm"
	"ktpm/internal/lazy"
	"ktpm/internal/obs"
)

// Endpoint is one address a shard's stream can be opened at. The
// production implementation speaks HTTP to a ktpmd -role worker; tests
// substitute fault-injecting wrappers.
type Endpoint interface {
	// Addr identifies the endpoint in stats and errors.
	Addr() string
	// Hello fetches the worker's handshake without opening a stream (the
	// /shard/hello probe), for topology checks.
	Hello(ctx context.Context) (Hello, error)
	// OpenStream opens the worker's match stream for the canonical query
	// string, with k as the truncation hint (0 = unbounded). The first
	// frame of the returned body is the hello.
	OpenStream(ctx context.Context, query string, k int) (io.ReadCloser, error)
}

// NewHTTPEndpoint returns an Endpoint speaking the worker HTTP protocol
// at base ("host:port" or a full http URL).
func NewHTTPEndpoint(base string) Endpoint {
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &httpEndpoint{base: strings.TrimRight(base, "/"), hc: &http.Client{}}
}

type httpEndpoint struct {
	base string
	hc   *http.Client
}

func (e *httpEndpoint) Addr() string { return e.base }

func (e *httpEndpoint) Hello(ctx context.Context) (Hello, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+"/shard/hello", nil)
	if err != nil {
		return Hello{}, err
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return Hello{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxFrameBytes))
	if err != nil {
		return Hello{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Hello{}, fmt.Errorf("%s: hello status %d", e.base, resp.StatusCode)
	}
	return decodeHello(body)
}

func (e *httpEndpoint) OpenStream(ctx context.Context, query string, k int) (io.ReadCloser, error) {
	u := e.base + "/shard/stream?q=" + url.QueryEscape(query)
	if k > 0 {
		u += "&k=" + strconv.Itoa(k)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		var e2 struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(body))
		if json.Unmarshal(body, &e2) == nil && e2.Error != "" {
			msg = e2.Error
		}
		return nil, fmt.Errorf("%s: stream status %d: %s", e.base, resp.StatusCode, msg)
	}
	return resp.Body, nil
}

// Config tunes the coordinator's failure handling. The zero value serves
// with the documented defaults.
type Config struct {
	// WorkerTimeout bounds any single stall on a worker connection: the
	// wait for the handshake and every inter-frame gap. A stream may run
	// arbitrarily long as long as frames keep arriving. 0 means 5s.
	WorkerTimeout time.Duration
	// HedgeAfter, when positive, fires a hedged second open if a worker
	// has not delivered its handshake within the duration — against the
	// shard's next replica when it has one, or a fresh connection to the
	// same worker otherwise. The first handshake wins; the loser is
	// canceled. 0 disables hedging.
	HedgeAfter time.Duration
	// Retries is how many times a failed shard stream is reopened beyond
	// the first attempt. A retried stream resumes by skip: per-shard
	// enumeration is deterministic, so the coordinator reopens and
	// discards the matches it already merged. 0 means no retries.
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt;
	// 0 means 50ms.
	Backoff time.Duration
	// DegradedPartial selects the policy for a shard whose retries are
	// exhausted: true drops the shard and marks the response partial
	// (results remain correct for the surviving shards); false fails the
	// query. Topology mismatches (wrong snapshot identity, shard id,
	// worker count, or canonical-order version) always fail the query —
	// a degraded answer must still be an honest subset of the truth.
	DegradedPartial bool
	// BreakerFailures is the consecutive-failure count that opens an
	// endpoint's circuit breaker, ejecting it from rotation so its
	// shard's replicas absorb the load; 0 means 3. The breaker never
	// blocks a query: with every endpoint of a shard open, the
	// soonest-expiring one is force-dialed.
	BreakerFailures int
	// BreakerCooldown is an opened breaker's first skip window; it
	// doubles on every re-open (a failed half-open probe) up to 30s.
	// 0 means 1s.
	BreakerCooldown time.Duration
	// BreakerLatency, when positive, also ejects an endpoint whose
	// handshake-latency EWMA exceeds it — a worker answering far slower
	// than its replicas drags every merge it joins. 0 disables the
	// latency trip.
	BreakerLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = 5 * time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = 50 * time.Millisecond
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BreakerFailures < 1 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// breakerMaxCooldown caps the doubling of an endpoint breaker's skip
// window, so a long-dead worker is still probed every half minute.
const breakerMaxCooldown = 30 * time.Second

// Coordinator scatter-gathers top-k queries across remote workers
// through lazy.Merge, the k-way merge the in-process shard.DB runs over
// its shards, so results are byte-identical to a local ShardedDatabase
// over the same graph, partitioner, and worker count.
//
// The coordinator holds its own Database over the same snapshot: it
// parses and plans queries locally (the graph is identical by
// handshake), serves RootFilter queries (whose predicate cannot travel
// the wire) locally, and derives the expected snapshot identity from it.
// It implements the server Backend contract, so ktpmd -role coordinator
// serves the same endpoints as every other mode.
type Coordinator struct {
	local       *ktpm.Database
	eps         [][]Endpoint
	epState     [][]*endpointState // parallel to eps: breaker + drain marker
	cfg         Config
	partitioner string
	identity    string
	counters    []workerCounters
	partials    atomic.Int64
}

// endpointState is the coordinator's per-endpoint health record: the
// circuit breaker, and the drain marker copied from the endpoint's
// last handshake (a draining worker asks to be preferred-against and
// never hedged).
type endpointState struct {
	brk      *breaker
	draining atomic.Bool
}

type workerCounters struct {
	requests  atomic.Int64
	retries   atomic.Int64
	hedges    atomic.Int64
	hedgeWins atomic.Int64
	failures  atomic.Int64
	matches   atomic.Int64
	lastErr   atomic.Value // string
}

// NewCoordinator builds a coordinator over one endpoint list per shard
// (index = shard id; extra endpoints per shard are hedge replicas).
// local must be opened from the same graph/snapshot the workers serve —
// the handshake enforces it — and partitionerName must name the
// partitioner the workers were started with.
func NewCoordinator(local *ktpm.Database, partitionerName string, shards [][]Endpoint, cfg Config) (*Coordinator, error) {
	if local == nil {
		return nil, fmt.Errorf("remote: nil local database")
	}
	if len(shards) < 1 {
		return nil, fmt.Errorf("remote: no worker shards")
	}
	for i, eps := range shards {
		if len(eps) == 0 {
			return nil, fmt.Errorf("remote: shard %d has no endpoints", i)
		}
	}
	if _, ok := ktpm.ParsePartitioner(partitionerName); !ok {
		return nil, fmt.Errorf("remote: unknown partitioner %q", partitionerName)
	}
	cfg = cfg.withDefaults()
	maxCool := breakerMaxCooldown
	if cfg.BreakerCooldown > maxCool {
		maxCool = cfg.BreakerCooldown
	}
	epState := make([][]*endpointState, len(shards))
	for i, eps := range shards {
		epState[i] = make([]*endpointState, len(eps))
		for j := range eps {
			epState[i][j] = &endpointState{
				brk: newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, maxCool, cfg.BreakerLatency),
			}
		}
	}
	return &Coordinator{
		local:       local,
		eps:         shards,
		epState:     epState,
		cfg:         cfg,
		partitioner: strings.ToLower(partitionerName),
		identity:    Identity(local),
		counters:    make([]workerCounters, len(shards)),
	}, nil
}

// NumWorkers returns the shard / worker count.
func (c *Coordinator) NumWorkers() int { return len(c.eps) }

// validateHello checks a worker's handshake against the coordinator's
// topology. positions > 0 additionally pins the stream's match-frame
// width (the /shard/hello probe carries no query and skips it).
func (c *Coordinator) validateHello(h Hello, shardID, positions int) error {
	switch {
	case h.Proto != ProtoVersion:
		return fmt.Errorf("protocol version %d, want %d", h.Proto, ProtoVersion)
	case h.Order != OrderVersion:
		return fmt.Errorf("canonical order %q, want %q", h.Order, OrderVersion)
	case h.Workers != len(c.eps):
		return fmt.Errorf("worker count %d, want %d", h.Workers, len(c.eps))
	case h.Shard != shardID:
		return fmt.Errorf("shard %d, want %d", h.Shard, shardID)
	case h.Partitioner != c.partitioner:
		return fmt.Errorf("partitioner %q, want %q", h.Partitioner, c.partitioner)
	case h.Snapshot != c.identity:
		return fmt.Errorf("snapshot identity %s, want %s (worker serves a different graph)", h.Snapshot, c.identity)
	case positions > 0 && h.Positions != positions:
		return fmt.Errorf("stream carries %d positions, want %d", h.Positions, positions)
	}
	return nil
}

// CheckTopology probes every endpoint of every shard and validates its
// handshake, so a mis-wired fleet fails at startup (ktpmd gates
// readiness on it), not at the first query.
func (c *Coordinator) CheckTopology(ctx context.Context) error {
	for i, eps := range c.eps {
		for j, ep := range eps {
			h, err := ep.Hello(ctx)
			if err != nil {
				return fmt.Errorf("remote: worker %d at %s: %w", i, ep.Addr(), err)
			}
			if err := c.validateHello(h, i, 0); err != nil {
				return fmt.Errorf("remote: worker %d at %s: %w", i, ep.Addr(), err)
			}
			c.epState[i][j].draining.Store(h.Draining)
		}
	}
	return nil
}

// workerConn is one live stream from a worker: the response body, its
// frame decoder, the decoded handshake, and a watchdog that severs the
// connection if a read stalls past the per-stall timeout.
type workerConn struct {
	body   io.ReadCloser
	dec    *decoder
	wd     *time.Timer
	idle   time.Duration
	hello  Hello
	epIdx  int                // which replica of the shard served this conn
	cancel context.CancelFunc // the attempt's context; nil until adopted
}

func newWorkerConn(body io.ReadCloser, idle time.Duration) *workerConn {
	c := &workerConn{body: body, dec: newDecoder(body), idle: idle}
	// The watchdog closes the body out from under a stalled read; the
	// reader sees an error and the retry policy takes over. Reset before
	// every blocking read.
	c.wd = time.AfterFunc(idle, func() { body.Close() })
	return c
}

// readFrame reads and decodes the next frame, arming the stall watchdog
// around the read.
func (c *workerConn) readFrame() (Frame, error) {
	c.wd.Reset(c.idle)
	return c.dec.next()
}

func (c *workerConn) Close() {
	c.wd.Stop()
	c.body.Close()
	if c.cancel != nil {
		c.cancel()
	}
}

// dial opens a stream on one endpoint and reads its handshake.
func (c *Coordinator) dial(ctx context.Context, ep Endpoint, query string, k int) (*workerConn, error) {
	body, err := ep.OpenStream(ctx, query, k)
	if err != nil {
		return nil, err
	}
	conn := newWorkerConn(body, c.cfg.WorkerTimeout)
	f, err := conn.readFrame()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%s: reading handshake: %w", ep.Addr(), err)
	}
	if f.Kind == KindErr {
		conn.Close()
		return nil, fmt.Errorf("%s: %s", ep.Addr(), f.Error)
	}
	if f.Kind != KindHello {
		conn.Close()
		return nil, fmt.Errorf("%s: first frame is %q, want hello", ep.Addr(), f.Kind)
	}
	conn.hello = f.Hello
	return conn, nil
}

// pickEndpoint chooses which replica of a shard to dial, rotating from
// attempt so retries move to the next replica. Preference order:
// breaker-allowed and not draining; breaker-allowed but draining (a
// draining worker still serves streams); and when every breaker is
// open, the one whose cooldown expires soonest — correctness needs all
// shards, so refusal is never an option, and the forced dial doubles as
// an early probe.
func (c *Coordinator) pickEndpoint(shardID, attempt int) int {
	sts := c.epState[shardID]
	n := len(sts)
	for off := 0; off < n; off++ {
		i := (attempt + off) % n
		if !sts[i].draining.Load() && sts[i].brk.Allow() {
			return i
		}
	}
	for off := 0; off < n; off++ {
		i := (attempt + off) % n
		if sts[i].draining.Load() && sts[i].brk.Allow() {
			return i
		}
	}
	best := attempt % n
	bestExp := sts[best].brk.expiry()
	for off := 1; off < n; off++ {
		i := (attempt + off) % n
		if exp := sts[i].brk.expiry(); exp.Before(bestExp) {
			best, bestExp = i, exp
		}
	}
	return best
}

// pickHedge chooses where a hedged second attempt goes: a healthy
// non-draining replica other than first if one exists, else a fresh
// connection to the first endpoint — unless that worker is draining,
// in which case the hedge is withheld entirely (a drain-aware shutdown
// must not receive speculative extra load).
func (c *Coordinator) pickHedge(shardID, first int) (int, bool) {
	sts := c.epState[shardID]
	n := len(sts)
	for off := 1; off < n; off++ {
		i := (first + off) % n
		if sts[i].draining.Load() {
			continue
		}
		if sts[i].brk.Allow() {
			return i, true
		}
	}
	if !sts[first].draining.Load() {
		return first, true
	}
	return 0, false
}

// openHedged opens a shard's stream, racing a hedged second attempt if
// the first has not delivered its handshake within HedgeAfter. The
// winner's connection is returned with its attempt context attached;
// losers are canceled and reaped. Dial outcomes feed the endpoint's
// circuit breaker — except losers canceled after a win, whose failures
// say nothing about the worker.
func (c *Coordinator) openHedged(ctx context.Context, shardID, attempt int, query string, k int) (*workerConn, error) {
	eps := c.eps[shardID]
	type result struct {
		conn   *workerConn
		err    error
		cancel context.CancelFunc
		hedged bool
		epIdx  int
		took   time.Duration
	}
	resCh := make(chan result, 2)
	launch := func(epIdx int, hedged bool) {
		actx, acancel := context.WithCancel(ctx)
		c.counters[shardID].requests.Add(1)
		t0 := time.Now()
		go func() {
			conn, err := c.dial(actx, eps[epIdx], query, k)
			resCh <- result{conn: conn, err: err, cancel: acancel, hedged: hedged, epIdx: epIdx, took: time.Since(t0)}
		}()
	}
	first := c.pickEndpoint(shardID, attempt)
	launch(first, false)
	pending := 1
	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	reap := func(n int) {
		if n > 0 {
			go func() {
				for i := 0; i < n; i++ {
					r := <-resCh
					if r.conn != nil {
						r.conn.Close()
					}
					r.cancel()
				}
			}()
		}
	}
	var firstErr error
	for {
		select {
		case r := <-resCh:
			pending--
			st := c.epState[shardID][r.epIdx]
			if r.err == nil {
				st.brk.Success(r.took)
				st.draining.Store(r.conn.hello.Draining)
				r.conn.epIdx = r.epIdx
				r.conn.cancel = r.cancel
				if r.hedged {
					c.counters[shardID].hedgeWins.Add(1)
				}
				reap(pending)
				return r.conn, nil
			}
			if ctx.Err() == nil {
				// A failure with the parent context live is the worker's; a
				// canceled dial says nothing about it.
				st.brk.Failure()
			}
			r.cancel()
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				// Every launched attempt failed. Failing fast (rather than
				// waiting out the hedge timer) hands control to the retry
				// policy, which owns backoff.
				return nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			epIdx, ok := c.pickHedge(shardID, first)
			if !ok {
				continue
			}
			c.counters[shardID].hedges.Add(1)
			launch(epIdx, true)
			pending++
		case <-ctx.Done():
			reap(pending)
			return nil, ctx.Err()
		}
	}
}

// shardReader is the coordinator-side producer for one shard: a
// goroutine pushing score-ordered match chunks into ch, with retry,
// hedging, and resume-by-skip behind it. err (read after ch closes)
// reports a terminal failure; fatal marks topology mismatches, which no
// degradation policy may absorb.
type shardReader struct {
	shardID int
	ch      chan []*lazy.Match
	err     error
	fatal   bool
}

// run drives one shard's stream to completion, surviving up to Retries
// reopen attempts. A reopened stream replays from the start — per-shard
// enumeration is deterministic — so the reader skips the matches it
// already delivered and resumes exactly where the merge left off.
func (c *Coordinator) run(ctx context.Context, r *shardReader, query string, k, positions int, span *obs.Span) {
	defer close(r.ch)
	ws := span.StartChild("worker_stream")
	ws.SetAttr("shard", r.shardID)
	defer ws.End()
	cnt := &c.counters[r.shardID]
	consumed := 0
	backoff := c.cfg.Backoff
	var lastErr error
	for attempt := 0; attempt <= c.cfg.Retries; attempt++ {
		if attempt > 0 {
			cnt.retries.Add(1)
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
				r.err = ctx.Err()
				return
			case <-t.C:
			}
			backoff *= 2
		}
		conn, err := c.openHedged(ctx, r.shardID, attempt, query, k)
		if err == nil {
			if verr := c.validateHello(conn.hello, r.shardID, positions); verr != nil {
				conn.Close()
				r.err = fmt.Errorf("worker %d: %w", r.shardID, verr)
				r.fatal = true
				cnt.failures.Add(1)
				cnt.lastErr.Store(r.err.Error())
				return
			}
			err = c.pump(ctx, conn, r, &consumed)
			conn.Close()
			if err == nil {
				return
			}
			if ctx.Err() == nil {
				// A mid-stream failure counts against the endpoint that served
				// the conn, so a worker dying between handshake and end frame
				// still trips its breaker.
				c.epState[r.shardID][conn.epIdx].brk.Failure()
			}
		}
		if ctx.Err() != nil {
			r.err = ctx.Err()
			return
		}
		lastErr = err
		cnt.failures.Add(1)
		cnt.lastErr.Store(err.Error())
	}
	r.err = fmt.Errorf("worker %d: %w", r.shardID, lastErr)
}

// pump reads one connection's frames into the reader's channel,
// skipping the first *consumed matches (already delivered by a prior
// attempt) and validating what the order contract promises: matches
// arrive canonically ordered (the decoder holds every match to the
// handshake's width). Returns nil only on a complete end frame.
func (c *Coordinator) pump(ctx context.Context, conn *workerConn, r *shardReader, consumed *int) error {
	skip := *consumed
	buf := make([]*lazy.Match, 0, lazy.ChunkSize)
	var (
		prev *lazy.Match
		slab []lazy.Match // one allocation per chunk of matches
	)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		out := buf
		buf = make([]*lazy.Match, 0, lazy.ChunkSize)
		select {
		case r.ch <- out:
			*consumed += len(out)
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for {
		f, err := conn.readFrame()
		if err != nil {
			return fmt.Errorf("worker %d: %w", r.shardID, err)
		}
		switch f.Kind {
		case KindMatch:
			if len(slab) == 0 {
				slab = make([]lazy.Match, lazy.ChunkSize)
			}
			m := &slab[0]
			slab = slab[1:]
			m.Nodes, m.Score = f.Nodes, f.Score
			if prev != nil && !lazy.Less(prev, m) {
				// The merge's threshold reasoning assumes per-shard canonical
				// order; a worker violating it would corrupt results silently.
				return fmt.Errorf("worker %d: stream broke canonical order", r.shardID)
			}
			prev = m
			if skip > 0 {
				skip--
				continue
			}
			buf = append(buf, m)
			if len(buf) >= lazy.ChunkSize {
				if err := flush(); err != nil {
					return err
				}
			}
		case KindEnd:
			if skip > 0 {
				return fmt.Errorf("worker %d: stream ended %d matches before the resume point", r.shardID, skip)
			}
			if !f.Complete {
				return fmt.Errorf("worker %d: stream ended incomplete", r.shardID)
			}
			return flush()
		case KindErr:
			return fmt.Errorf("worker %d: %s", r.shardID, f.Error)
		default:
			return fmt.Errorf("worker %d: unexpected %q frame mid-stream", r.shardID, f.Kind)
		}
	}
}

// gather is one distributed merge: a shard reader per worker, each
// behind a readerSource, all feeding one lazy.Merge.
type gather struct {
	*lazy.Merge
	c       *Coordinator
	cancel  context.CancelFunc
	span    *obs.Span
	partial bool  // a shard was dropped under the partial policy
	err     error // the fail policy or a topology mismatch poisoned the merge
}

// newGather starts one reader per shard. k is the worker-side
// truncation hint (0 = unbounded, for streams).
func (c *Coordinator) newGather(ctx context.Context, query string, k, positions int, trace *obs.Span) *gather {
	gctx, cancel := context.WithCancel(ctx)
	span := trace.StartChild("remote_merge")
	span.SetAttr("workers", len(c.eps))
	g := &gather{c: c, cancel: cancel, span: span}
	srcs := make([]lazy.Source, len(c.eps))
	for i := range srcs {
		r := &shardReader{shardID: i, ch: make(chan []*lazy.Match, 1)}
		srcs[i] = &readerSource{g: g, r: r}
		go c.run(gctx, r, query, k, positions, span)
	}
	g.Merge = lazy.NewMerge(srcs)
	return g
}

// stop cancels the readers, ends the merge span, and credits each
// shard's takes to its worker's Matches. The caller calls it once.
func (g *gather) stop() {
	g.cancel()
	g.span.End()
	for i := range g.c.counters {
		g.c.counters[i].matches.Add(int64(g.Taken(i)))
	}
}

// readerSource is one shard reader as a merge source: it hands out the
// reader's chunks a match at a time. When the reader's channel closes it
// applies the degradation policy: a clean end is exhaustion; a topology
// mismatch or the fail policy sets the gather's err; the partial policy
// drops the shard, marking the gather partial and counting the query in
// /stats once, at the drop.
type readerSource struct {
	g   *gather
	r   *shardReader
	cur []*lazy.Match // the rest of the chunk being handed out
}

// Next implements lazy.Source.
func (s *readerSource) Next() (*lazy.Match, bool) {
	for len(s.cur) == 0 {
		chunk, ok := <-s.r.ch
		if !ok {
			s.end()
			return nil, false
		}
		s.cur = chunk
	}
	m := s.cur[0]
	s.cur = s.cur[1:]
	return m, true
}

// end applies the degradation policy once the reader's channel closes.
func (s *readerSource) end() {
	g := s.g
	switch {
	case s.r.err == nil:
	case s.r.fatal || !g.c.cfg.DegradedPartial:
		if g.err == nil {
			g.err = s.r.err
		}
	case !g.partial:
		g.partial = true
		g.c.partials.Add(1)
	}
}

// errPartialUnmarked guards against using TopKWith where the partial
// marker would be lost; see TopKWith.
var errPartialUnmarked = fmt.Errorf("remote: partial result with no way to mark it")

// TopKPartial is the coordinator's top-k entry point: matches, a
// partial marker (true when a dead shard was dropped under the
// DegradedPartial policy), and an error. RootFilter queries, whose
// predicate cannot travel the wire, are the one non-distributable
// request: the coordinator's own local database serves them, never
// partially.
func (c *Coordinator) TopKPartial(q *ktpm.Query, k int, opt ktpm.Options) ([]ktpm.Match, bool, error) {
	if q == nil {
		return nil, false, fmt.Errorf("ktpm: nil query")
	}
	if k < 0 {
		return nil, false, fmt.Errorf("ktpm: negative k")
	}
	if opt.RootFilter != nil {
		ms, err := c.local.TopKWith(q, k, opt)
		return ms, false, err
	}
	if k == 0 {
		return nil, false, nil
	}
	// Each worker sends at most its first k matches.
	g := c.newGather(context.Background(), q.Canonical(), k, q.NumNodes(), opt.Trace)
	defer g.stop()
	ms := g.TopK(k)
	if g.err != nil {
		return nil, false, g.err
	}
	out := make([]ktpm.Match, len(ms))
	for i, m := range ms {
		out[i] = ktpm.Match{Nodes: m.Nodes, Score: m.Score}
	}
	return out, g.partial, nil
}

// TopKWith implements the Backend contract. Callers that can surface
// the partial marker (the server does, via TopKPartial) should; this
// form fails a degraded query instead of silently returning a partial
// result as if it were complete.
func (c *Coordinator) TopKWith(q *ktpm.Query, k int, opt ktpm.Options) ([]ktpm.Match, error) {
	ms, partial, err := c.TopKPartial(q, k, opt)
	if err != nil {
		return nil, err
	}
	if partial {
		return nil, errPartialUnmarked
	}
	return ms, nil
}

// TopKBatch answers many queries in one call, deduplicating
// canonical-identical items like the local engines. Partial results are
// marked per item and never shared (a later identical item deserves a
// fresh chance at a complete answer). Cost is the local database's
// EntriesRead delta, so it is 0 for every item the workers enumerate;
// only RootFilter items are priced.
func (c *Coordinator) TopKBatch(items []ktpm.BatchItem) []ktpm.BatchResult {
	out := make([]ktpm.BatchResult, len(items))
	seen := make(map[string]int, len(items))
	for i, it := range items {
		var key string
		dedupable := it.Query != nil && it.Opt.RootFilter == nil
		if dedupable {
			key = it.Query.Canonical() + "\x00" + strconv.Itoa(it.K)
			if first, ok := seen[key]; ok {
				out[i] = out[first]
				out[i].Shared = true
				continue
			}
		}
		before := c.local.IOStats().EntriesRead
		ms, partial, err := c.TopKPartial(it.Query, it.K, it.Opt)
		out[i] = ktpm.BatchResult{
			Matches: ms,
			Cost:    c.local.IOStats().EntriesRead - before,
			Partial: partial,
			Err:     err,
		}
		if dedupable && err == nil && !partial {
			seen[key] = i
		}
	}
	return out
}

// ParseQuery parses against the coordinator's local database; the
// handshake guarantees the workers' graphs (and so label tables) agree.
func (c *Coordinator) ParseQuery(s string) (*ktpm.Query, error) { return c.local.ParseQuery(s) }

// Explain plans against the local database — planning never enumerates,
// and the closure statistics are identical across the fleet by
// construction.
func (c *Coordinator) Explain(q *ktpm.Query) (*ktpm.Plan, error) { return c.local.Explain(q) }

// Graph returns the shared data graph.
func (c *Coordinator) Graph() *ktpm.Graph { return c.local.Graph() }

// IOStats reports the local database's counters, which move only for
// RootFilter queries (remote workers' I/O is theirs; each worker's
// /stats reports it).
func (c *Coordinator) IOStats() ktpm.IOStats { return c.local.IOStats() }

// OpenStream opens a distributed incremental enumeration in canonical
// order, the MatchStream the server's /stream endpoint drains. The
// worker streams are unbounded (no k hint) and the merge buffers one
// tie group at a time, exactly like the in-process ShardStream.
// RootFilter streams, whose predicate cannot travel the wire, are the
// one kind the local database serves.
func (c *Coordinator) OpenStream(q *ktpm.Query, opt ktpm.Options) (ktpm.MatchStream, error) {
	if q == nil {
		return nil, fmt.Errorf("ktpm: nil query")
	}
	if opt.RootFilter != nil {
		return c.local.OpenStream(q, opt)
	}
	return &coordStream{g: c.newGather(context.Background(), q.Canonical(), 0, q.NumNodes(), opt.Trace)}, nil
}

// coordStream adapts the distributed merge to the MatchStream pull
// interface.
type coordStream struct {
	g      *gather
	closed bool
}

// Next returns the next match in canonical order. Under the partial
// policy a dead shard is dropped mid-stream and the remaining shards
// keep streaming (Partial reports it); under the fail policy the stream
// ends and Err reports why. The error is checked before a tie group is
// emitted: the dead shard may have held a smaller tie.
func (s *coordStream) Next() (ktpm.Match, bool) {
	if s.closed {
		return ktpm.Match{}, false
	}
	m, ok := s.g.Next()
	if !ok || s.g.err != nil {
		s.Close()
		return ktpm.Match{}, false
	}
	return ktpm.Match{Nodes: m.Nodes, Score: m.Score}, true
}

// Close cancels the shard readers. Idempotent; exhaustion and failure
// close the stream themselves.
func (s *coordStream) Close() {
	if !s.closed {
		s.closed = true
		s.g.stop()
	}
}

// Partial reports whether any shard was dropped under the degradation
// policy while this stream ran; the server copies it into the trailer.
func (s *coordStream) Partial() bool { return s.g.partial }

// Err reports the terminal failure that ended the stream early under
// the fail policy (nil for a healthy or policy-degraded stream).
func (s *coordStream) Err() error { return s.g.err }

// WorkerStat is one worker's coordinator-side counters, surfaced in
// /stats and as ktpmd_worker_* metrics.
type WorkerStat struct {
	Shard     int      `json:"shard"`
	Addrs     []string `json:"addrs"`
	Requests  int64    `json:"requests"`
	Retries   int64    `json:"retries"`
	Hedges    int64    `json:"hedges"`
	HedgeWins int64    `json:"hedge_wins"`
	Failures  int64    `json:"failures"`
	// Matches counts what the merges took from this shard
	// (lazy.Merge.Taken). A top-k stream carries at most k matches, so
	// per query it is min(k, ShardStats.Merged of a local sharded
	// database).
	Matches   int64  `json:"matches"`
	LastError string `json:"last_error,omitempty"`
	// Breakers is each endpoint's circuit-breaker snapshot, aligned
	// with Addrs by index.
	Breakers []BreakerStat `json:"breakers,omitempty"`
}

// BreakerOpens sums the breaker-open transitions across the worker's
// endpoints (the /metrics counter).
func (w WorkerStat) BreakerOpens() int64 {
	var n int64
	for _, b := range w.Breakers {
		n += b.Opens
	}
	return n
}

// BreakerTripped reports whether any endpoint's breaker is currently
// not closed (the /metrics gauge).
func (w WorkerStat) BreakerTripped() bool {
	for _, b := range w.Breakers {
		if b.State != breakerClosed {
			return true
		}
	}
	return false
}

// DrainingEndpoints counts endpoints whose last handshake carried the
// drain marker.
func (w WorkerStat) DrainingEndpoints() int64 {
	var n int64
	for _, b := range w.Breakers {
		if b.Draining {
			n++
		}
	}
	return n
}

// CoordinatorStats is the /stats "workers" block.
type CoordinatorStats struct {
	Workers []WorkerStat `json:"per_worker"`
	// Partials counts responses degraded to a partial result.
	Partials int64 `json:"partials"`
	// Policy is "partial" or "fail" — what happens when a shard's
	// retries are exhausted.
	Policy string `json:"policy"`
	// Snapshot is the topology's snapshot identity (the handshake value).
	Snapshot string `json:"snapshot"`
}

// CoordinatorStats snapshots the per-worker counters.
func (c *Coordinator) CoordinatorStats() CoordinatorStats {
	st := CoordinatorStats{
		Workers:  make([]WorkerStat, len(c.eps)),
		Partials: c.partials.Load(),
		Policy:   "fail",
		Snapshot: c.identity,
	}
	if c.cfg.DegradedPartial {
		st.Policy = "partial"
	}
	for i := range c.eps {
		cnt := &c.counters[i]
		ws := WorkerStat{
			Shard:     i,
			Addrs:     make([]string, len(c.eps[i])),
			Requests:  cnt.requests.Load(),
			Retries:   cnt.retries.Load(),
			Hedges:    cnt.hedges.Load(),
			HedgeWins: cnt.hedgeWins.Load(),
			Failures:  cnt.failures.Load(),
			Matches:   cnt.matches.Load(),
		}
		ws.Breakers = make([]BreakerStat, len(c.eps[i]))
		for j, ep := range c.eps[i] {
			ws.Addrs[j] = ep.Addr()
			bs := c.epState[i][j].brk.snapshot(ep.Addr())
			bs.Draining = c.epState[i][j].draining.Load()
			ws.Breakers[j] = bs
		}
		if v, ok := cnt.lastErr.Load().(string); ok {
			ws.LastError = v
		}
		st.Workers[i] = ws
	}
	return st
}
