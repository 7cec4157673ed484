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

// Endpoint is one worker replica's address. The production
// implementation speaks HTTP to a ktpmd -role worker; tests substitute
// fault-injecting wrappers.
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
	// wait for the handshake and every read after it. A stream may run
	// arbitrarily long as long as bytes keep arriving. 0 means 5s.
	WorkerTimeout time.Duration
	// BreakerFailures is the consecutive-failure count that opens a
	// replica's circuit breaker, ejecting it from rotation until its
	// cooldown ends; 0 means 3. The breaker never blocks a request: with
	// every untried replica open, the soonest-expiring one is force-dialed.
	BreakerFailures int
	// BreakerCooldown is an opened breaker's first skip window; it
	// doubles on every re-open (a failed half-open probe) up to 30s.
	// 0 means 1s.
	BreakerCooldown time.Duration
	// BreakerLatency, when positive, also ejects a replica whose
	// handshake-latency EWMA exceeds it. 0 disables the latency trip.
	BreakerLatency time.Duration
}

func (c Config) withDefaults() Config {
	if c.WorkerTimeout <= 0 {
		c.WorkerTimeout = 5 * time.Second
	}
	if c.BreakerFailures < 1 {
		c.BreakerFailures = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	return c
}

// breakerMaxCooldown caps the doubling of a replica breaker's skip
// window, so a long-dead worker is still probed every half minute.
const breakerMaxCooldown = 30 * time.Second

// Coordinator routes each top-k request whole to one worker replica.
// Every replica serves the same snapshot (the handshake enforces it), so
// any one of them answers a request on its own: the coordinator picks a
// replica, reads that worker's canonical match stream, checks it, and
// hands the matches on unchanged — byte-identical to a single Database
// over the same snapshot.
//
// The coordinator holds its own Database over the same snapshot: it
// parses and plans queries locally (the graph is identical by
// handshake), serves RootFilter queries (whose predicate cannot travel
// the wire) locally, and derives the expected snapshot identity from it.
// It implements the server Backend contract, so ktpmd -role coordinator
// serves the same endpoints as every other mode.
type Coordinator struct {
	local    *ktpm.Database
	reps     []*replica
	cfg      Config
	identity string
	next     atomic.Uint64 // rotation: request i starts at replica i mod len(reps)
}

// replica is one worker endpoint with its health record (circuit
// breaker, the drain marker copied from its last handshake) and its
// counters.
type replica struct {
	ep       Endpoint
	brk      *breaker
	draining atomic.Bool
	requests atomic.Int64
	failures atomic.Int64
	matches  atomic.Int64
	lastErr  atomic.Value // string
}

// NewCoordinator builds a coordinator over the worker replicas in
// shards, flattened in order into one replica set. local must be opened
// from the same graph or snapshot the workers serve; the handshake
// enforces it.
//
// Deprecated: partitionerName is validated and otherwise ignored, and
// the per-shard nesting of shards means nothing; both remain only
// because benchmark/ still calls this form. The next change to
// benchmark/ narrows the signature to (local, []Endpoint, Config).
func NewCoordinator(local *ktpm.Database, partitionerName string, shards [][]Endpoint, cfg Config) (*Coordinator, error) {
	if local == nil {
		return nil, fmt.Errorf("remote: nil local database")
	}
	if _, ok := ktpm.ParsePartitioner(partitionerName); !ok {
		return nil, fmt.Errorf("remote: unknown partitioner %q", partitionerName)
	}
	cfg = cfg.withDefaults()
	maxCool := max(breakerMaxCooldown, cfg.BreakerCooldown)
	var reps []*replica
	for _, eps := range shards {
		for _, ep := range eps {
			reps = append(reps, &replica{
				ep:  ep,
				brk: newBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, maxCool, cfg.BreakerLatency),
			})
		}
	}
	if len(reps) == 0 {
		return nil, fmt.Errorf("remote: no worker replicas")
	}
	return &Coordinator{local: local, reps: reps, cfg: cfg, identity: Identity(local)}, nil
}

// NumWorkers returns the replica count.
func (c *Coordinator) NumWorkers() int { return len(c.reps) }

// validateHello checks a worker's handshake against what the
// coordinator serves. positions > 0 additionally pins the stream's
// match-frame width (the /shard/hello probe carries no query and skips
// it).
func (c *Coordinator) validateHello(h Hello, positions int) error {
	switch {
	case h.Proto != ProtoVersion:
		return fmt.Errorf("protocol version %d, want %d", h.Proto, ProtoVersion)
	case h.Order != OrderVersion:
		return fmt.Errorf("canonical order %q, want %q", h.Order, OrderVersion)
	case h.Snapshot != c.identity:
		return fmt.Errorf("snapshot identity %s, want %s (worker serves a different graph)", h.Snapshot, c.identity)
	case positions > 0 && h.Positions != positions:
		return fmt.Errorf("stream carries %d positions, want %d", h.Positions, positions)
	}
	return nil
}

// CheckTopology probes every replica and validates its handshake, so a
// mis-wired fleet fails at startup (ktpmd gates readiness on it), not at
// the first query.
func (c *Coordinator) CheckTopology(ctx context.Context) error {
	for _, r := range c.reps {
		h, err := r.ep.Hello(ctx)
		if err == nil {
			err = c.validateHello(h, 0)
		}
		if err != nil {
			return fmt.Errorf("remote: worker at %s: %w", r.ep.Addr(), err)
		}
		r.draining.Store(h.Draining)
	}
	return nil
}

// watchdogReader arms a stall timer around every read of a worker
// connection; the timer cancels the attempt, which fails a read that
// stalls past the per-stall timeout instead of letting it hang. Reads
// come from the frame decoder's buffer refills, so the timer is touched
// once per network read, not once per frame, and never runs while the
// consumer is busy between reads.
type watchdogReader struct {
	r    io.Reader
	wd   *time.Timer
	idle time.Duration
}

func (w *watchdogReader) Read(p []byte) (int, error) {
	w.wd.Reset(w.idle)
	n, err := w.r.Read(p)
	w.wd.Stop()
	return n, err
}

// workerConn is one live stream from a replica: the response body, its
// frame decoder, the stall watchdog, and the attempt's context.
type workerConn struct {
	body   io.ReadCloser
	dec    *decoder
	wd     *time.Timer
	cancel context.CancelFunc
}

func (w *workerConn) close() {
	w.wd.Stop()
	w.body.Close()
	w.cancel()
	w.dec.release()
}

// dial opens a stream on one replica and reads its handshake. The stall
// watchdog covers the open too: a worker that accepts the request and
// never answers is canceled like one that stops mid-stream.
func (c *Coordinator) dial(ep Endpoint, query string, k int) (*workerConn, Hello, error) {
	ctx, cancel := context.WithCancel(context.Background())
	idle := c.cfg.WorkerTimeout
	wd := time.AfterFunc(idle, cancel)
	body, err := ep.OpenStream(ctx, query, k)
	if err != nil {
		wd.Stop()
		cancel()
		return nil, Hello{}, err
	}
	conn := &workerConn{body: body, wd: wd, cancel: cancel}
	conn.dec = newDecoder(&watchdogReader{r: body, wd: wd, idle: idle})
	f, err := conn.dec.next()
	switch {
	case err != nil:
		err = fmt.Errorf("%s: reading handshake: %w", ep.Addr(), err)
	case f.Kind == KindErr:
		err = fmt.Errorf("%s: %s", ep.Addr(), f.Error)
	case f.Kind != KindHello:
		err = fmt.Errorf("%s: first frame is %q, want hello", ep.Addr(), f.Kind)
	}
	if err != nil {
		conn.close()
		return nil, Hello{}, err
	}
	return conn, f.Hello, nil
}

// pick chooses the next replica for a request that has already tried
// the replicas marked in tried, rotating from start. Preference order:
// breaker-allowed and not draining; breaker-allowed but draining (a
// draining worker still serves streams); and when every untried breaker
// is open, the one whose cooldown expires soonest, since refusing would
// fail the request and the forced dial doubles as an early probe.
// Allow is called only on the replica returned, because a half-open
// breaker's Allow grants its one probe. -1 means every replica was
// tried.
func (c *Coordinator) pick(start int, tried []bool) int {
	n := len(c.reps)
	for _, wantDraining := range []bool{false, true} {
		for off := 0; off < n; off++ {
			i := (start + off) % n
			r := c.reps[i]
			if !tried[i] && r.draining.Load() == wantDraining && r.brk.Allow() {
				return i
			}
		}
	}
	best := -1
	var bestExp time.Time
	for off := 0; off < n; off++ {
		i := (start + off) % n
		if tried[i] {
			continue
		}
		if exp := c.reps[i].brk.expiry(); best < 0 || exp.Before(bestExp) {
			best, bestExp = i, exp
		}
	}
	return best
}

// routedStream is one request's pull-based reader: the stream of the
// replica serving it, moved to another replica if that one fails before
// its end frame. Every replica serves the same snapshot, so a reopened
// stream replays the same canonical sequence and the reader skips the
// matches it already handed out; that count is the only retry state.
type routedStream struct {
	c         *Coordinator
	span      *obs.Span
	query     string
	k         int // the worker-side truncation hint; 0 streams everything
	positions int

	start   int
	tried   []bool
	conn    *workerConn
	rep     *replica
	opened  int // emitted when conn opened, for the replica's match count
	skip    int // matches conn must replay before it yields a new one
	emitted int
	prev    lazy.Match // the last match read from conn, for the order check
	hasPrev bool
	lastErr error // the last replica failure, reported if every one fails
	err     error
	done    bool
}

// newStream starts a request's reader at the next replica in rotation.
// Its span keeps the scatter-gather's stage name, remote_merge, because
// the benchmark harness reads that stage; it times the worker round
// trip.
func (c *Coordinator) newStream(query string, k, positions int, trace *obs.Span) *routedStream {
	return &routedStream{
		c:     c,
		span:  trace.StartChild("remote_merge"),
		query: query, k: k, positions: positions,
		start: int((c.next.Add(1) - 1) % uint64(len(c.reps))),
		tried: make([]bool, len(c.reps)),
	}
}

// Next returns the next match in canonical order. It reports false at
// the end of the enumeration, and also when every replica failed or a
// handshake did not match, in which case Err says why.
func (s *routedStream) Next() (ktpm.Match, bool) {
	for !s.done {
		if s.conn == nil && !s.open() {
			break
		}
		m, ok, err := s.read()
		switch {
		case err != nil:
			// The next turn reopens on another replica.
			r := s.rep
			s.release()
			s.failed(r, err)
		case ok:
			s.emitted++
			return m, true
		default:
			s.finish(nil)
		}
	}
	return ktpm.Match{}, false
}

// open dials untried replicas until one hands over a valid handshake.
// A failed dial counts against its replica and moves on; a handshake
// that does not match what the coordinator serves ends the request,
// because a fleet serving two snapshots must fail loudly, not answer
// from whichever replica is consistent.
func (s *routedStream) open() bool {
	for {
		i := s.c.pick(s.start, s.tried)
		if i < 0 {
			s.finish(fmt.Errorf("remote: all %d replicas failed; last: %w", len(s.tried), s.lastErr))
			return false
		}
		s.tried[i] = true
		r := s.c.reps[i]
		r.requests.Add(1)
		t0 := time.Now()
		conn, h, err := s.c.dial(r.ep, s.query, s.k)
		if err != nil {
			s.failed(r, err)
			continue
		}
		r.brk.Success(time.Since(t0))
		r.draining.Store(h.Draining)
		if verr := s.c.validateHello(h, s.positions); verr != nil {
			conn.close()
			err := fmt.Errorf("worker %s: %w", r.ep.Addr(), verr)
			r.failures.Add(1)
			r.lastErr.Store(err.Error())
			s.finish(err)
			return false
		}
		s.span.SetAttr("replica", r.ep.Addr())
		s.conn, s.rep, s.opened = conn, r, s.emitted
		s.skip, s.hasPrev = s.emitted, false
		return true
	}
}

// read returns the next new match from the open connection: ok false
// with a nil error is a complete end frame. Skipped matches still go
// through the order check, so a replica whose replay diverges fails.
func (s *routedStream) read() (ktpm.Match, bool, error) {
	addr := s.rep.ep.Addr()
	for {
		f, err := s.conn.dec.next()
		if err != nil {
			return ktpm.Match{}, false, fmt.Errorf("worker %s: %w", addr, err)
		}
		switch f.Kind {
		case KindMatch:
			m := lazy.Match{Nodes: f.Nodes, Score: f.Score}
			if s.hasPrev && !lazy.Less(&s.prev, &m) {
				return ktpm.Match{}, false, fmt.Errorf("worker %s: stream broke canonical order", addr)
			}
			s.prev, s.hasPrev = m, true
			if s.skip > 0 {
				s.skip--
				continue
			}
			return ktpm.Match{Nodes: f.Nodes, Score: f.Score}, true, nil
		case KindEnd:
			if s.skip > 0 {
				return ktpm.Match{}, false, fmt.Errorf("worker %s: stream ended %d matches before the resume point", addr, s.skip)
			}
			if !f.Complete {
				return ktpm.Match{}, false, fmt.Errorf("worker %s: stream ended incomplete", addr)
			}
			// A response body closed before its EOF takes its connection
			// down with it; read to the end so the connection is reused.
			_, _ = io.CopyN(io.Discard, s.conn.dec.r, 4<<10)
			return ktpm.Match{}, false, nil
		case KindErr:
			return ktpm.Match{}, false, fmt.Errorf("worker %s: %s", addr, f.Error)
		default:
			return ktpm.Match{}, false, fmt.Errorf("worker %s: unexpected %q frame mid-stream", addr, f.Kind)
		}
	}
}

// failed records a replica failure against its breaker and counters.
func (s *routedStream) failed(r *replica, err error) {
	r.brk.Failure()
	r.failures.Add(1)
	r.lastErr.Store(err.Error())
	s.lastErr = err
}

// release closes the open connection and credits its replica with the
// matches it handed out.
func (s *routedStream) release() {
	if s.conn != nil {
		s.conn.close()
		s.rep.matches.Add(int64(s.emitted - s.opened))
		s.conn, s.rep = nil, nil
	}
}

// finish ends the stream with err (nil for a clean end).
func (s *routedStream) finish(err error) {
	if s.done {
		return
	}
	s.done, s.err = true, err
	s.release()
	s.span.End()
}

// Close ends the stream, closing its worker connection. Idempotent;
// exhaustion and failure end the stream themselves.
func (s *routedStream) Close() { s.finish(s.err) }

// Err reports the failure that ended the stream early (nil for a
// stream that ran to its end or was closed).
func (s *routedStream) Err() error { return s.err }

// TopKWith returns the k best matches in canonical order from one
// replica, which sends at most k. RootFilter queries, whose predicate
// cannot travel the wire, are the one kind the coordinator's own local
// database serves.
func (c *Coordinator) TopKWith(q *ktpm.Query, k int, opt ktpm.Options) ([]ktpm.Match, error) {
	if q == nil {
		return nil, fmt.Errorf("ktpm: nil query")
	}
	if k < 0 {
		return nil, fmt.Errorf("ktpm: negative k")
	}
	if opt.RootFilter != nil {
		return c.local.TopKWith(q, k, opt)
	}
	if k == 0 {
		return nil, nil
	}
	s := c.newStream(q.Canonical(), k, q.NumNodes(), opt.Trace)
	defer s.Close()
	out := make([]ktpm.Match, 0, min(k, 1024))
	// Reading on to the end frame after the k-th match leaves the HTTP
	// connection reusable.
	for {
		m, ok := s.Next()
		if !ok {
			break
		}
		if len(out) < k {
			out = append(out, m)
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	return out, nil
}

// TopKBatch answers many queries in one call, deduplicating
// canonical-identical items like the local engines. Cost is the local
// database's EntriesRead delta, so it is 0 for every item a worker
// enumerates; only RootFilter items are priced.
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
		ms, err := c.TopKWith(it.Query, it.K, it.Opt)
		out[i] = ktpm.BatchResult{
			Matches: ms,
			Cost:    c.local.IOStats().EntriesRead - before,
			Err:     err,
		}
		if dedupable && err == nil {
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

// OpenStream opens an incremental enumeration in canonical order on one
// replica, the MatchStream the server's /stream endpoint drains. The
// worker stream is unbounded (no k hint); a replica failing mid-stream
// hands the rest of the stream to another. RootFilter streams, whose
// predicate cannot travel the wire, are the one kind the local database
// serves.
func (c *Coordinator) OpenStream(q *ktpm.Query, opt ktpm.Options) (ktpm.MatchStream, error) {
	if q == nil {
		return nil, fmt.Errorf("ktpm: nil query")
	}
	if opt.RootFilter != nil {
		return c.local.OpenStream(q, opt)
	}
	return c.newStream(q.Canonical(), 0, q.NumNodes(), opt.Trace), nil
}

// WorkerStat is one replica's coordinator-side counters, surfaced in
// /stats and as ktpmd_worker_* metrics.
type WorkerStat struct {
	Addr string `json:"addr"`
	// Draining mirrors the replica's last handshake: the worker asked to
	// be routed around (rolling restart in progress).
	Draining bool `json:"draining,omitempty"`
	// Requests counts stream opens attempted against the replica: one
	// per request routed to it first, plus one per request it took over
	// from a failed replica.
	Requests int64 `json:"requests"`
	// Failures counts opens, handshakes and streams that failed.
	Failures int64 `json:"failures"`
	// Matches counts the matches the replica's streams handed on.
	Matches   int64       `json:"matches"`
	LastError string      `json:"last_error,omitempty"`
	Breaker   BreakerStat `json:"breaker"`
}

// CoordinatorStats is the /stats "workers" block.
type CoordinatorStats struct {
	Workers []WorkerStat `json:"per_worker"`
	// Snapshot is the fleet's snapshot identity (the handshake value).
	Snapshot string `json:"snapshot"`
}

// CoordinatorStats snapshots the per-replica counters.
func (c *Coordinator) CoordinatorStats() CoordinatorStats {
	st := CoordinatorStats{Workers: make([]WorkerStat, len(c.reps)), Snapshot: c.identity}
	for i, r := range c.reps {
		ws := WorkerStat{
			Addr:     r.ep.Addr(),
			Requests: r.requests.Load(),
			Failures: r.failures.Load(),
			Matches:  r.matches.Load(),
			Draining: r.draining.Load(),
			Breaker:  r.brk.snapshot(),
		}
		if v, ok := r.lastErr.Load().(string); ok {
			ws.LastError = v
		}
		st.Workers[i] = ws
	}
	return st
}
