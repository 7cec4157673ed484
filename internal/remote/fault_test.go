package remote

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ktpm"
)

// flakyEndpoint is the fault-injection harness: it wraps a healthy
// Endpoint and rewrites its behavior — refused opens, a mid-stream
// hangup (the body stops delivering bytes, the network failure TCP
// cannot surface, until the attempt is canceled), a connection reset, a
// corrupted frame, a stale snapshot identity in the handshake, or
// permanent death. It decodes the worker's stream and re-encodes it
// frame by frame; faults that take a count are frame indexes (frame 0 is
// the hello), -1 disables. Once-flagged faults fire only on the first
// successful open.
type flakyEndpoint struct {
	inner       Endpoint
	failOpens   int32 // first N opens are refused outright
	hangAt      int   // stop delivering at this frame; -1 disables
	hangOnce    bool
	resetAt     int // fail the connection at this frame; -1 disables
	corruptAt   int // replace this frame with a malformed one; -1 disables
	corruptOnce bool
	staleHello  bool // rewrite the handshake's snapshot identity
	dead        bool // every open is refused

	opens atomic.Int32
}

func newFlaky(inner Endpoint) *flakyEndpoint {
	return &flakyEndpoint{inner: inner, hangAt: -1, resetAt: -1, corruptAt: -1}
}

func (f *flakyEndpoint) Addr() string { return "flaky(" + f.inner.Addr() + ")" }

func (f *flakyEndpoint) Hello(ctx context.Context) (Hello, error) {
	if f.dead {
		return Hello{}, fmt.Errorf("flaky: dead worker")
	}
	h, err := f.inner.Hello(ctx)
	if err == nil && f.staleHello {
		h.Snapshot = "deadbeefdeadbeef"
	}
	return h, err
}

func (f *flakyEndpoint) OpenStream(ctx context.Context, query string, k int) (io.ReadCloser, error) {
	n := f.opens.Add(1)
	if f.dead {
		return nil, fmt.Errorf("flaky: dead worker")
	}
	if n <= f.failOpens {
		return nil, fmt.Errorf("flaky: open %d refused", n)
	}
	inner, err := f.inner.OpenStream(ctx, query, k)
	if err != nil {
		return nil, err
	}
	firstGoodOpen := n == f.failOpens+1
	pr, pw := io.Pipe()
	go func() {
		defer inner.Close()
		dec := newDecoder(inner)
		for frame := 0; ; frame++ {
			fr, err := dec.next()
			if err != nil {
				pw.CloseWithError(err)
				return
			}
			if f.hangAt >= 0 && frame >= f.hangAt && (!f.hangOnce || firstGoodOpen) {
				// Silence until the consumer's watchdog cancels the attempt,
				// which is when a real connection's read would fail.
				<-ctx.Done()
				pw.CloseWithError(ctx.Err())
				return
			}
			if frame == f.resetAt {
				pw.CloseWithError(fmt.Errorf("flaky: connection reset at frame %d", frame))
				return
			}
			if f.staleHello && fr.Kind == KindHello {
				fr.Hello.Snapshot = "deadbeefdeadbeef"
			}
			out := appendFrame(nil, fr)
			if f.corruptAt >= 0 && frame == f.corruptAt && (!f.corruptOnce || firstGoodOpen) {
				out = corruptMatch
			}
			if _, err := pw.Write(out); err != nil {
				return // consumer gone
			}
		}
	}()
	return pr, nil
}

// corruptMatch is a malformed match frame: score 1, then a first
// binding past MaxInt32.
var corruptMatch = []byte{KindMatch, 7, 0x02, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00}

// flakyFleet builds a coordinator over replicas healthy workers whose
// first flaky endpoints are wrapped by flakyEndpoints configured by
// mutate. A fresh coordinator routes its first request to replica 0.
func flakyFleet(t *testing.T, db *ktpm.Database, replicas, flaky int, cfg Config, mutate func(*flakyEndpoint)) (*Coordinator, []*flakyEndpoint) {
	t.Helper()
	eps := startWorkers(t, db, replicas)
	fls := make([]*flakyEndpoint, flaky)
	for i := range fls {
		fls[i] = newFlaky(eps[i])
		mutate(fls[i])
		eps[i] = fls[i]
	}
	c, err := NewCoordinator(db, "hash", [][]Endpoint{eps}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, fls
}

// TestCoordinatorFaultInjection is the table-driven fault suite: each
// case wires a specific failure into the first replicas and states
// exactly what the coordinator must do — answer byte-identically from
// another replica, or fail naming the cause without panicking.
func TestCoordinatorFaultInjection(t *testing.T) {
	db := testDB(t, 80, 3)
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	want, err := db.TopK(q, k)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		replicas int
		flaky    int
		cfg      Config
		mutate   func(*flakyEndpoint)
		errLike  []string // empty: expect want
	}{
		{
			name:     "dead replica: the next one answers",
			replicas: 3, flaky: 1,
			mutate: func(f *flakyEndpoint) { f.dead = true },
		},
		{
			name:     "transient open failures recover via retry",
			replicas: 3, flaky: 1,
			mutate: func(f *flakyEndpoint) { f.failOpens = 2 },
		},
		{
			name:     "mid-stream hangup severed by the watchdog, resumed by skip",
			replicas: 3, flaky: 1,
			cfg: Config{WorkerTimeout: 100 * time.Millisecond},
			mutate: func(f *flakyEndpoint) {
				f.hangAt = 3 // hello + two matches, then silence
				f.hangOnce = true
			},
		},
		{
			name:     "mid-stream connection reset, resumed by skip",
			replicas: 2, flaky: 1,
			mutate: func(f *flakyEndpoint) { f.resetAt = 5 },
		},
		{
			name:     "corrupt frame on the first attempt only",
			replicas: 3, flaky: 1,
			mutate: func(f *flakyEndpoint) {
				f.corruptAt = 2
				f.corruptOnce = true
			},
		},
		{
			// A lone replica has nowhere to retry.
			name:     "corrupt frame with no retries fails cleanly",
			replicas: 1, flaky: 1,
			mutate:  func(f *flakyEndpoint) { f.corruptAt = 2 },
			errLike: []string{"bad frame"},
		},
		{
			name:     "every replica dead fails the query",
			replicas: 3, flaky: 3,
			mutate:  func(f *flakyEndpoint) { f.dead = true },
			errLike: []string{"all 3 replicas failed", "dead worker"},
		},
		{
			name:     "stale snapshot identity is fatal on every replica",
			replicas: 3, flaky: 3,
			mutate:  func(f *flakyEndpoint) { f.staleHello = true },
			errLike: []string{"snapshot identity"},
		},
		{
			// A fleet serving two snapshots must fail loudly, not answer
			// from whichever replica happens to agree.
			name:     "stale identity on one replica is not failed over",
			replicas: 3, flaky: 1,
			mutate:  func(f *flakyEndpoint) { f.staleHello = true },
			errLike: []string{"snapshot identity"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, _ := flakyFleet(t, db, tc.replicas, tc.flaky, tc.cfg, tc.mutate)
			got, err := coord.TopKWith(q, k, ktpm.Options{})
			if len(tc.errLike) > 0 {
				if err == nil {
					t.Fatalf("got %d matches, want an error matching %q", len(got), tc.errLike)
				}
				for _, like := range tc.errLike {
					if !strings.Contains(err.Error(), like) {
						t.Fatalf("error %q does not mention %q", err, like)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("result diverged (got %d matches, want %d)", len(got), len(want))
			}
		})
	}
}

// TestCoordinatorStreamFaults drives failures through the unbounded
// /stream reader: a replica that dies after n emitted matches hands the
// rest of the stream to another replica with no match missing or
// repeated, and a fleet with every replica dead ends the stream with an
// error that names the cause.
func TestCoordinatorStreamFaults(t *testing.T) {
	db := testDB(t, 80, 3)
	q, err := db.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	full, err := db.OpenStream(q, ktpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := drain(full)
	const n = 40
	if len(want) < 2*n {
		t.Fatalf("%d matches; the graph is too small to die after %d", len(want), n)
	}

	// Frame 0 is the hello, so the reset replaces the (n+1)-th match.
	coord, fls := flakyFleet(t, db, 3, 1, Config{}, func(f *flakyEndpoint) { f.resetAt = n + 1 })
	st, err := coord.OpenStream(q, ktpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(st)
	if err := st.(*routedStream).Err(); err != nil {
		t.Fatalf("stream with a surviving replica ended with %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed stream diverged from the database's (got %d matches, want %d)", len(got), len(want))
	}
	stats := coord.CoordinatorStats().Workers
	if fls[0].opens.Load() != 1 || stats[0].Failures != 1 || stats[0].Matches != n {
		t.Fatalf("dying replica: %d opens, %d failures, %d matches handed on; want 1, 1, %d",
			fls[0].opens.Load(), stats[0].Failures, stats[0].Matches, n)
	}
	if stats[1].Requests != 1 || stats[1].Matches != int64(len(want)-n) {
		t.Fatalf("next replica: %d requests, %d matches; want 1 and %d", stats[1].Requests, stats[1].Matches, len(want)-n)
	}

	coord, _ = flakyFleet(t, db, 2, 2, Config{}, func(f *flakyEndpoint) { f.dead = true })
	st, err = coord.OpenStream(q, ktpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(st); len(got) != 0 {
		t.Fatalf("a dead fleet streamed %d matches", len(got))
	}
	if err := st.(*routedStream).Err(); err == nil || !strings.Contains(err.Error(), "dead worker") {
		t.Fatalf("dead-fleet stream: Err = %v, want the workers' error", err)
	}
}

// TestCoordinatorEjectsFailingReplica pins the breaker's part in
// routing: after BreakerFailures consecutive failures a replica gets no
// traffic, every request still answering from its peer, until its
// cooldown ends and one probe request tries it again.
func TestCoordinatorEjectsFailingReplica(t *testing.T) {
	db := testDB(t, 80, 3)
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	coord, fls := flakyFleet(t, db, 2, 1, Config{BreakerFailures: 2, BreakerCooldown: time.Minute},
		func(f *flakyEndpoint) { f.dead = true })
	clock := time.Unix(1000, 0)
	for _, r := range coord.reps {
		r.brk.now = func() time.Time { return clock }
	}
	query := func() {
		t.Helper()
		got, err := coord.TopKWith(q, 10, ktpm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("answer diverged while a replica was failing")
		}
	}
	// The rotation starts requests 0 and 2 at the dead replica.
	for i := 0; i < 3; i++ {
		query()
	}
	if n := fls[0].opens.Load(); n != 2 {
		t.Fatalf("dead replica dialed %d times by 3 requests, want 2", n)
	}
	if bs := coord.CoordinatorStats().Workers[0].Breaker; bs.State != breakerOpen {
		t.Fatalf("breaker %s after 2 consecutive failures, want open", bs.State)
	}
	for i := 0; i < 20; i++ {
		query()
	}
	if n := fls[0].opens.Load(); n != 2 {
		t.Fatalf("ejected replica dialed %d times during its cooldown, want 2", n)
	}
	clock = clock.Add(time.Minute + time.Second)
	for i := 0; i < 4; i++ {
		query()
	}
	if n := fls[0].opens.Load(); n != 3 {
		t.Fatalf("replica dialed %d times after its cooldown, want one probe (3)", n)
	}
}

// TestCoordinatorConcurrentQueries hammers one coordinator from several
// goroutines while one of three replicas corrupts every stream (run
// under -race, as CI does): answers must stay byte-identical to the
// database's, whichever replica a request lands on or fails over to.
func TestCoordinatorConcurrentQueries(t *testing.T) {
	db := testDB(t, 90, 11)
	coord, _ := flakyFleet(t, db, 3, 1, Config{}, func(f *flakyEndpoint) { f.corruptAt = 3 })
	queries := []string{"a(b)", "a(b,c)", "b(c(d))", "c(d,e)"}
	const k = 8
	golden := make(map[string][]ktpm.Match)
	for _, qs := range queries {
		q, err := db.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		if golden[qs], err = db.TopK(q, k); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				qs := queries[(w+i)%len(queries)]
				q, err := db.ParseQuery(qs)
				if err != nil {
					t.Errorf("goroutine %d: %v", w, err)
					return
				}
				ms, err := coord.TopKWith(q, k, ktpm.Options{})
				if err != nil {
					t.Errorf("goroutine %d: %v", w, err)
					return
				}
				if !reflect.DeepEqual(ms, golden[qs]) {
					t.Errorf("goroutine %d: %q diverged", w, qs)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
