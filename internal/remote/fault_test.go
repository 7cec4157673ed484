package remote

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ktpm"
)

// flakyEndpoint is the fault-injection harness: it wraps a healthy
// Endpoint and rewrites its behavior — refused or delayed opens, a
// mid-stream hangup (the body simply stops delivering bytes, the
// network failure TCP cannot surface), a corrupted frame, a stale
// snapshot identity in the handshake, or permanent death. It decodes
// the worker's stream and re-encodes it frame by frame; faults that take
// a count are frame indexes (frame 0 is the hello), -1 disables.
// once-flagged faults fire only on the first successful open, so retry
// paths can observe recovery.
type flakyEndpoint struct {
	inner       Endpoint
	helloDelay  time.Duration // sleep before the open is forwarded
	failOpens   int32         // first N opens are refused outright
	hangAt      int           // stop delivering at this frame; -1 disables
	hangOnce    bool
	corruptAt   int // replace this frame with a malformed one; -1 disables
	corruptOnce bool
	staleHello  bool // rewrite the handshake's snapshot identity
	dead        bool // every open is refused

	opens atomic.Int32
}

func newFlaky(inner Endpoint) *flakyEndpoint {
	return &flakyEndpoint{inner: inner, hangAt: -1, corruptAt: -1}
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
	if f.helloDelay > 0 {
		t := time.NewTimer(f.helloDelay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
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
				// Neither write nor close: the consumer blocks until its
				// stall watchdog severs the body, which unblocks any
				// pending pipe operation with ErrClosedPipe.
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
				return // consumer gone (watchdog or Close)
			}
		}
	}()
	return pr, nil
}

// corruptMatch is a malformed match frame: score 1, then a first
// binding past MaxInt32.
var corruptMatch = []byte{KindMatch, 7, 0x02, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00}

// flakyFleet builds a coordinator whose shard 0 endpoint is wrapped by a
// flakyEndpoint configured by mutate; the remaining shards stay healthy.
func flakyFleet(t *testing.T, db *ktpm.Database, count int, cfg Config, mutate func(*flakyEndpoint)) (*Coordinator, *flakyEndpoint) {
	t.Helper()
	p := ktpm.PartitionByHash()
	eps := startWorkers(t, db, count, p)
	fl := newFlaky(eps[0][0])
	mutate(fl)
	eps[0] = []Endpoint{fl}
	c, err := NewCoordinator(db, "hash", eps, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, fl
}

// survivorTopK computes the expected degraded answer when deadShard is
// dropped: every surviving shard's matches in canonical order, prefix k.
func survivorTopK(t *testing.T, db *ktpm.Database, q *ktpm.Query, k, count, deadShard int) []ktpm.Match {
	t.Helper()
	assign := ktpm.PartitionByHash().Partition(db.Graph(), count)
	st, err := db.StreamWith(q, ktpm.Options{RootFilter: func(v int32) bool { return assign[v] != int32(deadShard) }})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var out []ktpm.Match
	for {
		m, ok := st.Next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		a, b := out[i].Nodes, out[j].Nodes
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// TestCoordinatorFaultInjection is the table-driven fault suite: each
// case wires a specific failure into shard 0 and states exactly what the
// coordinator must do — recover byte-identically, degrade to an explicit
// partial, or fail without panicking.
func TestCoordinatorFaultInjection(t *testing.T) {
	db := testDB(t, 80, 3)
	const count = 3
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	sdb, err := db.Shard(count, ktpm.PartitionByHash())
	if err != nil {
		t.Fatal(err)
	}
	want, err := sdb.TopK(q, k)
	if err != nil {
		t.Fatal(err)
	}
	wantPartial := survivorTopK(t, db, q, k, count, 0)

	cases := []struct {
		name    string
		cfg     Config
		mutate  func(*flakyEndpoint)
		want    []ktpm.Match // nil = expect an error
		partial bool
		errLike string
	}{
		{
			name:   "transient open failures recover via retry",
			cfg:    Config{Retries: 2, Backoff: time.Millisecond},
			mutate: func(f *flakyEndpoint) { f.failOpens = 2 },
			want:   want,
		},
		{
			name: "mid-stream hangup severed by the watchdog, resumed by skip",
			cfg:  Config{Retries: 2, Backoff: time.Millisecond, WorkerTimeout: 100 * time.Millisecond},
			mutate: func(f *flakyEndpoint) {
				f.hangAt = 3 // hello + two matches, then silence
				f.hangOnce = true
			},
			want: want,
		},
		{
			name: "corrupt frame on the first attempt only",
			cfg:  Config{Retries: 2, Backoff: time.Millisecond},
			mutate: func(f *flakyEndpoint) {
				f.corruptAt = 2
				f.corruptOnce = true
			},
			want: want,
		},
		{
			name:    "corrupt frame with no retries fails cleanly",
			cfg:     Config{},
			mutate:  func(f *flakyEndpoint) { f.corruptAt = 2 },
			errLike: "bad frame",
		},
		{
			name:    "dead worker under the partial policy degrades explicitly",
			cfg:     Config{Retries: 1, Backoff: time.Millisecond, DegradedPartial: true},
			mutate:  func(f *flakyEndpoint) { f.dead = true },
			want:    wantPartial,
			partial: true,
		},
		{
			name:    "dead worker under the fail policy fails the query",
			cfg:     Config{Retries: 1, Backoff: time.Millisecond},
			mutate:  func(f *flakyEndpoint) { f.dead = true },
			errLike: "dead worker",
		},
		{
			name:    "stale snapshot identity is fatal even under the partial policy",
			cfg:     Config{Retries: 2, Backoff: time.Millisecond, DegradedPartial: true},
			mutate:  func(f *flakyEndpoint) { f.staleHello = true },
			errLike: "snapshot identity",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			coord, _ := flakyFleet(t, db, count, tc.cfg, tc.mutate)
			got, partial, err := coord.TopKPartial(q, k, ktpm.Options{})
			if tc.errLike != "" {
				if err == nil {
					t.Fatalf("got %d matches (partial=%v), want an error matching %q", len(got), partial, tc.errLike)
				}
				if !strings.Contains(err.Error(), tc.errLike) {
					t.Fatalf("error %q does not mention %q", err, tc.errLike)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if partial != tc.partial {
				t.Fatalf("partial = %v, want %v", partial, tc.partial)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("result diverged (got %d matches, want %d)", len(got), len(tc.want))
			}
		})
	}
}

// TestCoordinatorStreamFaults drives the same failures through the
// unbounded /stream merge: the partial policy keeps streaming the
// surviving shards and reports Partial; the fail policy ends the stream
// with Err set — never mid-tie-group garbage.
func TestCoordinatorStreamFaults(t *testing.T) {
	db := testDB(t, 80, 3)
	const count = 3
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	wantPartial := survivorTopK(t, db, q, 1<<30, count, 0)

	coord, _ := flakyFleet(t, db, count, Config{Retries: 0, DegradedPartial: true},
		func(f *flakyEndpoint) { f.dead = true })
	st, err := coord.OpenStream(q, ktpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []ktpm.Match
	for {
		m, ok := st.Next()
		if !ok {
			break
		}
		got = append(got, m)
	}
	st.Close()
	cs := st.(*coordStream)
	if !cs.Partial() || cs.Err() != nil {
		t.Fatalf("partial-policy stream: Partial=%v Err=%v", cs.Partial(), cs.Err())
	}
	if !reflect.DeepEqual(got, wantPartial) {
		t.Fatalf("degraded stream diverged from the survivors' canonical order (got %d, want %d)", len(got), len(wantPartial))
	}

	coord, _ = flakyFleet(t, db, count, Config{Retries: 0},
		func(f *flakyEndpoint) { f.dead = true })
	st, err = coord.OpenStream(q, ktpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := st.Next(); !ok {
			break
		}
	}
	st.Close()
	cs = st.(*coordStream)
	if cs.Err() == nil {
		t.Fatal("fail-policy stream ended without an error")
	}
}

// TestPartialCountedAtDrop pins /stats partials to the drop itself: a
// one-worker fleet whose only worker is dead leaves a partial-policy
// stream no tie group to emit, and the query must still count once —
// and a top-k query once more, not twice.
func TestPartialCountedAtDrop(t *testing.T) {
	db := testDB(t, 40, 3)
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := flakyFleet(t, db, 1, Config{DegradedPartial: true},
		func(f *flakyEndpoint) { f.dead = true })
	st, err := coord.OpenStream(q, ktpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); ok {
		t.Fatal("a dead fleet streamed a match")
	}
	st.Close()
	if cs := st.(*coordStream); !cs.Partial() || cs.Err() != nil {
		t.Fatalf("stream: Partial=%v Err=%v, want partial without error", cs.Partial(), cs.Err())
	}
	if n := coord.CoordinatorStats().Partials; n != 1 {
		t.Fatalf("partials after one degraded stream = %d, want 1", n)
	}
	if _, partial, err := coord.TopKPartial(q, 5, ktpm.Options{}); err != nil || !partial {
		t.Fatalf("top-k on a dead fleet: partial=%v err=%v", partial, err)
	}
	if n := coord.CoordinatorStats().Partials; n != 2 {
		t.Fatalf("partials after a degraded stream and query = %d, want 2", n)
	}
}

// TestCoordinatorHedging pins the hedge path: shard 0's first replica
// answers slowly, its second replica is healthy, and a short HedgeAfter
// must fire the hedge, adopt the fast replica's stream, and still return
// byte-identical results. The hedge counters must record the win.
func TestCoordinatorHedging(t *testing.T) {
	db := testDB(t, 80, 5)
	const count = 2
	p := ktpm.PartitionByHash()
	eps := startWorkers(t, db, count, p)
	slow := newFlaky(eps[0][0])
	slow.helloDelay = 2 * time.Second
	eps[0] = []Endpoint{slow, eps[0][0]} // replica 0 slow, replica 1 healthy
	coord, err := NewCoordinator(db, "hash", eps, Config{HedgeAfter: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := db.Shard(count, p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sdb.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	got, partial, err := coord.TopKPartial(q, 10, ktpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if partial {
		t.Fatal("hedged query reported partial")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("hedged result diverged from the sharded database")
	}
	st := coord.CoordinatorStats()
	ws := st.Workers[0]
	if ws.Hedges < 1 || ws.HedgeWins < 1 {
		t.Fatalf("hedge counters: hedges=%d wins=%d, want >= 1 each", ws.Hedges, ws.HedgeWins)
	}
}

// TestCoordinatorConcurrentHedgedQueries hammers one coordinator with
// concurrent queries while every first replica is slow enough to fire
// hedges (run under -race, as CI does): results must stay byte-identical
// to the golden answers, with no data races across the hedge/reap paths.
func TestCoordinatorConcurrentHedgedQueries(t *testing.T) {
	db := testDB(t, 90, 11)
	const count = 2
	p := ktpm.PartitionByHash()
	eps := startWorkers(t, db, count, p)
	for i := range eps {
		slow := newFlaky(eps[i][0])
		slow.helloDelay = 5 * time.Millisecond
		eps[i] = []Endpoint{slow, eps[i][0]}
	}
	coord, err := NewCoordinator(db, "hash", eps, Config{
		HedgeAfter: time.Millisecond,
		Retries:    1,
		Backoff:    time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"a(b)", "a(b,c)", "b(c(d))", "c(d,e)"}
	const k = 8
	golden := make(map[string][]ktpm.Match)
	for _, qs := range queries {
		q, err := db.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		ms, _, err := coord.TopKPartial(q, k, ktpm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		golden[qs] = ms
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				qs := queries[(w+i)%len(queries)]
				q, err := db.ParseQuery(qs)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				ms, partial, err := coord.TopKPartial(q, k, ktpm.Options{})
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if partial {
					t.Errorf("worker %d: healthy fleet reported partial", w)
					return
				}
				if !reflect.DeepEqual(ms, golden[qs]) {
					t.Errorf("worker %d: %q diverged under concurrent hedging", w, qs)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
