package remote

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"ktpm"
)

func TestBreakerTransitions(t *testing.T) {
	b := newBreaker(3, time.Second, 30*time.Second, 0)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	if st := b.snapshot().State; st != breakerClosed {
		t.Fatalf("initial state %q, want closed", st)
	}
	b.Failure()
	b.Failure()
	if !b.Allow() {
		t.Fatal("closed breaker under threshold refused a request")
	}
	b.Failure() // third consecutive: trip
	if st := b.snapshot().State; st != breakerOpen {
		t.Fatalf("state after %d failures = %q, want open", 3, st)
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request")
	}

	clock = clock.Add(1100 * time.Millisecond)
	if st := b.snapshot().State; st != breakerHalfOpen {
		t.Fatalf("state past cooldown = %q, want half-open", st)
	}
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe")
	}
	if b.Allow() {
		t.Fatal("half-open breaker granted a second concurrent probe")
	}
	b.Success(5 * time.Millisecond)
	if st := b.snapshot().State; st != breakerClosed {
		t.Fatalf("state after successful probe = %q, want closed", st)
	}
	if !b.Allow() {
		t.Fatal("re-closed breaker refused a request")
	}

	// Success reset the cooldown to base; a re-trip followed by a failed
	// probe doubles it.
	b.Failure()
	b.Failure()
	b.Failure()
	clock = clock.Add(1100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open breaker refused the probe after re-trip")
	}
	b.Failure() // failed probe: re-open at doubled cooldown
	if st := b.snapshot().State; st != breakerOpen {
		t.Fatalf("state after failed probe = %q, want open", st)
	}
	if want := clock.Add(2 * time.Second); !b.expiry().Equal(want) {
		t.Fatalf("doubled cooldown expiry %v, want %v", b.expiry(), want)
	}
	if got := b.snapshot().Opens; got != 3 {
		t.Fatalf("opens = %d, want 3", got)
	}
}

func TestBreakerCooldownCap(t *testing.T) {
	b := newBreaker(1, time.Second, 4*time.Second, 0)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }
	for i := 0; i < 6; i++ {
		b.Failure()
		clock = b.expiry().Add(time.Millisecond)
		if !b.Allow() {
			t.Fatalf("round %d: half-open probe refused", i)
		}
	}
	b.Failure()
	if got := b.expiry().Sub(clock); got != 4*time.Second {
		t.Fatalf("cooldown after repeated failures = %v, want capped at 4s", got)
	}
}

func TestBreakerLatencyTrip(t *testing.T) {
	b := newBreaker(3, time.Second, 30*time.Second, 10*time.Millisecond)
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }
	// The first observation seeds the EWMA directly: a chronically slow
	// endpoint is ejected exactly like a failing one.
	b.Success(100 * time.Millisecond)
	if st := b.snapshot().State; st != breakerOpen {
		t.Fatalf("state after slow success = %q, want open (latency trip)", st)
	}
	fast := newBreaker(3, time.Second, 30*time.Second, 10*time.Millisecond)
	fast.now = b.now
	for i := 0; i < 20; i++ {
		fast.Success(time.Millisecond)
	}
	if st := fast.snapshot().State; st != breakerClosed {
		t.Fatalf("fast endpoint state = %q, want closed", st)
	}
}

// TestBreakerOpensAndRecovers drives the breaker through the
// fault-injection harness: a lone replica refuses its first open, which
// fails that request and trips a threshold-1 breaker. The next request
// finds every replica open and force-dials the one that expires soonest
// (breakers choose among replicas, never strand a request); the dial
// succeeds, re-closes the breaker, and the answer is byte-identical to
// the local database.
func TestBreakerOpensAndRecovers(t *testing.T) {
	db := testDB(t, 80, 3)
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	coord, _ := flakyFleet(t, db, 1, 1, Config{BreakerFailures: 1},
		func(f *flakyEndpoint) { f.failOpens = 1 })
	if _, err := coord.TopKWith(q, 10, ktpm.Options{}); err == nil {
		t.Fatal("the refused open did not fail the request of a lone replica")
	}
	bs := coord.CoordinatorStats().Workers[0].Breaker
	if bs.State != breakerOpen || bs.Opens != 1 {
		t.Fatalf("after the refused open: breaker %s with %d opens, want open once", bs.State, bs.Opens)
	}
	got, err := coord.TopKWith(q, 10, ktpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result diverged after breaker recovery (got %d, want %d matches)", len(got), len(want))
	}
	if bs := coord.CoordinatorStats().Workers[0].Breaker; bs.State != breakerClosed {
		t.Fatalf("breaker still %s after a successful forced dial", bs.State)
	}
}

// TestBreakerClosedFleetIdentity pins the default-on guarantee: with
// healthy replicas and breakers enabled (the default), results are
// byte-identical to the local database and every breaker stays closed
// with zero opens.
func TestBreakerClosedFleetIdentity(t *testing.T) {
	db := testDB(t, 80, 3)
	c := newTestCoordinator(t, db, 3, Config{})
	q, err := db.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.TopK(q, 25)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := c.TopKWith(q, 25, ktpm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: healthy fleet diverged from the local database", i)
		}
	}
	for _, ws := range c.CoordinatorStats().Workers {
		if bs := ws.Breaker; bs.State != breakerClosed || bs.Opens != 0 {
			t.Fatalf("healthy fleet breaker %s: state=%s opens=%d", ws.Addr, bs.State, bs.Opens)
		}
	}
}

// TestCoordinatorAvoidsDrainingReplica gives the coordinator two
// replicas, one draining: every request must land on the healthy one,
// the draining worker keeps serving (it would answer if it were the only
// replica), and the results stay identical.
func TestCoordinatorAvoidsDrainingReplica(t *testing.T) {
	db := testDB(t, 80, 3)
	mkWorker := func() *Worker {
		w, err := NewWorker(db, WorkerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	wDrain, wLive := mkWorker(), mkWorker()
	tsDrain, tsLive := httptest.NewServer(wDrain.Handler()), httptest.NewServer(wLive.Handler())
	t.Cleanup(tsDrain.Close)
	t.Cleanup(tsLive.Close)
	wDrain.SetDraining(true)

	eps := [][]Endpoint{{NewHTTPEndpoint(tsDrain.URL), NewHTTPEndpoint(tsLive.URL)}}
	c, err := NewCoordinator(db, "hash", eps, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The coordinator learns who is draining from handshakes; the
	// topology probe is how ktpmd seeds that knowledge at boot.
	if err := c.CheckTopology(context.Background()); err != nil {
		t.Fatal(err)
	}
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.TopK(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		got, err := c.TopKWith(q, 10, ktpm.Options{})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d diverged", i)
		}
	}
	if n := wDrain.Stats().Streams; n != 0 {
		t.Fatalf("draining replica served %d streams, want 0 while a healthy replica exists", n)
	}
	if n := wLive.Stats().Streams; n != 4 {
		t.Fatalf("healthy replica served %d streams, want 4", n)
	}
	if ws := c.CoordinatorStats().Workers; !ws[0].Draining || ws[1].Draining {
		t.Fatalf("draining markers in stats: %v, %v; want true, false", ws[0].Draining, ws[1].Draining)
	}
}
