package remote

import (
	"sync"
	"time"
)

// breaker is a per-replica circuit breaker. The coordinator keeps one
// per worker replica and consults it when picking where to route a
// request, so a flapping worker is ejected from rotation and its load
// shifts to the other replicas instead of failing over on every request
// routed to it.
//
// States:
//
//	closed     normal service; consecutive failures are counted and the
//	           threshold-th one opens the breaker.
//	open       the endpoint is skipped while the cooldown runs. Each
//	           re-open doubles the cooldown (capped), so a worker that
//	           stays dead is probed geometrically less often.
//	half-open  the cooldown expired; exactly one probe dial is allowed
//	           through. Success closes the breaker and resets the
//	           cooldown; failure re-opens it at the doubled cooldown.
//
// A success also feeds a latency EWMA; when a trip latency is
// configured, an endpoint whose EWMA exceeds it is ejected exactly like
// a failing one — a worker answering at 10x the fleet's latency slows
// every request routed to it.
//
// The breaker never blocks progress: when every replica a request has
// not yet tried is open, the coordinator force-dials the one whose
// cooldown expires soonest (refusal would fail the request), and that
// dial's outcome updates the breaker like any probe.
type breaker struct {
	mu  sync.Mutex
	now func() time.Time // injectable for tests

	threshold int           // consecutive failures that open the breaker
	base      time.Duration // first cooldown; doubles per re-open
	maxCool   time.Duration // doubling cap
	latTrip   time.Duration // latency-EWMA ejection threshold; 0 disables

	consec   int           // consecutive failures since the last success
	until    time.Time     // open until this instant; zero when closed
	cooldown time.Duration // the next open's duration
	probe    bool          // a half-open probe dial is outstanding
	opens    int64         // transitions into the open state
	lat      time.Duration // success-latency EWMA (alpha 1/8)
}

// Breaker state names, surfaced in /stats.
const (
	breakerClosed   = "closed"
	breakerOpen     = "open"
	breakerHalfOpen = "half-open"
)

func newBreaker(threshold int, cooldown, maxCool, latTrip time.Duration) *breaker {
	return &breaker{
		now:       time.Now,
		threshold: threshold,
		base:      cooldown,
		maxCool:   maxCool,
		latTrip:   latTrip,
		cooldown:  cooldown,
	}
}

// state reports the current state; callers hold b.mu.
func (b *breaker) state() string {
	if b.until.IsZero() {
		return breakerClosed
	}
	if b.now().Before(b.until) {
		return breakerOpen
	}
	return breakerHalfOpen
}

// Allow reports whether a dial may proceed. In the half-open state only
// one probe is granted until its outcome arrives.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state() {
	case breakerClosed:
		return true
	case breakerHalfOpen:
		if b.probe {
			return false
		}
		b.probe = true
		return true
	}
	return false
}

// Success records a successful dial (handshake received) and its
// latency. It closes the breaker from any state — a worker that answers
// is a worker in rotation — unless the latency EWMA has crossed the
// trip threshold, in which case the endpoint is ejected for a cooldown
// like a failing one.
func (b *breaker) Success(d time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probe = false
	b.consec = 0
	if b.lat == 0 {
		b.lat = d
	} else {
		b.lat += (d - b.lat) / 8
	}
	if b.latTrip > 0 && b.lat > b.latTrip {
		b.open()
		return
	}
	b.until = time.Time{}
	b.cooldown = b.base
}

// Failure records a failed dial or a mid-stream failure. The
// threshold-th consecutive failure opens the breaker; a failure in the
// half-open or open state (a failed probe, or a force-allowed dial that
// also failed) re-opens it at the doubled cooldown.
func (b *breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probe = false
	b.consec++
	if b.until.IsZero() && b.consec < b.threshold {
		return
	}
	b.open()
}

// open (re)enters the open state and schedules the next cooldown;
// callers hold b.mu.
func (b *breaker) open() {
	b.until = b.now().Add(b.cooldown)
	b.opens++
	b.cooldown *= 2
	if b.cooldown > b.maxCool {
		b.cooldown = b.maxCool
	}
}

// expiry returns when the open state ends (zero when closed), for the
// force-allow pick when every untried replica is open.
func (b *breaker) expiry() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.until
}

// BreakerStat is one replica's breaker snapshot, surfaced per worker in
// /stats.
type BreakerStat struct {
	State string `json:"state"`
	// Opens counts transitions into the open state (including latency
	// ejections and re-opens after failed probes).
	Opens int64 `json:"opens"`
	// ConsecFailures is the current consecutive-failure run.
	ConsecFailures int `json:"consec_failures"`
	// LatencyEWMAMS is the success-latency EWMA in milliseconds.
	LatencyEWMAMS float64 `json:"latency_ewma_ms"`
}

// snapshot returns the stats view.
func (b *breaker) snapshot() BreakerStat {
	b.mu.Lock()
	defer b.mu.Unlock()
	return BreakerStat{
		State:          b.state(),
		Opens:          b.opens,
		ConsecFailures: b.consec,
		LatencyEWMAMS:  float64(b.lat) / float64(time.Millisecond),
	}
}
