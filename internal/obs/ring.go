package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is one finished request's record in the trace ring: identity,
// outcome, and the full span tree.
type Trace struct {
	RequestID string    `json:"request_id"`
	Endpoint  string    `json:"endpoint"`
	Query     string    `json:"query,omitempty"`
	Status    int       `json:"status"`
	Start     time.Time `json:"start"`
	DurMS     float64   `json:"dur_ms"`
	// Slow marks a trace retained because it crossed the slow-query
	// threshold (false when the ring retains everything).
	Slow bool      `json:"slow,omitempty"`
	Root *SpanJSON `json:"trace"`
	// Span defers the span-tree rendering off the request hot path: a
	// trace added with Span set (and Root nil) is materialized to Root by
	// the first Ring.Snapshot that returns it. Finished spans are
	// immutable, so rendering at read time sees the same tree — and a
	// straggler child (a worker reader outliving its request) appears
	// complete instead of half-written.
	Span *Span `json:"-"`
}

// Ring is a fixed-size overwrite-oldest buffer of Traces — the backing
// of /debug/traces. Safe for concurrent use. Entries are stored by value
// in a preallocated buffer, so Add costs no allocation on the request
// hot path; Snapshot copies entries out on the (cold) read path.
type Ring struct {
	mu    sync.Mutex
	buf   []Trace
	next  int
	total int64
}

// NewRing returns a ring retaining the last n traces (n < 1 means 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Trace, n)}
}

// Add records t, evicting the oldest entry once full.
func (r *Ring) Add(t Trace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	r.total++
	r.mu.Unlock()
}

// Total returns how many traces have ever been added (recorded plus
// evicted).
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Snapshot returns up to max retained traces, newest first (max < 1
// means all).
func (r *Ring) Snapshot(max int) []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if max < 1 || max > len(r.buf) {
		max = len(r.buf)
	}
	written := len(r.buf)
	if r.total < int64(written) {
		written = int(r.total)
	}
	out := make([]*Trace, 0, max)
	for i := 1; i <= written && len(out) < max; i++ {
		t := &r.buf[(r.next-i+len(r.buf))%len(r.buf)]
		if t.Root == nil && t.Span != nil {
			t.Root = t.Span.Snapshot() // lazily rendered under r.mu
		}
		c := *t
		out = append(out, &c)
	}
	return out
}

// ridPrefix is the process's random request-ID prefix, drawn once so the
// per-request path needs no entropy syscall.
var ridPrefix = func() [8]byte {
	var b [4]byte
	var p [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the platform entropy source is gone;
		// serving requests without cross-restart-unique IDs beats failing.
		copy(p[:], "00000000")
		return p
	}
	hex.Encode(p[:], b[:])
	return p
}()

var ridCounter atomic.Uint64

// NewRequestID returns a fresh 16-hex-character request ID: a random
// per-process prefix (unique across restarts and across the future
// coordinator→worker fan-out without coordination) plus a process-local
// counter — one string allocation, no syscall, on the request hot path.
func NewRequestID() string {
	n := ridCounter.Add(1)
	const digits = "0123456789abcdef"
	var buf [16]byte
	copy(buf[:8], ridPrefix[:])
	for i := 15; i >= 8; i-- {
		buf[i] = digits[n&0xf]
		n >>= 4
	}
	return string(buf[:])
}
