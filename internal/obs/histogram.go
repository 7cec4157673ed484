// Package obs is ktpmd's observability substrate: lock-free log-bucketed
// latency histograms with quantile estimation, request-scoped trace spans
// (carried via context through the executor, the shard merge, the lazy
// enumerator, and store table faulting), a fixed-size ring of recent
// slow-request traces, request-ID generation, build information, and a
// Prometheus text-exposition lint.
//
// The package sits below everything else in the module (it imports only
// the standard library), so any layer — server handlers, the remote
// coordinator, the store's fault path — can record into it without
// import cycles.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket layout: log-linear (HdrHistogram-style). Values are
// durations in nanoseconds. The first 2^subBits buckets are exact; above
// that each power-of-two octave splits into 2^subBits linear sub-buckets,
// bounding the quantile estimation error at 1/2^subBits (12.5%) of the
// reported value. Values at or above 2^maxExp ns (~18 minutes) clamp into
// the last bucket.
const (
	subBits    = 3
	subCount   = 1 << subBits
	maxExp     = 40
	numBuckets = subCount + (maxExp-subBits)*subCount
)

// Histogram is a lock-free latency histogram: every Observe is a handful
// of atomic adds, safe for any number of concurrent writers and readers.
// The zero value is ready to use.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Int64
}

// bucketIndex maps a nanosecond value to its bucket.
func bucketIndex(ns int64) int {
	if ns < 0 {
		ns = 0
	}
	if ns < subCount {
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1
	if exp >= maxExp {
		return numBuckets - 1
	}
	return subCount + (exp-subBits)*subCount + int((ns>>(exp-subBits))&(subCount-1))
}

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) time.Duration {
	if i < subCount {
		return time.Duration(i)
	}
	exp := subBits + (i-subCount)/subCount
	sub := (i - subCount) % subCount
	return time.Duration(int64(subCount+sub+1)<<(exp-subBits) - 1)
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.buckets[bucketIndex(d.Nanoseconds())].Add(1)
	h.count.Add(1)
	h.sum.Add(d.Nanoseconds())
}

// Count returns how many observations the histogram has absorbed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot returns a point-in-time copy safe to query and merge. Under
// concurrent writers the copy is not a single atomic cut — counts may be
// off by the handful of observations that landed mid-copy — which is the
// standard (and harmless) trade for lock-free recording.
func (h *Histogram) Snapshot() *Snapshot {
	s := &Snapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Snapshot is a point-in-time copy of a Histogram.
type Snapshot struct {
	Count   int64
	Sum     int64 // nanoseconds
	Buckets [numBuckets]int64
}

// Merge adds other's observations into s, the scatter-gather form:
// per-worker histograms merge into one distribution without rebinning
// (every histogram shares the fixed bucket layout).
func (s *Snapshot) Merge(other *Snapshot) {
	if other == nil {
		return
	}
	s.Count += other.Count
	s.Sum += other.Sum
	for i := range s.Buckets {
		s.Buckets[i] += other.Buckets[i]
	}
}

// Quantile returns an upper-bound estimate of the q-quantile (q in
// [0, 1]), i.e. the bucket bound below which at least q of the
// observations fall. Zero observations estimate as 0.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q*float64(s.Count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= rank {
			return BucketBound(i)
		}
	}
	return BucketBound(numBuckets - 1)
}

// Mean returns the exact arithmetic mean of the observations.
func (s *Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// CumulativeLE returns how many observations are at or below bound. Exact
// when bound is a bucket bound (see AlignBound); otherwise it counts
// through the last bucket wholly at or below bound.
func (s *Snapshot) CumulativeLE(bound time.Duration) int64 {
	var cum int64
	for i := range s.Buckets {
		if BucketBound(i) > bound {
			break
		}
		cum += s.Buckets[i]
	}
	return cum
}

// AlignBound rounds d up to the nearest bucket bound, the exact `le`
// value a Prometheus histogram series should advertise so CumulativeLE
// is exact for it.
func AlignBound(d time.Duration) time.Duration {
	return BucketBound(bucketIndex(d.Nanoseconds()))
}

// DefaultBounds is the Prometheus exposition bucket ladder: round-number
// targets from 50µs to 10s, each aligned to an exact histogram bucket
// bound so the exported cumulative counts are exact. The +Inf bucket is
// implied by the exposition (it equals Count).
func DefaultBounds() []time.Duration {
	targets := []time.Duration{
		50 * time.Microsecond, 100 * time.Microsecond, 250 * time.Microsecond,
		500 * time.Microsecond, 1 * time.Millisecond, 2500 * time.Microsecond,
		5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
		50 * time.Millisecond, 100 * time.Millisecond, 250 * time.Millisecond,
		500 * time.Millisecond, time.Second, 2500 * time.Millisecond,
		5 * time.Second, 10 * time.Second,
	}
	out := make([]time.Duration, 0, len(targets))
	for _, t := range targets {
		b := AlignBound(t)
		if len(out) == 0 || b > out[len(out)-1] {
			out = append(out, b)
		}
	}
	return out
}
