package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed operation in a request's trace tree. Spans are built
// for every request on the hot path, so the design is allocation-lean and
// nil-tolerant: every method is safe on a nil *Span and does nothing, so
// instrumented layers (store faulting, shard merge, the enumerator) call
// StartChild/End unconditionally and cost nothing when tracing is off.
//
// A Span is safe for concurrent use: children may be attached from
// reader goroutines (a coordinator's worker streams) while the tree is
// read, and End/Snapshot may race benignly — the duration is published
// through one atomic, and an unfinished span snapshots with its live
// duration.
type Span struct {
	name  string
	start time.Time
	durNS atomic.Int64 // 0 while running; set exactly once by End

	mu       sync.Mutex
	attrs    []Attr
	children []*Span
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string
	Value any
}

// StartRoot begins a new trace rooted at a span with the given name.
func StartRoot(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartChild begins a child span. Safe on a nil receiver (returns nil, so
// whole instrumented call chains no-op when tracing is off).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	if s.children == nil {
		// One sized allocation instead of an append-growth chain: request
		// roots typically carry 3-4 stage children.
		s.children = make([]*Span, 0, 4)
	}
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End finishes the span. Idempotent — the first End wins — and safe on
// nil. A finished span reports a duration of at least 1ns so "ended" and
// "still running" stay distinguishable.
func (s *Span) End() {
	if s == nil {
		return
	}
	ns := time.Since(s.start).Nanoseconds()
	if ns < 1 {
		ns = 1
	}
	s.durNS.CompareAndSwap(0, ns)
}

// SetAttr attaches an annotation. Safe on nil; last write for a key wins
// at snapshot time (keys are not deduplicated on write).
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// Name returns the span name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's duration: final if ended, live otherwise.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if ns := s.durNS.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return time.Since(s.start)
}

// Ended reports whether End has run.
func (s *Span) Ended() bool { return s != nil && s.durNS.Load() > 0 }

// Each walks the span tree depth-first (the receiver included), invoking
// fn with every span's name and duration. Safe on nil and under
// concurrent child attachment.
func (s *Span) Each(fn func(name string, d time.Duration)) {
	if s == nil {
		return
	}
	fn(s.name, s.Duration())
	for _, c := range s.kids() {
		c.Each(fn)
	}
}

// kids returns a stable view of the children: the slice header is read
// under the lock, and a concurrent append either grows in place past our
// length or reallocates — either way the elements 0..len-1 we iterate
// are never mutated, so no copy is needed.
func (s *Span) kids() []*Span {
	s.mu.Lock()
	kids := s.children
	s.mu.Unlock()
	return kids
}

// EachStage walks the tree like Each but skips any span whose name
// already appeared on its ancestor path: a table derive that refaults
// nested tables produces nested "table_fault" spans whose durations
// overlap, and counting both would double-charge the stage histogram.
func (s *Span) EachStage(fn func(name string, d time.Duration)) {
	s.eachStage(fn, make(map[string]int))
}

func (s *Span) eachStage(fn func(name string, d time.Duration), onPath map[string]int) {
	if s == nil {
		return
	}
	if onPath[s.name] == 0 {
		fn(s.name, s.Duration())
	}
	kids := s.kids()
	if len(kids) == 0 {
		return
	}
	onPath[s.name]++
	for _, c := range kids {
		c.eachStage(fn, onPath)
	}
	onPath[s.name]--
}

// EachStageMapped is EachStage through a name→stage mapping: fn runs
// once per span whose mapped stage is non-empty and has not already
// appeared on its ancestor path (by mapped name, so a stage span nested
// under a span of the same stage is skipped while siblings each count).
// It allocates nothing for the shallow trees the request hot
// path produces — this is how the server feeds its stage histograms
// without rendering a SpanJSON snapshot per request.
func (s *Span) EachStageMapped(mapName func(string) string, fn func(stage string, d time.Duration)) {
	if s == nil {
		return
	}
	var path [8]string
	s.eachStageMapped(mapName, fn, path[:0])
}

func (s *Span) eachStageMapped(mapName func(string) string, fn func(stage string, d time.Duration), onPath []string) {
	stage := mapName(s.name)
	for _, p := range onPath {
		if p == stage {
			stage = ""
			break
		}
	}
	if stage != "" {
		fn(stage, s.Duration())
	}
	kids := s.kids()
	if len(kids) == 0 {
		return
	}
	if stage != "" {
		onPath = append(onPath, stage)
	}
	for _, c := range kids {
		c.eachStageMapped(mapName, fn, onPath)
	}
}

// SpanJSON is the wire form of a span tree: /query?debug=1 inlines it,
// /debug/traces serves rings of it, and the slow-query log emits it.
type SpanJSON struct {
	Name string `json:"name"`
	// StartUS is the span's start offset from the tree root, microseconds.
	StartUS float64 `json:"start_us"`
	DurMS   float64 `json:"dur_ms"`
	// Unfinished marks a span snapshotted before End (its DurMS is the
	// live duration at snapshot time).
	Unfinished bool           `json:"unfinished,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanJSON    `json:"children,omitempty"`
}

// Snapshot renders the span tree rooted at s, with start offsets relative
// to s. Returns nil on nil.
func (s *Span) Snapshot() *SpanJSON {
	if s == nil {
		return nil
	}
	return s.snapshot(s.start)
}

func (s *Span) snapshot(base time.Time) *SpanJSON {
	out := &SpanJSON{
		Name:       s.name,
		StartUS:    float64(s.start.Sub(base).Nanoseconds()) / 1e3,
		DurMS:      float64(s.Duration().Nanoseconds()) / 1e6,
		Unfinished: !s.Ended(),
	}
	s.mu.Lock()
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	kids := s.children
	s.mu.Unlock()
	for _, c := range kids {
		out.Children = append(out.Children, c.snapshot(base))
	}
	return out
}

type spanCtxKey struct{}

// ContextWith returns ctx carrying sp; FromContext retrieves it.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}
