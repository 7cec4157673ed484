package server

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ktpm"
)

// The /stream endpoint serves matches as NDJSON — one JSON object per
// line — in the order the backend's MatchStream emits them (score order;
// canonical tie order on a sharded backend). It is the anytime face of
// the enumerator: clients consume as many results as they want and hang
// up, and the server computes only what was consumed (plus one tie
// group, and on a coordinator what the worker sent ahead of the reads).
// The response is
// flushed every StreamChunk matches, at which point the client's
// liveness and the request deadline are also checked. A stream occupies
// one worker slot (executor.Acquire) for its whole duration, so
// Concurrency still bounds resident enumerations.
//
// One caveat bounds both guarantees: canonical tie order means a whole
// equal-score group is enumerated before any of it is emitted, so a
// single st.Next() call — during which no guard runs — can cost
// O(largest tie group). On score-diverse data groups are small; on
// uniform-weight data (astronomical tie groups) the guards and the max
// cap only take effect at group boundaries.

// StreamHeader is the first NDJSON line of a /stream response: the
// echoed query, its canonical form, and the label of each query
// position, in the order match lines bind their nodes.
type StreamHeader struct {
	Query     string   `json:"query"`
	Canonical string   `json:"canonical"`
	Positions []string `json:"positions"`
}

// StreamMatch is one match line of a /stream response: Nodes[i] is the
// data node bound to query position i of the header's Positions.
type StreamMatch struct {
	Score int64   `json:"score"`
	Nodes []int32 `json:"nodes"`
}

// StreamTrailer is the final NDJSON line of a /stream response. It is
// the only line carrying a "done" key, which is how clients tell it from
// a match.
type StreamTrailer struct {
	Done  bool `json:"done"`
	Count int  `json:"count"`
	// Complete is true when the match space was exhausted; false when
	// the stream was cut by the max guard, the deadline, a disconnect,
	// or a backend error.
	Complete bool `json:"complete"`
	// Reason is "exhausted", "max", "deadline", "disconnect", or
	// "error" (a distributed backend lost every worker replica; Error
	// carries the cause).
	Reason    string  `json:"reason"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Error is the backend failure that ended the stream when Reason is
	// "error".
	Error string `json:"error,omitempty"`
}

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.draining.Load() {
		s.rejectDraining(w)
		return
	}
	q, max, ok := s.parseStreamRequest(w, r)
	if !ok {
		return
	}
	// The overload gates run before a worker slot is reserved: a stream
	// is the most expensive work class (it holds its slot for the whole
	// drain), so brownout stage 1, the memory watcher's final stage, and
	// the predictive queue-wait check all shed it at the door.
	canonical := q.Canonical()
	if s.quar.has(canonical) {
		s.writeError(w, http.StatusInternalServerError, "query quarantined: its enumeration previously crashed")
		return
	}
	if reason := s.shedClass(true); reason != "" {
		s.writeShed(w, reason)
		return
	}
	if _, bad := s.adm.shouldShed(s.exec.queued.Load(), s.cfg.RequestTimeout); bad {
		s.writeShed(w, shedReasonDeadline)
		return
	}
	// One admission decision up front: the stream reserves a worker slot
	// before any enumeration work. Queue-full, deadline-while-queued, and
	// disconnect-while-queued answer 503/504/499 exactly like /query.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	trace := requestSpan(w, r)
	wait := trace.StartChild("admission_wait")
	release, err := s.exec.Acquire(ctx)
	wait.End()
	if !s.writeExecError(w, err) {
		return
	}
	defer release()
	tExec := time.Now()
	defer func() { s.adm.observe("stream", time.Since(tExec)) }()

	// Lines are appended to one pooled buffer and written once per
	// StreamChunk matches; b holds the lines not yet written.
	bp := getBuf()
	b := *bp
	defer func() { putBuf(bp, b) }()

	// The stream's enumeration runs on the handler goroutine (it must
	// interleave with response writes), so the executor's panic recovery
	// cannot cover it; this recover does. Before the header is written a
	// crash answers a plain 500; after it, the error trailer below. In
	// both cases the canonical query is quarantined.
	headerSent := false
	defer func() {
		if rec := recover(); rec != nil {
			s.quar.add(canonical)
			if s.cfg.Logger != nil {
				s.cfg.Logger.Error("stream enumeration panicked; canonical form quarantined",
					"canonical", canonical, "panic", fmt.Sprint(rec))
			}
			if !headerSent {
				s.writeError(w, http.StatusInternalServerError, "stream panicked: %v", rec)
				return
			}
			// The NDJSON status line is long gone; end the stream with the
			// whole lines still buffered and an error trailer.
			b = appendStreamTrailer(b, &StreamTrailer{
				Done:      true,
				Complete:  false,
				Reason:    "error",
				ElapsedMS: msSince(t0),
				Error:     fmt.Sprintf("panic: %v", rec),
			})
			b = append(b, '\n')
			_, _ = w.Write(b)
			if flusher, ok := w.(http.Flusher); ok {
				flusher.Flush()
			}
		}
	}()

	// The enumerate span covers the stream's whole drain: a sharded
	// backend's shard_merge span (ended by Close) nests under it.
	en := trace.StartChild("enumerate")
	defer en.End()
	st, err := s.db.OpenStream(q, ktpm.Options{Trace: en})
	if err != nil {
		// The request was validated above, so a failure here is the
		// server's, not the client's.
		s.writeError(w, http.StatusInternalServerError, "open stream: %v", err)
		return
	}
	defer st.Close()

	s.streams.Add(1)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no") // proxies must not buffer an anytime stream
	w.WriteHeader(http.StatusOK)
	headerSent = true
	flusher, _ := w.(http.Flusher)
	// Each line ends in the newline that is its NDJSON frame.
	b = appendStreamHeader(b, &StreamHeader{
		Query:     r.FormValue("q"),
		Canonical: q.Canonical(),
		Positions: positionsOf(q),
	})
	b = append(b, '\n')
	_, _ = w.Write(b)
	b = b[:0]
	if flusher != nil {
		flusher.Flush() // the header tells the client the stream is live
	}

	count := 0
	reason := "max"
	clientGone := r.Context().Done()
	deadline := ctx.Done()
	for count < max {
		m, more := st.Next()
		if !more {
			reason = "exhausted"
			break
		}
		b = append(appendMatch(b, m.Score, m.Nodes), '\n')
		count++
		if count%s.cfg.StreamChunk == 0 {
			_, _ = w.Write(b)
			b = b[:0]
			if flusher != nil {
				flusher.Flush()
			}
			// Guards are checked at flush points: a dead client or an
			// expired deadline stops the enumeration within one chunk.
			// The client check comes first — the request deadline ctx is
			// derived from the client's, so a disconnect fires both, and
			// a single select would pick between them at random.
			select {
			case <-clientGone:
				reason = "disconnect"
			default:
				select {
				case <-deadline:
					reason = "deadline"
				default:
					continue
				}
			}
			break
		}
	}
	if reason == "max" {
		// The loop reached the cap without seeing the stream end; one
		// bounded look-ahead probe distinguishes "exactly max matches
		// exist" (complete) from a genuine truncation, so clients do not
		// re-enumerate a finished space chasing a phantom remainder.
		if _, more := st.Next(); !more {
			reason = "exhausted"
		}
	}
	// A distributed stream ends early when every worker replica failed;
	// Err is an optional MatchStream extension local streams lack.
	var streamErr string
	if reason == "exhausted" {
		if se, ok := st.(interface{ Err() error }); ok {
			if err := se.Err(); err != nil {
				reason = "error"
				streamErr = err.Error()
			}
		}
	}
	switch reason {
	case "disconnect":
		// The 499 analogue for a response already streaming: the status
		// line is long gone, so the disconnect is recorded in /stats and
		// the stream just ends.
		s.streamDisconnects.Add(1)
	case "deadline":
		s.streamDeadlineHits.Add(1)
	case "max":
		s.streamMaxHits.Add(1)
	}
	s.streamMatches.Add(int64(count))
	b = appendStreamTrailer(b, &StreamTrailer{
		Done:      true,
		Count:     count,
		Complete:  reason == "exhausted",
		Reason:    reason,
		ElapsedMS: msSince(t0),
		Error:     streamErr,
	})
	b = append(b, '\n')
	_, _ = w.Write(b)
	if flusher != nil {
		flusher.Flush()
	}
}

// parseStreamRequest validates the /stream parameters: q and algo follow
// the /query rules; max (how many matches to stream at most) defaults to
// and is capped by MaxStreamMatches rather than MaxK — streaming exists
// precisely for results too large for one /query response.
func (s *Server) parseStreamRequest(w http.ResponseWriter, r *http.Request) (q *ktpm.Query, max int, ok bool) {
	sp := requestSpan(w, r).StartChild("parse")
	defer sp.End()
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return nil, 0, false
	}
	if r.Method == http.MethodPost && !s.limitBody(w, r) {
		return nil, 0, false
	}
	qs := r.FormValue("q")
	if qs == "" {
		s.writeError(w, http.StatusBadRequest, "missing required parameter q")
		return nil, 0, false
	}
	if len(qs) > s.cfg.MaxQueryLen {
		s.writeError(w, http.StatusBadRequest, "query length %d exceeds the maximum %d", len(qs), s.cfg.MaxQueryLen)
		return nil, 0, false
	}
	max = s.cfg.MaxStreamMatches
	if ms := r.FormValue("max"); ms != "" {
		var err error
		max, err = strconv.Atoi(ms)
		if err != nil || max < 1 {
			s.writeError(w, http.StatusBadRequest, "max must be a positive integer, got %q", ms)
			return nil, 0, false
		}
		if max > s.cfg.MaxStreamMatches {
			s.writeError(w, http.StatusBadRequest, "max=%d exceeds the maximum %d", max, s.cfg.MaxStreamMatches)
			return nil, 0, false
		}
	}
	if r.FormValue("algo") != "" {
		s.writeError(w, http.StatusBadRequest, "%s", errAlgoRemoved)
		return nil, 0, false
	}
	q, err := s.db.ParseQuery(qs)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad query: %v", err)
		return nil, 0, false
	}
	return q, max, true
}
