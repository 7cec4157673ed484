package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"ktpm"
)

// The /batch endpoint amortizes per-request overheads over many queries:
// one HTTP exchange, one JSON decode, one admission decision (the whole
// batch is a single executor task, so a batch occupies exactly one
// worker), and one enumeration per *distinct* item — canonical-identical
// items are computed once (in-batch singleflight) and every computed
// item warms the same shared derived-data plane. Items fail
// independently: a malformed or erroring item carries its own error
// field while the rest of the batch succeeds. Whole-batch failures are
// the transport-level ones only: bad JSON (400), admission queue full
// (503), and the batch-wide deadline (504) — one RequestTimeout covers
// the entire batch, and a batch that exceeds it fails as a unit.

// BatchRequest is the /batch request body.
type BatchRequest struct {
	Items []BatchRequestItem `json:"items"`
}

// BatchRequestItem is one query of a /batch request; q/k have the same
// syntax, defaults, and limits as the /query parameters.
type BatchRequestItem struct {
	Q string `json:"q"`
	K int    `json:"k"`
	// Algo is decoded only so that an item still naming an algorithm
	// fails with the removal error instead of silently running Topk-EN.
	Algo string `json:"algo"`
}

// BatchItemResponse is one item's outcome in a BatchResponse, aligned
// with the request's items by index.
type BatchItemResponse struct {
	Query     string      `json:"query"`
	Canonical string      `json:"canonical,omitempty"`
	K         int         `json:"k,omitempty"`
	Positions []string    `json:"positions,omitempty"`
	Matches   []MatchJSON `json:"matches,omitempty"`
	// Cached marks an item served from the result cache.
	Cached bool `json:"cached,omitempty"`
	// Deduped marks an item that shared an earlier identical item's
	// enumeration instead of running its own.
	Deduped bool `json:"deduped,omitempty"`
	// Partial marks an item degraded by a distributed backend: a dead
	// worker shard was dropped under the coordinator's partial policy.
	Partial bool `json:"partial,omitempty"`
	// Error is the item's failure; other items are unaffected.
	Error string `json:"error,omitempty"`
}

// BatchResponse is the /batch response body.
type BatchResponse struct {
	Items []BatchItemResponse `json:"items"`
	// Computed counts items that ran an enumeration; CacheHits and
	// Deduped count items served without one. Computed + CacheHits +
	// Deduped + errored items = len(Items).
	Computed  int     `json:"computed"`
	CacheHits int     `json:"cache_hits"`
	Deduped   int     `json:"deduped"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// batchItem is the handler's per-item working state.
type batchItem struct {
	resp  BatchItemResponse // Positions and Matches stay nil: res carries them
	res   cachedResult
	key   string // cache/dedup key; empty when the item is invalid
	first int    // index of the first item with the same key, or own index
	// canon is the parsed query when the item's q is already its
	// canonical form, so a miss runs it without parsing it again.
	canon *ktpm.Query
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	if s.draining.Load() {
		s.rejectDraining(w)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		s.writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	items, firstOf, ok := s.parseBatch(w, r)
	if !ok {
		return
	}

	// One cache probe per distinct key; hits serve every group member.
	trace := requestSpan(w, r)
	var misses []int // index of each missed group's first item
	cp := trace.StartChild("cache_probe")
	for key, f := range firstOf {
		if res, hit := s.cache.Get(key); hit {
			items[f].res = res
			items[f].resp.Cached = true
			continue
		}
		misses = append(misses, f)
	}
	cp.End()

	// One admission decision for the whole batch: all misses run as a
	// single executor task under one batch-wide deadline. As with /query,
	// canonical forms are executed so cached position numbering is
	// reproducible regardless of which sibling order filled the entry.
	// A fully-cached batch skips this block entirely, which is why the
	// overload gates live here: brownout and the memory watcher's final
	// stage shed only batches that need enumeration.
	if len(misses) > 0 {
		if reason := s.shedClass(true); reason != "" {
			s.writeShed(w, reason)
			return
		}
		if _, bad := s.adm.shouldShed(s.exec.queued.Load(), s.cfg.RequestTimeout); bad {
			s.writeShed(w, shedReasonDeadline)
			return
		}
		batch := make([]ktpm.BatchItem, len(misses))
		for i, f := range misses {
			cq := items[f].canon
			if cq == nil {
				var err error
				if cq, err = s.db.ParseQuery(items[f].resp.Canonical); err != nil {
					s.writeError(w, http.StatusInternalServerError, "canonical reparse: %v", err)
					return
				}
			}
			batch[i] = ktpm.BatchItem{Query: cq, K: items[f].resp.K}
		}
		var results []ktpm.BatchResult
		// A panic inside TopKBatch fails the whole batch with 500 but is
		// not quarantined: the batch is one executor task, so the crash
		// cannot be attributed to a single item's canonical form.
		if !s.writeExecError(w, s.execute(w, r, "batch", func() {
			// One enumerate span covers the whole batch; each computed
			// item's table faults and shard merges nest under it.
			en := trace.StartChild("enumerate")
			en.SetAttr("items", len(batch))
			for i := range batch {
				batch[i].Opt.Trace = en
			}
			results = s.db.TopKBatch(batch)
			en.End()
		})) {
			return
		}
		// Each computed item is encoded once; its duplicates and later
		// cache hits splice the same bytes.
		enc := trace.StartChild("encode")
		for i, f := range misses {
			res, it := results[i], &items[f]
			if res.Err != nil {
				it.resp.Error = res.Err.Error()
				continue
			}
			it.res = encodeResult(positionsOf(batch[i].Query), res.Matches, res.Partial)
			if res.Partial {
				// Degraded items are returned marked but never cached — the
				// next request should retry the dead shard.
				it.resp.Partial = true
				s.partials.Add(1)
				continue
			}
			// The same cost-aware admission as /query, priced per item by
			// TopKBatch's I/O deltas; memory stage 2+ bypasses the fill.
			if s.cfg.CacheEntries > 0 {
				if (s.cfg.CacheMinEntries > 0 && res.Cost < int64(s.cfg.CacheMinEntries)) || !s.cacheAdmitAllowed() {
					s.cacheBypassed.Add(1)
				} else {
					s.cache.Put(it.key, it.res)
					s.cacheAdmitted.Add(1)
				}
			}
		}
		enc.End()
	}

	// Fan group leaders' outcomes out to their duplicates and assemble
	// the response.
	enc := trace.StartChild("encode")
	resp := BatchResponse{Items: make([]BatchItemResponse, len(items))}
	res := make([]cachedResult, len(items))
	var itemErrs int64
	for i := range items {
		it := &items[i]
		if it.first != i {
			leader := &items[it.first]
			it.res = leader.res
			it.resp.Partial = leader.resp.Partial
			it.resp.Error = leader.resp.Error
			if it.resp.Error == "" {
				if leader.resp.Cached {
					it.resp.Cached = true
				} else {
					it.resp.Deduped = true
					resp.Deduped++
				}
			}
		}
		if it.resp.Error != "" {
			itemErrs++
		} else if it.resp.Cached {
			resp.CacheHits++
		} else if !it.resp.Deduped {
			resp.Computed++
		}
		resp.Items[i], res[i] = it.resp, it.res
	}
	s.batches.Add(1)
	s.batchItems.Add(int64(len(items)))
	s.batchComputed.Add(int64(resp.Computed))
	s.batchDeduped.Add(int64(resp.Deduped))
	s.batchCacheHits.Add(int64(resp.CacheHits))
	s.batchItemErrs.Add(itemErrs)
	resp.ElapsedMS = msSince(t0)
	bp := getBuf()
	b := append(appendBatch(*bp, &resp, res), '\n')
	writeBody(w, http.StatusOK, b)
	putBuf(bp, b)
	enc.End()
}

// parseBatch decodes a /batch body and validates every item under one
// parse span, grouping canonical-identical items under the first
// occurrence (in-batch singleflight). Validation failures stay
// per-item: the batch proceeds with whatever parses. ok false means an
// error response was already written.
func (s *Server) parseBatch(w http.ResponseWriter, r *http.Request) ([]batchItem, map[string]int, bool) {
	sp := requestSpan(w, r).StartChild("parse")
	defer sp.End()
	// The body cap is the smaller of -max-body-bytes and the configured
	// batch shape, so an oversized payload fails the decode with a
	// distinct 413 instead of buffering unbounded.
	limit := int64(s.cfg.MaxBatchItems)*int64(s.cfg.MaxQueryLen+256) + 4096
	if s.cfg.MaxBodyBytes > 0 && s.cfg.MaxBodyBytes < limit {
		limit = s.cfg.MaxBodyBytes
	}
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(&req); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.tooLarge.Add(1)
			s.writeError(w, http.StatusRequestEntityTooLarge, "batch body exceeds %d bytes", limit)
			return nil, nil, false
		}
		s.writeError(w, http.StatusBadRequest, "bad batch body: %v", err)
		return nil, nil, false
	}
	if len(req.Items) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty batch: items is required and must not be empty")
		return nil, nil, false
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		s.writeError(w, http.StatusBadRequest, "batch of %d items exceeds the maximum %d", len(req.Items), s.cfg.MaxBatchItems)
		return nil, nil, false
	}

	items := make([]batchItem, len(req.Items))
	firstOf := make(map[string]int, len(req.Items))
	for i, it := range req.Items {
		items[i].resp.Query = it.Q
		items[i].first = i
		q, k, errMsg := s.validateBatchItem(it)
		if errMsg != "" {
			items[i].resp.Error = errMsg
			continue
		}
		canonical := q.Canonical()
		if it.Q == canonical {
			items[i].canon = q
		}
		items[i].resp.Canonical = canonical
		items[i].resp.K = k
		items[i].key = s.resultKey(canonical, k)
		if f, ok := firstOf[items[i].key]; ok {
			items[i].first = f
		} else {
			firstOf[items[i].key] = i
		}
	}
	return items, firstOf, true
}

// validateBatchItem applies the /query parameter rules to one batch
// item, returning the parsed query and resolved k, or a non-empty error
// message mirroring parseRequest's texts.
func (s *Server) validateBatchItem(it BatchRequestItem) (q *ktpm.Query, k int, errMsg string) {
	if it.Q == "" {
		return nil, 0, "missing required parameter q"
	}
	if len(it.Q) > s.cfg.MaxQueryLen {
		return nil, 0, "query length " + strconv.Itoa(len(it.Q)) + " exceeds the maximum " + strconv.Itoa(s.cfg.MaxQueryLen)
	}
	k = it.K
	if k == 0 {
		k = s.cfg.DefaultK
	}
	if k < 1 {
		return nil, 0, "k must be a positive integer, got " + strconv.Itoa(it.K)
	}
	if k > s.cfg.MaxK {
		return nil, 0, "k=" + strconv.Itoa(k) + " exceeds the maximum " + strconv.Itoa(s.cfg.MaxK)
	}
	if it.Algo != "" {
		return nil, 0, errAlgoRemoved
	}
	q, err := s.db.ParseQuery(it.Q)
	if err != nil {
		return nil, 0, "bad query: " + err.Error()
	}
	return q, k, ""
}
