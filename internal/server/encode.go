package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"ktpm"
)

// encode.go is the one encoder for every match-carrying response: /query
// and /batch bodies and the /stream header, match lines, and trailer. It
// appends compact JSON into a pooled buffer, byte-identical to
// json.Marshal of the exported response structs (field order, omitempty,
// HTML-escaped strings, encoding/json's float format), without
// reflection. A computed result is encoded once, at fill time, into a
// cachedResult; every response that carries it — the miss that computed
// it, cache hits, coalesced followers, deduped batch items — splices
// those bytes into its own envelope.

// cachedResult is the request-independent part of a /query response,
// encoded once when it is computed: positions and matches are complete
// JSON arrays sliced from one exact-size allocation. Only these bytes are
// retained by the result cache, never the structured matches.
type cachedResult struct {
	positions []byte // JSON array of the canonical positions' labels
	matches   []byte // JSON array of MatchJSON objects, "[]" when empty
}

// encodeResult encodes a computed top-k. An empty ms encodes as [], the
// form QueryResponse.Matches has always rendered.
func encodeResult(positions []string, ms []ktpm.Match) cachedResult {
	bp := getBuf()
	b := appendStrings(*bp, positions)
	n := len(b)
	b = append(b, '[')
	for i, m := range ms {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendMatch(b, m.Score, m.Nodes)
	}
	b = append(b, ']')
	own := make([]byte, len(b))
	copy(own, b)
	putBuf(bp, b)
	return cachedResult{positions: own[:n:n], matches: own[n:]}
}

// positionsOf returns the label of each position of q, in the order
// match nodes bind them.
func positionsOf(q *ktpm.Query) []string {
	out := make([]string, q.NumNodes())
	for i := range out {
		out[i] = q.LabelOf(i)
	}
	return out
}

// hasItems reports whether a JSON array encoded by this file is
// non-empty; a nil array (an errored batch item) is empty too.
func hasItems(arr []byte) bool { return len(arr) > 2 }

// bufPool recycles encode buffers. A buffer that grew past maxPooledBuf
// (a k=1000 reply is ~70 KB) is left to the collector rather than pinned.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

const maxPooledBuf = 256 << 10

// getBuf returns an empty pooled buffer.
func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf returns bp to the pool, emptied, holding b: *bp grown by appends.
func putBuf(bp *[]byte, b []byte) {
	if cap(b) > maxPooledBuf {
		return
	}
	*bp = b[:0]
	bufPool.Put(bp)
}

// writeBody sends b as one JSON response with its Content-Length.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	_, _ = w.Write(b)
}

// appendQuery appends r as JSON with res's arrays in place of
// r.Positions and r.Matches, which are not read. The trace subtree of a
// ?debug=1 response is the one part left to reflection.
func appendQuery(b []byte, r *QueryResponse, res cachedResult) []byte {
	b = append(b, `{"query":`...)
	b = appendString(b, r.Query)
	b = append(b, `,"canonical":`...)
	b = appendString(b, r.Canonical)
	b = append(b, `,"k":`...)
	b = strconv.AppendInt(b, int64(r.K), 10)
	b = append(b, `,"positions":`...)
	b = append(b, res.positions...)
	b = append(b, `,"matches":`...)
	b = append(b, res.matches...)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, r.Cached)
	if r.Coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, r.ElapsedMS)
	if r.RequestID != "" {
		b = append(b, `,"request_id":`...)
		b = appendString(b, r.RequestID)
	}
	if r.Trace != nil {
		// Marshal fails only on a non-finite span attr; the trace is then
		// left out rather than the response.
		if raw, err := json.Marshal(r.Trace); err == nil {
			b = append(b, `,"trace":`...)
			b = append(b, raw...)
		}
	}
	return append(b, '}')
}

// appendBatch appends r as JSON with res[i]'s arrays in place of
// r.Items[i].Positions and .Matches, which are not read; an item whose
// arrays are empty omits them, as omitempty does.
func appendBatch(b []byte, r *BatchResponse, res []cachedResult) []byte {
	b = append(b, `{"items":`...)
	if r.Items == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Items {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendBatchItem(b, &r.Items[i], res[i])
		}
		b = append(b, ']')
	}
	b = append(b, `,"computed":`...)
	b = strconv.AppendInt(b, int64(r.Computed), 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(r.CacheHits), 10)
	b = append(b, `,"deduped":`...)
	b = strconv.AppendInt(b, int64(r.Deduped), 10)
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, r.ElapsedMS)
	return append(b, '}')
}

func appendBatchItem(b []byte, it *BatchItemResponse, res cachedResult) []byte {
	b = append(b, `{"query":`...)
	b = appendString(b, it.Query)
	if it.Canonical != "" {
		b = append(b, `,"canonical":`...)
		b = appendString(b, it.Canonical)
	}
	if it.K != 0 {
		b = append(b, `,"k":`...)
		b = strconv.AppendInt(b, int64(it.K), 10)
	}
	if hasItems(res.positions) {
		b = append(b, `,"positions":`...)
		b = append(b, res.positions...)
	}
	if hasItems(res.matches) {
		b = append(b, `,"matches":`...)
		b = append(b, res.matches...)
	}
	if it.Cached {
		b = append(b, `,"cached":true`...)
	}
	if it.Deduped {
		b = append(b, `,"deduped":true`...)
	}
	if it.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, it.Error)
	}
	return append(b, '}')
}

// appendStreamHeader appends the /stream header line's JSON, without
// the NDJSON newline.
func appendStreamHeader(b []byte, h *StreamHeader) []byte {
	b = append(b, `{"query":`...)
	b = appendString(b, h.Query)
	b = append(b, `,"canonical":`...)
	b = appendString(b, h.Canonical)
	b = append(b, `,"positions":`...)
	b = appendStrings(b, h.Positions)
	return append(b, '}')
}

// appendMatch appends one match object: a MatchJSON, or a StreamMatch
// line without its newline.
func appendMatch(b []byte, score int64, nodes []int32) []byte {
	b = append(b, `{"score":`...)
	b = strconv.AppendInt(b, score, 10)
	b = append(b, `,"nodes":`...)
	if nodes == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range nodes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

// appendStreamTrailer appends the /stream trailer line's JSON, without
// the NDJSON newline.
func appendStreamTrailer(b []byte, t *StreamTrailer) []byte {
	b = append(b, `{"done":`...)
	b = strconv.AppendBool(b, t.Done)
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(t.Count), 10)
	b = append(b, `,"complete":`...)
	b = strconv.AppendBool(b, t.Complete)
	b = append(b, `,"reason":`...)
	b = appendString(b, t.Reason)
	b = append(b, `,"elapsed_ms":`...)
	b = appendFloat(b, t.ElapsedMS)
	if t.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, t.Error)
	}
	return append(b, '}')
}

// appendStrings appends ss as a JSON array of strings (null when nil).
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendString appends s as a JSON string. Strings of printable ASCII
// that encoding/json does not escape are copied between quotes; any
// other string is left to json.Marshal, so escapes (HTML characters,
// U+2028/2029, invalid UTF-8 as \ufffd) match it by construction.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f in encoding/json's float64 format: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 on,
// with a one-digit negative exponent unpadded (1e-7, not 1e-07). The
// floats here are elapsed times, never NaN or infinite.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
