package remote

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"

	"ktpm"
	"ktpm/internal/lazy"
)

// WorkerConfig configures a worker.
type WorkerConfig struct {
	// Index was this worker's shard id.
	//
	// Deprecated: a worker serves the whole enumeration, so Index is
	// ignored. It remains because benchmark/ still sets it; the next
	// change to benchmark/ drops it.
	Index int
	// Count was the topology's worker count.
	//
	// Deprecated: ignored, like Index, and dropped with it.
	Count int
	// Partitioner fixed vertex ownership.
	//
	// Deprecated: ignored, like Index, and dropped with it.
	Partitioner ktpm.Partitioner
	// MaxQueryLen rejects longer q strings, mirroring the serving
	// default; 0 means 4096.
	MaxQueryLen int
	// Logger receives per-stream logs; nil disables logging.
	Logger *slog.Logger
}

// Worker serves a database's match stream over HTTP: /shard/stream
// answers with the canonical score-ordered enumeration of a query's
// matches, truncated by the coordinator's k hint. The underlying
// Database is typically opened from the same KTPMSNAP2 snapshot every
// other replica maps, so the page cache is shared across the fleet.
type Worker struct {
	db    *ktpm.Database
	cfg   WorkerConfig
	hello Hello // handshake template; Positions filled per stream
	mux   *http.ServeMux

	streams  atomic.Int64 // /shard/stream requests accepted
	matches  atomic.Int64 // match frames written, abandoned streams included
	errs     atomic.Int64 // streams ended by an err frame or rejected
	draining atomic.Bool  // graceful shutdown begun; see SetDraining
}

// NewWorker builds a worker over db.
func NewWorker(db *ktpm.Database, cfg WorkerConfig) (*Worker, error) {
	if db == nil {
		return nil, fmt.Errorf("remote: nil database")
	}
	if cfg.MaxQueryLen < 1 {
		cfg.MaxQueryLen = 4096
	}
	w := &Worker{
		db:  db,
		cfg: cfg,
		hello: Hello{
			F:        helloTag,
			Proto:    ProtoVersion,
			Snapshot: Identity(db),
			Order:    OrderVersion,
		},
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/shard/hello", w.handleHello)
	mux.HandleFunc("/shard/stream", w.handleStream)
	mux.HandleFunc("/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(rw, "ok")
	})
	mux.HandleFunc("/readyz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "text/plain; charset=utf-8")
		// Draining flips readiness so load balancers stop routing here;
		// /healthz stays ok — the process is healthy, just leaving.
		if w.draining.Load() {
			rw.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(rw, "draining")
			return
		}
		// A constructed worker is ready: the database is open (lazy
		// snapshots fault tables on demand).
		fmt.Fprintln(rw, "ready")
	})
	mux.HandleFunc("/stats", w.handleStats)
	mux.HandleFunc("/metrics", w.handleMetrics)
	w.mux = mux
	return w, nil
}

// Handler returns the worker's HTTP surface: /shard/hello,
// /shard/stream, /healthz, /readyz, /stats, /metrics.
func (w *Worker) Handler() http.Handler { return w.mux }

// Hello returns the worker's handshake (Positions zero — it is
// query-specific).
func (w *Worker) Hello() Hello { return w.hello }

// SetDraining flips the worker's drain marker. While draining, /readyz
// answers 503, and every handshake carries draining:true so
// coordinators route to other replicas. /shard/stream keeps serving —
// in-flight streams need it until the process actually exits, and a
// coordinator with no other replica must still be answerable.
func (w *Worker) SetDraining(v bool) { w.draining.Store(v) }

// Draining reports whether SetDraining(true) has been called.
func (w *Worker) Draining() bool { return w.draining.Load() }

func (w *Worker) handleHello(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rw.Header().Set("Content-Type", "application/json")
	hello := w.hello
	hello.Draining = w.draining.Load()
	_ = json.NewEncoder(rw).Encode(hello)
}

// handleStream serves GET /shard/stream?q=<query>&k=<hint>: the hello
// frame, then the query's matches in canonical order, then an end
// frame, flushing every lazy.ChunkSize matches. A positive k sends
// exactly the first k matches (the top-k) and stops without enumerating
// another; k=0 streams until exhaustion or client disconnect (the
// coordinator's /stream path). Errors before the first byte are HTTP
// errors; after it, an err frame.
func (w *Worker) handleStream(rw http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(rw, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	qs := r.URL.Query().Get("q")
	if qs == "" {
		w.reject(rw, http.StatusBadRequest, "missing q")
		return
	}
	if len(qs) > w.cfg.MaxQueryLen {
		w.reject(rw, http.StatusBadRequest, fmt.Sprintf("query longer than %d bytes", w.cfg.MaxQueryLen))
		return
	}
	k := 0
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 0 {
			w.reject(rw, http.StatusBadRequest, "bad k")
			return
		}
		k = v
	}
	q, err := w.db.ParseQuery(qs)
	if err != nil {
		w.reject(rw, http.StatusBadRequest, err.Error())
		return
	}
	st, err := w.db.StreamWith(q, ktpm.Options{})
	if err != nil {
		w.reject(rw, http.StatusInternalServerError, err.Error())
		return
	}
	defer st.Close()

	w.streams.Add(1)
	rw.Header().Set("Content-Type", "application/octet-stream")
	rw.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := rw.(http.Flusher)
	// Frames collect in buf and go out one chunk per write and flush.
	send := func(buf []byte) error {
		if _, err := rw.Write(buf); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	hello := w.hello
	hello.Positions = q.NumNodes()
	hello.Draining = w.draining.Load()
	if send(appendFrame(nil, Frame{Kind: KindHello, Hello: hello})) != nil {
		return
	}

	ctx := r.Context()
	var (
		buf            []byte
		count, written int64
	)
	// A stream its client abandons ends early; what it wrote still counts.
	defer func() { w.matches.Add(written) }()
	for k == 0 || count < int64(k) {
		m, ok := st.Next()
		if !ok {
			break
		}
		buf = appendFrame(buf, Frame{Kind: KindMatch, Score: m.Score, Nodes: m.Nodes})
		count++
		if count%lazy.ChunkSize == 0 {
			if err := send(buf); err != nil {
				// The client went away mid-write; no frame can reach it.
				w.logStream(r, written, "write: "+err.Error())
				return
			}
			buf, written = buf[:0], count
			select {
			case <-ctx.Done():
				w.logStream(r, written, "client disconnected")
				return
			default:
			}
		}
	}
	if err := send(appendFrame(buf, Frame{Kind: KindEnd, Count: count, Complete: true})); err != nil {
		w.logStream(r, written, "write: "+err.Error())
		return
	}
	// A normal end logs nothing: it is on every routed request's path,
	// and /stats and /metrics count streams already.
	written = count
}

// reject writes a pre-stream failure as a plain HTTP error with a JSON
// body, counting it.
func (w *Worker) reject(rw http.ResponseWriter, status int, msg string) {
	w.errs.Add(1)
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(map[string]string{"error": msg})
}

// logStream records a stream that ended early: a failed write or a
// client that went away.
func (w *Worker) logStream(r *http.Request, matches int64, note string) {
	if w.cfg.Logger == nil {
		return
	}
	w.cfg.Logger.Info("shard_stream", "q", r.URL.Query().Get("q"), "matches", matches, "note", note)
}

// WorkerStats is the worker process's /stats document.
type WorkerStats struct {
	Hello   Hello `json:"hello"`
	Streams int64 `json:"streams"`
	// Matches counts match frames written across all streams, including
	// streams the coordinator closed early; a top-k stream writes at
	// most k.
	Matches  int64        `json:"matches"`
	Errors   int64        `json:"errors"`
	Draining bool         `json:"draining"`
	IO       ktpm.IOStats `json:"io"`
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Hello:    w.hello,
		Streams:  w.streams.Load(),
		Matches:  w.matches.Load(),
		Errors:   w.errs.Load(),
		Draining: w.draining.Load(),
		IO:       w.db.IOStats(),
	}
}

func (w *Worker) handleStats(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(w.Stats())
}

// handleMetrics renders the worker's counters in Prometheus text
// exposition format (the coordinator's richer /metrics lives in
// internal/server; this is the worker process's own small surface).
func (w *Worker) handleMetrics(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := w.Stats()
	write := func(name, help, typ string, v int64) {
		fmt.Fprintf(rw, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
	}
	write("ktpmd_worker_streams_total", "Match streams served.", "counter", st.Streams)
	write("ktpmd_worker_streamed_matches_total", "Match frames emitted across all streams.", "counter", st.Matches)
	write("ktpmd_worker_stream_errors_total", "Match streams rejected or ended by an error frame.", "counter", st.Errors)
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	write("ktpmd_worker_draining", "1 while the worker is draining for shutdown (readyz answers 503).", "gauge", draining)
}
