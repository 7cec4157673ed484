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

// WorkerConfig configures one worker's place in a topology.
type WorkerConfig struct {
	// Index is this worker's shard id in [0, Count).
	Index int
	// Count is the topology's worker count.
	Count int
	// Partitioner fixes vertex ownership; nil means ktpm.PartitionByHash.
	// Every worker and the coordinator must use the same partitioner —
	// its name travels in the handshake.
	Partitioner ktpm.Partitioner
	// MaxQueryLen rejects longer q strings, mirroring the serving
	// default; 0 means 4096.
	MaxQueryLen int
	// Logger receives per-stream logs; nil disables logging.
	Logger *slog.Logger
}

// Worker serves one shard's slice of the match space over HTTP. It owns
// the vertices its partitioner assigns to its index and answers
// /shard/stream with the canonical score-ordered enumeration of those
// matches, truncated by the coordinator's k hint. The underlying
// Database is typically opened from the same KTPMSNAP1 snapshot every
// other worker maps, so the page cache is shared across the fleet.
type Worker struct {
	db     *ktpm.Database
	cfg    WorkerConfig
	hello  Hello // handshake template; Positions filled per stream
	assign []int32
	mux    *http.ServeMux

	streams  atomic.Int64 // /shard/stream requests accepted
	matches  atomic.Int64 // match frames written, abandoned streams included
	errs     atomic.Int64 // streams ended by an err frame or rejected
	draining atomic.Bool  // graceful shutdown begun; see SetDraining
}

// NewWorker validates the topology slot and precomputes the vertex
// assignment (the same O(nodes) partition every peer computes, so
// ownership is consistent without coordination).
func NewWorker(db *ktpm.Database, cfg WorkerConfig) (*Worker, error) {
	if db == nil {
		return nil, fmt.Errorf("remote: nil database")
	}
	if cfg.Count < 1 {
		return nil, fmt.Errorf("remote: worker count %d, want >= 1", cfg.Count)
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Count {
		return nil, fmt.Errorf("remote: worker index %d of %d", cfg.Index, cfg.Count)
	}
	if cfg.Partitioner == nil {
		cfg.Partitioner = ktpm.PartitionByHash()
	}
	if cfg.MaxQueryLen < 1 {
		cfg.MaxQueryLen = 4096
	}
	w := &Worker{
		db:     db,
		cfg:    cfg,
		assign: cfg.Partitioner.Partition(db.Graph(), cfg.Count),
		hello: Hello{
			F:           helloTag,
			Proto:       ProtoVersion,
			Shard:       cfg.Index,
			Workers:     cfg.Count,
			Partitioner: cfg.Partitioner.Name(),
			Snapshot:    Identity(db),
			Order:       OrderVersion,
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
		// A constructed worker is ready: the partition is computed and the
		// database is open (lazy snapshots fault tables on demand).
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
// coordinators prefer replicas and stop hedging against this worker.
// /shard/stream keeps serving — in-flight merges need the shard until
// the process actually exits, and a coordinator with no replica for
// this shard must still be answerable.
func (w *Worker) SetDraining(v bool) { w.draining.Store(v) }

// Draining reports whether SetDraining(true) has been called.
func (w *Worker) Draining() bool { return w.draining.Load() }

// OwnedVertices returns how many data-graph vertices this worker's shard
// owns.
func (w *Worker) OwnedVertices() int {
	n := 0
	for _, s := range w.assign {
		if s == int32(w.cfg.Index) {
			n++
		}
	}
	return n
}

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
// frame, then this shard's matches in canonical order, then an end
// frame, flushing every lazy.ChunkSize matches. A positive k sends
// exactly the shard's first k matches and stops without enumerating
// another: the global top-k is the k smallest matches under the
// canonical total order, so the shard's share of it is a prefix of its
// stream no longer than k, and any later match is beaten by k of the
// shard's own. k=0 streams until exhaustion or client disconnect (the
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
	shard := int32(w.cfg.Index)
	st, err := w.db.StreamWith(q, ktpm.Options{
		RootFilter: func(v int32) bool { return w.assign[v] == shard },
	})
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
	if send(appendFrame(buf, Frame{Kind: KindEnd, Count: count, Complete: true})) == nil {
		written = count
	}
	w.logStream(r, written, "")
}

// reject writes a pre-stream failure as a plain HTTP error with a JSON
// body, counting it.
func (w *Worker) reject(rw http.ResponseWriter, status int, msg string) {
	w.errs.Add(1)
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	_ = json.NewEncoder(rw).Encode(map[string]string{"error": msg})
}

func (w *Worker) logStream(r *http.Request, matches int64, note string) {
	if w.cfg.Logger == nil {
		return
	}
	attrs := []any{"shard", w.cfg.Index, "q", r.URL.Query().Get("q"), "matches", matches}
	if note != "" {
		attrs = append(attrs, "note", note)
	}
	w.cfg.Logger.Info("shard_stream", attrs...)
}

// WorkerStats is the worker process's /stats document.
type WorkerStats struct {
	Hello    Hello `json:"hello"`
	Vertices int   `json:"vertices"`
	Streams  int64 `json:"streams"`
	// Matches counts match frames written across all shard streams,
	// including streams the coordinator closed early; a top-k stream
	// writes at most k.
	Matches  int64        `json:"matches"`
	Errors   int64        `json:"errors"`
	Draining bool         `json:"draining"`
	IO       ktpm.IOStats `json:"io"`
}

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Hello:    w.hello,
		Vertices: w.OwnedVertices(),
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
	write("ktpmd_worker_shard", "This worker's shard index.", "gauge", int64(w.cfg.Index))
	write("ktpmd_worker_vertices", "Data-graph vertices this worker's shard owns.", "gauge", int64(st.Vertices))
	write("ktpmd_worker_streams_total", "Shard streams served.", "counter", st.Streams)
	write("ktpmd_worker_streamed_matches_total", "Match frames emitted across all shard streams.", "counter", st.Matches)
	write("ktpmd_worker_stream_errors_total", "Shard streams rejected or ended by an error frame.", "counter", st.Errors)
	draining := int64(0)
	if st.Draining {
		draining = 1
	}
	write("ktpmd_worker_draining", "1 while the worker is draining for shutdown (readyz answers 503).", "gauge", draining)
}
