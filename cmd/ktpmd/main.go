// Command ktpmd serves top-k tree-matching queries over HTTP.
//
// It loads a data graph (building the closure at startup) or a KTPMSNAP2
// snapshot (see ktpm -save-snapshot) — the latter openable lazily or via
// mmap so the daemon starts serving in O(directory) time instead of
// re-materializing the whole closure — then answers concurrent queries
// against the one shared database, optionally partitioned across shards
// by root binding (each query still runs one enumeration; /stats and
// /metrics count the answered matches each shard owns):
//
//	ktpmd -graph g.txt -addr :8080
//	ktpmd -snapshot g.snap -concurrency 8 -cache 4096 -shards 4 -partition label
//	ktpmd -snapshot g.snap -snapshot-mode mmap
//
// Beyond the default single-process mode (-role serve), the daemon can
// be one node of a replicated fleet: -role worker serves its database's
// score-ordered match stream as binary frames, and -role coordinator
// routes each request whole to one worker replica, moving it to another
// replica if that one fails, so results are byte-identical to a single
// node:
//
//	ktpmd -role worker -snapshot g.snap -addr :9101
//	ktpmd -role worker -snapshot g.snap -addr :9102
//	ktpmd -role coordinator -snapshot g.snap -workers localhost:9101,localhost:9102
//
// See docs/DISTRIBUTED.md for the routing, failure-handling, and
// deployment story.
//
// With -wal-dir the daemon additionally accepts writes: POST /ingest
// appends edges through a write-ahead log (fsynced per -fsync before
// the ack), serves them from an in-memory epoch overlay merged with the
// immutable base, and compacts sealed overlays into new crash-atomic
// snapshot generations in the background. A SIGKILL at any instant
// loses no acknowledged write: restart replays the WAL tail above the
// current generation's watermark. See docs/ARCHITECTURE.md ("Write
// path") and docs/OPERATIONS.md for the recovery runbook:
//
//	ktpmd -snapshot g.snap -wal-dir /var/lib/ktpm/wal -fsync always
//
//	curl 'localhost:8080/query?q=a(b,c(d))&k=5'
//	curl -d '{"edges":[{"from":3,"to":9,"w":2}]}' localhost:8080/ingest
//	curl 'localhost:8080/query?q=a(b)&debug=1'          # inline trace span tree
//	curl -d '{"items":[{"q":"a(b)","k":5},{"q":"a(b)","k":5}]}' localhost:8080/batch
//	curl -N 'localhost:8080/stream?q=a(b)&max=100000'
//	curl 'localhost:8080/explain?q=a(b)'
//	curl 'localhost:8080/stats'
//	curl 'localhost:8080/metrics'
//	curl 'localhost:8080/readyz'
//	curl 'localhost:8080/debug/traces?n=10'
//
// Logs are structured (log/slog): text by default, JSON with -log-json.
// -access-log logs every request with its X-Request-ID; -slow-query-ms
// logs the full trace span tree of any query slower than the threshold.
//
// See package ktpm/internal/server for the endpoint contract,
// docs/API.md for the full HTTP reference, and docs/OBSERVABILITY.md for
// the metrics, tracing, and logging story.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ktpm"
	"ktpm/internal/obs"
	"ktpm/internal/remote"
	"ktpm/internal/server"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "path to the data graph file")
		snapPath    = flag.String("snapshot", "", "path to a KTPMSNAP2 snapshot (alternative to -graph; see -snapshot-mode)")
		snapMode    = flag.String("snapshot-mode", "mmap", "snapshot table backing: eager (decode all at open), lazy (fault tables on demand), or mmap (zero-copy views, falls back to lazy without mmap)")
		addr        = flag.String("addr", ":8080", "listen address")
		concurrency = flag.Int("concurrency", 0, "worker pool size (0 = GOMAXPROCS)")
		queueDepth  = flag.Int("queue", 0, "admission queue depth (0 = default 64)")
		timeout     = flag.Duration("timeout", 0, "per-request timeout (0 = default 10s)")
		cacheSize   = flag.Int("cache", 0, "result cache entries (0 = default 1024, negative disables)")
		cacheMin    = flag.Int("cache-min-entries", 0, "cache a result only if computing it read at least N store entries (0 = cache everything; not with -role coordinator)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this loopback address (e.g. 127.0.0.1:6060 or :6060; empty disables)")
		blockSize   = flag.Int("block-size", 0, "store block size (0 = default)")
		maxK        = flag.Int("max-k", 0, "largest accepted k (0 = default 1000)")
		shards      = flag.Int("shards", 1, "partition the match space across N shards by root binding; each query still runs one enumeration, and /stats and /metrics count each shard's answered matches (1 = unsharded)")
		partition   = flag.String("partition", "hash", "shard partitioner: hash or label")
		slowMS      = flag.Float64("slow-query-ms", 0, "log the trace span tree of requests slower than this many milliseconds, and retain only those in /debug/traces (0 = retain every request, log none)")
		traceRing   = flag.Int("trace-ring", 0, "recent-trace ring capacity behind /debug/traces (0 = default 64, negative disables)")
		accessLog   = flag.Bool("access-log", false, "log every request (method, path, status, duration, request id)")
		logJSON     = flag.Bool("log-json", false, "emit logs as JSON lines instead of text")
		showVersion = flag.Bool("version", false, "print version and build info, then exit")

		walDir       = flag.String("wal-dir", "", "enable the crash-safe write path (/ingest): directory for the write-ahead log, compacted generation snapshots, and the CURRENT pointer (empty = read-only; requires -role serve and -shards 1)")
		fsyncPolicy  = flag.String("fsync", "always", "WAL durability policy with -wal-dir: always (fsync before every ack), interval (fsync every 100ms; a crash may lose the acked tail), or never (fsync only on rotation and shutdown)")
		compactThr   = flag.Int("compact-threshold", 0, "with -wal-dir, checkpoint the serving state into a new snapshot generation once the batches since the last one logged this many closure entries (0 = default 100000, negative disables background compaction)")
		maxQueueWait = flag.Duration("max-queue-wait", 2*time.Second, "shed a request with 429 when its estimated admission-queue wait exceeds this (0 disables predictive shedding)")
		memSoft      = flag.String("mem-soft-limit", "", "heap soft limit with an optional KiB/MiB/GiB suffix (e.g. 512MiB): approaching it progressively shrinks the result cache, stops cache admission, then sheds uncached requests with 429; also sets the Go runtime's soft memory limit (empty disables)")
		maxBody      = flag.Int64("max-body-bytes", 0, "largest accepted POST body in bytes, answered 413 beyond it (0 = default 4MiB, negative disables the cap)")
		drainTimeout = flag.Duration("drain-timeout", 0, "how long shutdown waits for in-flight requests after SIGTERM/SIGINT before exiting anyway (0 = default 10s)")

		role          = flag.String("role", "serve", "process role: serve (single node), worker (serve the match stream to a coordinator), or coordinator (route each request to one worker replica)")
		workersList   = flag.String("workers", "", "coordinator role: comma-separated worker replica addresses; each request goes to one of them (e.g. 'a:9101,b:9101')")
		workerTimeout = flag.Duration("worker-timeout", 0, "coordinator role: per-stall timeout on a worker connection — the open, the handshake, and every read (0 = default 5s)")

		breakerFails    = flag.Int("breaker-failures", 0, "coordinator role: consecutive failures that open a worker replica's circuit breaker (0 = default 3)")
		breakerCooldown = flag.Duration("breaker-cooldown", 0, "coordinator role: an opened breaker's first skip window, doubling per re-open up to 30s (0 = default 1s)")
		breakerLatency  = flag.Duration("breaker-latency", 0, "coordinator role: also eject a worker replica whose handshake-latency EWMA exceeds this (0 disables the latency trip)")
	)
	// Deprecated: a worker serves the whole enumeration, so its index and
	// count are parsed and ignored. They remain because benchmark/ still
	// passes them; the next change to benchmark/ drops them.
	flag.Int("worker-index", 0, "deprecated and ignored: every worker serves the whole enumeration")
	flag.Int("worker-count", 0, "deprecated and ignored: every worker serves the whole enumeration")
	rejectRemovedFlags(os.Args[1:])
	flag.Parse()
	if *showVersion {
		bi := obs.Build()
		fmt.Printf("ktpmd %s %s", bi.Version, bi.Go)
		if bi.Revision != "" {
			fmt.Printf(" (%s)", bi.Revision)
		}
		fmt.Println()
		return
	}
	logger := newLogger(*logJSON)
	slog.SetDefault(logger)

	if (*graphPath == "") == (*snapPath == "") {
		fmt.Fprintln(os.Stderr, "ktpmd: exactly one of -graph or -snapshot is required")
		flag.Usage()
		os.Exit(2)
	}
	mode, ok := ktpm.ParseSnapshotMode(*snapMode)
	if !ok {
		fmt.Fprintf(os.Stderr, "ktpmd: unknown snapshot mode %q (want eager, lazy, or mmap)\n", *snapMode)
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "ktpmd: -shards must be at least 1")
		os.Exit(2)
	}
	partitioner, ok := ktpm.ParsePartitioner(*partition)
	if !ok {
		fmt.Fprintf(os.Stderr, "ktpmd: unknown partitioner %q (want hash or label)\n", *partition)
		os.Exit(2)
	}
	if *role != "serve" && *role != "worker" && *role != "coordinator" {
		fmt.Fprintf(os.Stderr, "ktpmd: unknown role %q (want serve, worker, or coordinator)\n", *role)
		os.Exit(2)
	}
	if *role != "serve" && *shards > 1 {
		fmt.Fprintf(os.Stderr, "ktpmd: -shards is in-process sharding; it cannot combine with -role %s\n", *role)
		os.Exit(2)
	}
	if *role == "coordinator" && *cacheMin > 0 {
		// A coordinator prices results by its local store, which the
		// workers' enumeration never touches: every fill would cost 0 and
		// be bypassed, so the cache would never hold anything.
		fmt.Fprintln(os.Stderr, "ktpmd: -cache-min-entries cannot combine with -role coordinator: its local store reads nothing for distributed queries")
		os.Exit(2)
	}
	var workerEPs []remote.Endpoint
	if *role == "coordinator" {
		eps, err := parseWorkerEndpoints(*workersList)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ktpmd:", err)
			os.Exit(2)
		}
		workerEPs = eps
	}
	if *walDir != "" && (*role != "serve" || *shards > 1) {
		fmt.Fprintln(os.Stderr, "ktpmd: -wal-dir (the write path) requires -role serve and -shards 1")
		os.Exit(2)
	}
	memSoftBytes, err := parseBytes(*memSoft)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ktpmd: bad -mem-soft-limit: %v\n", err)
		os.Exit(2)
	}
	if memSoftBytes > 0 {
		// The GC works against the same ceiling the watcher degrades
		// toward, so collection pressure rises before the staging kicks in.
		debug.SetMemoryLimit(memSoftBytes)
	}

	bi := obs.Build()
	logger.Info("starting",
		"version", bi.Version,
		"go", bi.Go,
		"pid", os.Getpid(),
	)

	db, startup, err := loadDatabase(logger, *graphPath, *snapPath, mode, *blockSize)
	if err != nil {
		fatal(logger, "load", err)
	}

	// Worker role: the process serves its match stream and its own small
	// ops surface, not the query endpoints.
	if *role == "worker" {
		runWorker(logger, db, remote.WorkerConfig{Logger: logger}, *addr, *snapPath != "", *drainTimeout)
		return
	}

	// Coordinator role: the backend is a remote.Coordinator routing to
	// the configured worker replicas; the local database parses, plans,
	// and serves the non-distributable paths.
	var coord *remote.Coordinator
	var backend server.Backend = db
	if *role == "coordinator" {
		var err error
		coord, err = remote.NewCoordinator(db, *partition, [][]remote.Endpoint{workerEPs}, remote.Config{
			WorkerTimeout:   *workerTimeout,
			BreakerFailures: *breakerFails,
			BreakerCooldown: *breakerCooldown,
			BreakerLatency:  *breakerLatency,
		})
		if err != nil {
			fatal(logger, "coordinator", err)
		}
		backend = coord
		logger.Info("coordinator mode", "workers", coord.NumWorkers())
	}

	// The sharded path wraps the same database; every endpoint keeps its
	// contract, and /stats and /metrics additionally report per-shard
	// match counts.
	if *shards > 1 {
		sdb, err := db.Shard(*shards, partitioner)
		if err != nil {
			fatal(logger, "shard", err)
		}
		backend = sdb
		ss := sdb.ShardStats()
		sizes := make([]int, len(ss.PerShard))
		for i, ps := range ss.PerShard {
			sizes[i] = ps.Vertices
		}
		logger.Info("sharding enabled",
			"shards", ss.Shards,
			"partitioner", ss.Partitioner,
			"vertices_per_shard", fmt.Sprint(sizes),
		)
	}

	// The write path wraps the database in the live engine: WAL replay
	// runs here, before the listener opens, so recovery is complete by
	// the time the first request can arrive.
	var live *ktpm.Live
	if *walDir != "" {
		t0 := time.Now()
		live, err = ktpm.OpenLive(db, ktpm.LiveConfig{
			Dir:              *walDir,
			Fsync:            *fsyncPolicy,
			CompactThreshold: *compactThr,
			SnapshotMode:     mode,
			Logger:           logger,
		})
		if err != nil {
			fatal(logger, "write path", err)
		}
		backend = live
		st := live.IngestStats()
		logger.Info("write path enabled",
			"wal_dir", *walDir,
			"fsync", *fsyncPolicy,
			"compact_threshold", st.Compaction.Threshold,
			"generation", st.Compaction.Generation,
			"recovered_records", st.WAL.RecoveredRecords,
			"open_ms", float64(time.Since(t0).Microseconds())/1000,
		)
	}

	srv := server.New(backend, server.Config{
		Concurrency:     *concurrency,
		QueueDepth:      *queueDepth,
		RequestTimeout:  *timeout,
		CacheEntries:    *cacheSize,
		CacheMinEntries: *cacheMin,
		MaxK:            *maxK,
		MaxQueueWait:    *maxQueueWait,
		MemSoftLimit:    memSoftBytes,
		MaxBodyBytes:    *maxBody,
		Startup:         startup,
		TraceRing:       *traceRing,
		SlowQuery:       time.Duration(*slowMS * float64(time.Millisecond)),
		Logger:          logger,
		AccessLog:       *accessLog,
	})
	defer srv.Close()

	// A coordinator is not ready until every worker's handshake checks
	// out: /readyz answers 503 while the topology probe retries, so load
	// balancers keep traffic off a mis-wired or still-starting fleet.
	if coord != nil {
		srv.SetReady(false)
		go func() {
			for {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				err := coord.CheckTopology(ctx)
				cancel()
				if err == nil {
					srv.SetReady(true)
					logger.Info("topology verified", "workers", coord.NumWorkers())
					return
				}
				logger.Warn("topology check failed, retrying", "err", err)
				time.Sleep(time.Second)
			}
		}()
	}

	if *pprofAddr != "" {
		go servePprof(logger, *pprofAddr)
	}

	dt := *drainTimeout
	if dt <= 0 {
		dt = 10 * time.Second
	}
	hs := &http.Server{Addr: *addr, Handler: srv}
	done := make(chan struct{})
	var drained bool // written before close(done), read after <-done
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// Drain order: flip /readyz to 503 and reject new query work
		// first (BeginDrain), so load balancers route away while
		// hs.Shutdown waits out the in-flight requests under the drain
		// budget. /healthz keeps answering 200 the whole way down — the
		// process is healthy, just leaving.
		logger.Info("draining", "timeout", dt.String())
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), dt)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		} else {
			drained = true
			logger.Info("drained")
		}
	}()

	logger.Info("serving",
		"addr", *addr,
		"source", startup.Source,
		"open_ms", startup.OpenMS,
		"shards", *shards,
		"slow_query_ms", *slowMS,
		"access_log", *accessLog,
		"max_queue_wait", maxQueueWait.String(),
		"mem_soft_limit", memSoftBytes,
		"drain_timeout", dt.String(),
	)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(logger, "listen", err)
	}
	<-done
	// Release the snapshot file or mapping only after a clean drain: if
	// Shutdown timed out, a straggling request may still hold zero-copy
	// views into the mapping, and unmapping under it would turn a slow
	// drain into a crash. Process exit releases it either way.
	if drained {
		// The live engine first: it stops the compactor, flushes and
		// closes the WAL, and releases every generation snapshot. Closing
		// the boot database afterwards is an idempotent no-op when Live
		// already owned its snapshot.
		if live != nil {
			if err := live.Close(); err != nil {
				logger.Error("closing write path", "err", err)
			}
		}
		if err := db.Close(); err != nil {
			logger.Error("closing snapshot", "err", err)
		}
	} else if *snapPath != "" {
		logger.Warn("snapshot left open: requests still draining at exit")
	}
}

// removedFlags are the coordinator flags of the scatter-gather, which a
// routing coordinator has no use for. Naming one is a usage error that
// says so, not the flag package's bare "not defined".
var removedFlags = map[string]string{
	"hedge-after":    "a request goes to one replica at a time",
	"worker-retries": "a failed request moves to each other replica once",
	"retry-backoff":  "a failed request moves to the next replica at once",
	"degraded":       "there are no partial answers: a request fails only when every replica failed",
}

// rejectRemovedFlags exits 2 if args name a removed flag. It runs before
// flag.Parse, which would stop at the first unknown flag with a less
// helpful message.
func rejectRemovedFlags(args []string) {
	for _, a := range args {
		if a == "--" || !strings.HasPrefix(a, "-") {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if why, ok := removedFlags[name]; ok {
			fmt.Fprintf(os.Stderr, "ktpmd: -%s was removed when the coordinator began routing each request to one worker replica: %s\n", name, why)
			os.Exit(2)
		}
	}
}

// parseWorkerEndpoints parses the -workers flag: comma-separated worker
// replica addresses.
func parseWorkerEndpoints(list string) ([]remote.Endpoint, error) {
	if strings.TrimSpace(list) == "" {
		return nil, fmt.Errorf("-workers is required for -role coordinator")
	}
	if strings.Contains(list, "|") {
		return nil, fmt.Errorf("-workers %q: '|' grouped a shard's replicas, and there are no shards any more; list every replica with commas", list)
	}
	var out []remote.Endpoint
	for i, addr := range strings.Split(list, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			return nil, fmt.Errorf("-workers: entry %d has no address", i)
		}
		out = append(out, remote.NewHTTPEndpoint(addr))
	}
	return out, nil
}

// runWorker serves the worker-role HTTP surface (/shard/hello,
// /shard/stream, health, stats, metrics) until SIGINT/SIGTERM.
func runWorker(logger *slog.Logger, db *ktpm.Database, cfg remote.WorkerConfig, addr string, snapshot bool, drainTimeout time.Duration) {
	w, err := remote.NewWorker(db, cfg)
	if err != nil {
		fatal(logger, "worker", err)
	}
	logger.Info("worker mode", "snapshot_identity", w.Hello().Snapshot)
	if drainTimeout <= 0 {
		drainTimeout = 10 * time.Second
	}
	hs := &http.Server{Addr: addr, Handler: w.Handler()}
	done := make(chan struct{})
	var drained bool
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		// SetDraining first: /readyz flips to 503 and every handshake
		// carries draining:true, so coordinators route to other replicas
		// while Shutdown waits out in-flight streams.
		logger.Info("draining", "timeout", drainTimeout.String())
		w.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		} else {
			drained = true
			logger.Info("drained")
		}
	}()
	logger.Info("serving", "addr", addr, "role", "worker")
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(logger, "listen", err)
	}
	<-done
	if drained {
		if err := db.Close(); err != nil {
			logger.Error("closing snapshot", "err", err)
		}
	} else if snapshot {
		logger.Warn("snapshot left open: requests still draining at exit")
	}
}

// parseBytes parses a human-friendly byte size: a bare number is bytes,
// and the binary suffixes KiB/MiB/GiB (or their short K/M/G and
// KB/MB/GB spellings, all treated as binary, case-insensitive) scale it.
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	u := strings.ToUpper(s)
	mult := int64(1)
	for _, sfx := range []struct {
		name string
		m    int64
	}{
		{"KIB", 1 << 10}, {"MIB", 1 << 20}, {"GIB", 1 << 30},
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"B", 1},
	} {
		if strings.HasSuffix(u, sfx.name) {
			mult = sfx.m
			u = strings.TrimSuffix(u, sfx.name)
			break
		}
	}
	n, err := strconv.ParseInt(strings.TrimSpace(u), 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad size %q (want e.g. 512MiB, 2GiB, or bytes)", s)
	}
	return n * mult, nil
}

// newLogger builds the process logger: text for humans, JSON for log
// pipelines, both to stderr so NDJSON query streams on stdout redirects
// stay clean.
func newLogger(jsonLines bool) *slog.Logger {
	if jsonLines {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "err", err)
	os.Exit(1)
}

// servePprof serves net/http/pprof on its own listener, separate from the
// query mux so profiling endpoints are never reachable through the public
// service port. A bare ":port" binds 127.0.0.1; binding a non-loopback
// host is allowed but warned about, since the profile endpoints expose
// heap contents.
func servePprof(logger *slog.Logger, addr string) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		logger.Error("bad -pprof address", "addr", addr, "err", err)
		return
	}
	if host == "" {
		host = "127.0.0.1"
		addr = net.JoinHostPort(host, port)
	}
	if ip := net.ParseIP(host); host != "localhost" && (ip == nil || !ip.IsLoopback()) {
		logger.Warn("-pprof is not a loopback address; profiles expose process memory", "addr", addr)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	logger.Info("pprof listening", "url", "http://"+addr+"/debug/pprof/")
	if err := http.ListenAndServe(addr, mux); err != nil {
		logger.Error("pprof listener", "err", err)
	}
}

func loadDatabase(logger *slog.Logger, graphPath, snapPath string, mode ktpm.SnapshotMode, blockSize int) (*ktpm.Database, server.StartupInfo, error) {
	if snapPath != "" {
		t0 := time.Now()
		db, err := ktpm.OpenSnapshot(snapPath, ktpm.SnapshotOptions{Mode: mode, BlockSize: blockSize})
		if err != nil {
			return nil, server.StartupInfo{}, fmt.Errorf("open snapshot: %w", err)
		}
		elapsed := time.Since(t0)
		ss, _ := db.SnapshotStats()
		entries, tables, _, size := db.ClosureStats()
		logger.Info("snapshot opened",
			"elapsed", elapsed.Round(time.Microsecond).String(),
			"mode", ss.Mode,
			"entries", entries,
			"tables", tables,
			"mb", float64(size)/1e6,
			"tables_resident", ss.TablesLoaded,
		)
		return db, server.StartupInfo{
			Source:       "snapshot",
			SnapshotMode: ss.Mode,
			OpenMS:       float64(elapsed.Microseconds()) / 1000,
		}, nil
	}
	f, err := os.Open(graphPath)
	if err != nil {
		return nil, server.StartupInfo{}, err
	}
	defer f.Close()
	g, err := ktpm.LoadGraph(f)
	if err != nil {
		return nil, server.StartupInfo{}, fmt.Errorf("load graph: %w", err)
	}
	t0 := time.Now()
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{BlockSize: blockSize})
	if err != nil {
		return nil, server.StartupInfo{}, fmt.Errorf("build database: %w", err)
	}
	elapsed := time.Since(t0)
	entries, tables, theta, size := db.ClosureStats()
	logger.Info("closure built",
		"nodes", g.NumNodes(),
		"edges", g.NumEdges(),
		"entries", entries,
		"tables", tables,
		"theta", theta,
		"mb", float64(size)/1e6,
		"elapsed", elapsed.Round(time.Millisecond).String(),
	)
	return db, server.StartupInfo{Source: "graph", OpenMS: float64(elapsed.Microseconds()) / 1000}, nil
}
