package server

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"ktpm/internal/obs"
	"ktpm/internal/remote"
)

// handleMetrics exposes the same counters as /stats in the Prometheus
// text exposition format (version 0.0.4), hand-rendered so the daemon
// stays dependency-free. Counter semantics mirror StatsResponse; the
// per-shard series carry a shard="i" label when the backend is sharded.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("ktpmd_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())
	bi := buildInfo()
	fmt.Fprintf(&b, "# HELP ktpmd_build_info Build identity of the binary (value is always 1).\n# TYPE ktpmd_build_info gauge\nktpmd_build_info{version=%q,go=%q} 1\n", bi.Version, bi.Go)
	g := s.db.Graph()
	gauge("ktpmd_graph_nodes", "Data graph node count.", float64(g.NumNodes()))
	gauge("ktpmd_graph_edges", "Data graph edge count.", float64(g.NumEdges()))

	counter("ktpmd_queries_total", "Successful /query responses, including cache hits.", s.queries.Load())
	counter("ktpmd_explains_total", "Successful /explain responses.", s.explains.Load())
	counter("ktpmd_errors_total", "Responses with any 4xx/5xx status.", s.errors.Load())
	counter("ktpmd_coalesced_total", "Queries served by joining another request's in-flight computation.", s.coalesced.Load())
	counter("ktpmd_rejected_total", "Requests shed with 503 by admission control.", s.rejected.Load())
	counter("ktpmd_timed_out_total", "Requests expired with 504.", s.timedOut.Load())
	counter("ktpmd_client_disconnects_total", "Requests whose client went away before the result (499).", s.clientGone.Load())

	counter("ktpmd_batches_total", "Successful /batch responses.", s.batches.Load())
	counter("ktpmd_batch_items_total", "Items across successful /batch responses.", s.batchItems.Load())
	counter("ktpmd_batch_computed_total", "Batch items that ran an enumeration.", s.batchComputed.Load())
	counter("ktpmd_batch_deduped_total", "Batch items served by an identical item in the same batch.", s.batchDeduped.Load())
	counter("ktpmd_batch_cache_hits_total", "Batch items served from the result cache.", s.batchCacheHits.Load())
	counter("ktpmd_batch_item_errors_total", "Items that failed inside an otherwise-successful batch.", s.batchItemErrs.Load())

	counter("ktpmd_streams_total", "/stream responses started.", s.streams.Load())
	counter("ktpmd_stream_matches_total", "NDJSON match lines written by /stream.", s.streamMatches.Load())
	counter("ktpmd_stream_truncated_max_total", "Streams truncated by the max-matches guard.", s.streamMaxHits.Load())
	counter("ktpmd_stream_truncated_deadline_total", "Streams truncated by the request deadline.", s.streamDeadlineHits.Load())
	counter("ktpmd_stream_disconnects_total", "Streams stopped by a mid-stream client disconnect.", s.streamDisconnects.Load())

	fmt.Fprintf(&b, "# HELP ktpmd_shed_total Requests shed by the overload-protection layer, by reason.\n# TYPE ktpmd_shed_total counter\n")
	fmt.Fprintf(&b, "ktpmd_shed_total{reason=%q} %d\n", shedReasonDeadline, s.shedDeadline.Load())
	fmt.Fprintf(&b, "ktpmd_shed_total{reason=%q} %d\n", shedReasonBrownout, s.shedBrownout.Load())
	fmt.Fprintf(&b, "ktpmd_shed_total{reason=%q} %d\n", shedReasonMemory, s.shedMemory.Load())
	fmt.Fprintf(&b, "ktpmd_shed_total{reason=%q} %d\n", shedReasonDrain, s.shedDrain.Load())
	counter("ktpmd_body_too_large_total", "POST bodies rejected with 413 by the max-body-bytes cap.", s.tooLarge.Load())
	gauge("ktpmd_brownout_stage", "Brownout stage: 0 serving everything, 1 shedding uncached /batch and /stream.", float64(s.brown.stage.Load()))
	counter("ktpmd_brownout_transitions_total", "Brownout stage changes in either direction.", s.brown.transitions.Load())
	gauge("ktpmd_draining", "1 after BeginDrain: /readyz is 503 and new requests are rejected.", boolGauge(s.draining.Load()))
	gauge("ktpmd_max_queue_wait_seconds", "Predictive admission budget (0 = disabled).", s.adm.maxWait.Seconds())
	gauge("ktpmd_est_queue_wait_seconds", "Predicted queue wait for a task admitted now.", s.adm.estWait(s.exec.queued.Load()).Seconds())
	fmt.Fprintf(&b, "# HELP ktpmd_cost_ewma_seconds Moving execution-cost estimate by endpoint family (pooled prices the shared queue).\n# TYPE ktpmd_cost_ewma_seconds gauge\n")
	fmt.Fprintf(&b, "ktpmd_cost_ewma_seconds{endpoint=\"pooled\"} %g\n", s.adm.pooled.get().Seconds())
	for _, ep := range []string{"query", "explain", "batch", "stream", "ingest"} {
		fmt.Fprintf(&b, "ktpmd_cost_ewma_seconds{endpoint=%q} %g\n", ep, s.adm.endpoint[ep].get().Seconds())
	}
	counter("ktpmd_panics_total", "Enumeration panics recovered into 500s.", s.quar.panics.Load())
	counter("ktpmd_quarantine_hits_total", "Requests fast-failed because their canonical query is quarantined.", s.quar.hits.Load())
	gauge("ktpmd_quarantine_entries", "Canonical queries currently quarantined.", float64(s.quar.size()))
	if s.mem != nil {
		gauge("ktpmd_mem_soft_limit_bytes", "Heap soft limit the memory watcher degrades against.", float64(s.mem.soft))
		gauge("ktpmd_mem_heap_bytes", "Live heap bytes at the watcher's last sample.", float64(s.mem.heapBytes.Load()))
		gauge("ktpmd_mem_stage", "Memory backpressure stage: 0 normal, 1 cache shrinking, 2 admission off, 3 shedding non-cached requests.", float64(s.mem.stage.Load()))
		counter("ktpmd_mem_cache_shrinks_total", "Cache capacity halvings applied by the memory watcher.", s.mem.shrinks.Load())
		counter("ktpmd_mem_transitions_total", "Memory stage changes in either direction.", s.mem.transitions.Load())
	}

	cs := s.cache.Stats()
	counter("ktpmd_cache_hits_total", "Result cache hits.", cs.Hits)
	counter("ktpmd_cache_misses_total", "Result cache misses.", cs.Misses)
	counter("ktpmd_cache_evictions_total", "Result cache evictions.", cs.Evictions)
	gauge("ktpmd_cache_entries", "Result cache current entries.", float64(cs.Entries))
	gauge("ktpmd_cache_capacity", "Result cache capacity.", float64(cs.Capacity))
	gauge("ktpmd_cache_admission_min_entries", "Cost-aware admission threshold in store entries (0 = admit all).", float64(s.cfg.CacheMinEntries))
	counter("ktpmd_cache_admitted_total", "Results cached after passing cost-aware admission.", s.cacheAdmitted.Load())
	counter("ktpmd_cache_bypassed_total", "Results returned but not cached: cost below the admission threshold.", s.cacheBypassed.Load())

	gauge("ktpmd_executor_workers", "Worker pool size.", float64(s.cfg.Concurrency))
	gauge("ktpmd_executor_queue_depth", "Admission queue capacity.", float64(s.cfg.QueueDepth))
	gauge("ktpmd_executor_in_flight", "Queries currently executing.", float64(s.exec.inFlight.Load()))
	gauge("ktpmd_executor_queued", "Queries admitted but not yet started.", float64(s.exec.queued.Load()))
	counter("ktpmd_executor_canceled_total", "Queued tasks dropped after their deadline expired.", s.exec.canceled.Load())

	io := s.db.IOStats()
	counter("ktpmd_io_blocks_read_total", "Simulated random block reads from incoming lists.", io.BlocksRead)
	counter("ktpmd_io_entries_read_total", "Simulated entries delivered (blocks plus tables).", io.EntriesRead)
	counter("ktpmd_io_table_entries_read_total", "Simulated entries delivered by summary-table scans.", io.TableEntriesRead)
	counter("ktpmd_io_tables_read_total", "Summary tables derived from the simulated disk (once per distinct table process-wide).", io.TablesRead)
	counter("ktpmd_io_table_hits_total", "Table loads served from the shared derived plane without disk I/O.", io.TableHits)
	counter("ktpmd_io_tables_loaded_total", "Closure tables materialized from the table source into the store layout.", io.TablesLoaded)

	if s.obs != nil {
		writeHistogram(&b, "ktpmd_request_duration_seconds",
			"End-to-end request latency by endpoint.", "endpoint", s.obs.endpoints)
		writeHistogram(&b, "ktpmd_stage_duration_seconds",
			"Request latency attributed to pipeline stages (parse, admission_wait, cache_probe, enumerate, shard_merge, table_fault, remote_merge, encode).",
			"stage", s.obs.stages)
	}

	gauge("ktpmd_startup_open_ms", "Wall time spent building or opening the database at startup.", s.cfg.Startup.OpenMS)
	if sn, ok := s.db.(snapshotStater); ok {
		if st, ok := sn.SnapshotStats(); ok {
			fmt.Fprintf(&b, "# HELP ktpmd_snapshot_info Snapshot backing of the database (value is always 1).\n# TYPE ktpmd_snapshot_info gauge\nktpmd_snapshot_info{mode=%q} 1\n", st.Mode)
			gauge("ktpmd_snapshot_tables_loaded", "Closure tables faulted from the snapshot so far.", float64(st.TablesLoaded))
			gauge("ktpmd_snapshot_tables_total", "Closure tables in the snapshot directory.", float64(st.TablesTotal))
			gauge("ktpmd_snapshot_bytes_mapped", "Live memory-mapped snapshot bytes (0 unless mode is mmap).", float64(st.BytesMapped))
		}
	}

	if li, ok := s.db.(liveBackend); ok {
		st := li.IngestStats()
		counter("ktpmd_ingest_batches_total", "Ingest batches acknowledged (WAL-durable and published).", int64(st.AckedBatches))
		counter("ktpmd_ingest_edges_total", "Edges across acknowledged ingest batches.", int64(st.AckedEdges))
		counter("ktpmd_ingest_rejected_total", "Ingest batches refused by validation.", int64(st.RejectedBatches))
		gauge("ktpmd_ingest_epoch", "Serving-state publishes: one per acked batch plus one per compaction swap.", float64(st.Epoch))
		gauge("ktpmd_ingest_last_lsn", "Newest acknowledged log sequence number.", float64(st.LastLSN))
		fmt.Fprintf(&b, "# HELP ktpmd_ingest_stage_seconds_total Wall time the write path has spent per stage: wal_append, closure_delta, merge, publish per acked batch; compact_write, compact_reopen, compact_swap per compaction.\n# TYPE ktpmd_ingest_stage_seconds_total counter\n")
		for _, sg := range []struct {
			name string
			ns   int64
		}{
			{"wal_append", st.StageNS.WALAppend}, {"closure_delta", st.StageNS.ClosureDelta},
			{"merge", st.StageNS.Merge}, {"publish", st.StageNS.Publish},
			{"compact_write", st.StageNS.CompactWrite}, {"compact_reopen", st.StageNS.CompactReopen},
			{"compact_swap", st.StageNS.CompactSwap},
		} {
			fmt.Fprintf(&b, "ktpmd_ingest_stage_seconds_total{stage=%q} %g\n", sg.name, float64(sg.ns)/1e9)
		}

		fmt.Fprintf(&b, "# HELP ktpmd_wal_info Write-ahead log configuration (value is always 1).\n# TYPE ktpmd_wal_info gauge\nktpmd_wal_info{fsync=%q} 1\n", st.WAL.FsyncPolicy)
		counter("ktpmd_wal_appends_total", "Records appended to the write-ahead log.", st.WAL.Appends)
		counter("ktpmd_wal_fsyncs_total", "fsync calls issued by the write-ahead log.", st.WAL.Fsyncs)
		gauge("ktpmd_wal_segments", "Live write-ahead log segment files.", float64(st.WAL.Segments))
		gauge("ktpmd_wal_size_bytes", "Total bytes across live write-ahead log segments.", float64(st.WAL.Bytes))
		gauge("ktpmd_wal_recovered_records", "Records replayed from the log at the last open.", float64(st.WAL.RecoveredRecords))
		gauge("ktpmd_wal_torn_bytes_truncated", "Trailing bytes of a torn record cut from the final segment at the last open.", float64(st.WAL.TornBytesTruncated))

		gauge("ktpmd_overlay_entries", "Closure pairs held by the in-memory epoch overlay awaiting compaction.", float64(st.Overlay.Entries))
		gauge("ktpmd_overlay_tables", "Label-pair tables the overlay touches.", float64(st.Overlay.Tables))
		gauge("ktpmd_overlay_edges_applied", "Edges folded into the overlay since the last compaction.", float64(st.Overlay.EdgesApplied))
		gauge("ktpmd_overlay_pending_batches", "Acked batches not yet drained into a compacted generation.", float64(st.Overlay.PendingBatches))
		gauge("ktpmd_overlay_watermark", "Last LSN captured by the current base generation.", float64(st.Overlay.Watermark))

		counter("ktpmd_compaction_total", "Completed snapshot compactions this process.", int64(st.Compaction.Count))
		gauge("ktpmd_compaction_generation", "Current base snapshot generation (0 is the boot base).", float64(st.Compaction.Generation))
		gauge("ktpmd_compaction_threshold", "Overlay entry count that triggers a compaction (0 or negative disables).", float64(st.Compaction.Threshold))
		gauge("ktpmd_compaction_in_progress", "1 while a compaction is running.", boolGauge(st.Compaction.InProgress))
		gauge("ktpmd_compaction_last_seconds", "Wall time of the last completed compaction.", st.Compaction.LastMS/1e3)
	}

	if ss, ok := s.db.(shardStater); ok {
		st := ss.ShardStats()
		gauge("ktpmd_shards", "Shard count of the sharded backend.", float64(st.Shards))
		fmt.Fprintf(&b, "# HELP ktpmd_shard_vertices Data-graph vertices owned by each shard.\n# TYPE ktpmd_shard_vertices gauge\n")
		for i, ps := range st.PerShard {
			fmt.Fprintf(&b, "ktpmd_shard_vertices{shard=%q,partitioner=%q} %d\n", fmt.Sprint(i), st.Partitioner, ps.Vertices)
		}
		fmt.Fprintf(&b, "# HELP ktpmd_shard_merged_total Matches answers took (top-k: at or below the k-th score) whose root binding each shard owns.\n# TYPE ktpmd_shard_merged_total counter\n")
		for i, ps := range st.PerShard {
			fmt.Fprintf(&b, "ktpmd_shard_merged_total{shard=%q} %d\n", fmt.Sprint(i), ps.Merged)
		}
	}

	if cs, ok := s.db.(coordinatorStater); ok {
		st := cs.CoordinatorStats()
		gauge("ktpmd_workers", "Worker replicas the distributed coordinator routes across.", float64(len(st.Workers)))
		perWorker := func(name, help, typ string, v func(remote.WorkerStat) int64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			for i, ws := range st.Workers {
				fmt.Fprintf(&b, "%s{worker=%q} %d\n", name, fmt.Sprint(i), v(ws))
			}
		}
		perWorker("ktpmd_worker_requests_total", "Stream opens attempted against each worker replica, failovers included.", "counter",
			func(ws remote.WorkerStat) int64 { return ws.Requests })
		perWorker("ktpmd_worker_failures_total", "Stream attempts that failed (connect, handshake, or mid-stream).", "counter",
			func(ws remote.WorkerStat) int64 { return ws.Failures })
		perWorker("ktpmd_worker_streamed_matches_total", "Matches handed on from each worker replica.", "counter",
			func(ws remote.WorkerStat) int64 { return ws.Matches })
		perWorker("ktpmd_worker_breaker_opens_total", "Circuit-breaker open transitions of each worker replica.", "counter",
			func(ws remote.WorkerStat) int64 { return ws.Breaker.Opens })
		perWorker("ktpmd_worker_breaker_tripped", "1 while the worker replica's breaker is open or half-open.", "gauge",
			func(ws remote.WorkerStat) int64 { return int64(boolGauge(ws.Breaker.State != "closed")) })
		perWorker("ktpmd_worker_draining_endpoints", "1 while the worker replica's last handshake carried the drain marker.", "gauge",
			func(ws remote.WorkerStat) int64 { return int64(boolGauge(ws.Draining)) })
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}

// boolGauge renders a bool as the 0/1 gauge value Prometheus expects.
func boolGauge(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// writeHistogram renders one labeled histogram family from the obs
// histograms: a _bucket series per DefaultBounds le (cumulative counts
// are exact because the bounds are aligned to bucket upper bounds), the
// mandatory +Inf bucket, and _sum/_count. Series are emitted in sorted
// label order so consecutive scrapes are diffable.
func writeHistogram(b *strings.Builder, name, help, label string, hs map[string]*obs.Histogram) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	keys := make([]string, 0, len(hs))
	for k := range hs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bounds := obs.DefaultBounds()
	for _, k := range keys {
		sn := hs[k].Snapshot()
		for _, bound := range bounds {
			fmt.Fprintf(b, "%s_bucket{%s=%q,le=%q} %d\n",
				name, label, k, strconv.FormatFloat(bound.Seconds(), 'g', -1, 64), sn.CumulativeLE(bound))
		}
		fmt.Fprintf(b, "%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, k, sn.Count)
		fmt.Fprintf(b, "%s_sum{%s=%q} %g\n", name, label, k, float64(sn.Sum)/1e9)
		fmt.Fprintf(b, "%s_count{%s=%q} %d\n", name, label, k, sn.Count)
	}
}
