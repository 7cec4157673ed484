// Package server implements the ktpmd query service: an HTTP JSON API
// over one shared read-only query backend — a ktpm.Database, or a
// ktpm.ShardedDatabase when the daemon runs with -shards.
//
// Endpoints (full request/response reference in docs/API.md):
//
//	GET/POST /query?q=a(b,c)&k=10  — top-k matches (Topk-EN)
//	GET/POST /explain?q=a(b,c)     — query plan, no enumeration
//	GET      /stats                — cache/executor/I-O counters (JSON)
//	GET      /metrics              — the same counters, Prometheus text format
//	GET      /healthz              — liveness probe
//
// Three serving concerns layer over the library:
//
//   - Concurrency: a fixed worker pool executes queries, so at most
//     Config.Concurrency query executions are resident at once regardless
//     of the HTTP connection count. (On a distributed coordinator an
//     execution is one worker round trip; the pool still bounds how many
//     requests execute simultaneously.)
//   - Admission control: a bounded queue in front of the pool sheds
//     overload with 503 instead of queueing unboundedly, and each request
//     carries a deadline (504 on expiry; a request that times out while
//     still queued is dropped without ever occupying a worker).
//   - Result caching: answers are memoized in an LRU keyed by
//     (canonical query, k). The backend is immutable after startup, so
//     cached answers never go stale; the canonical key means "a(b,c)"
//     and "a(c,b)" share one entry. Concurrent identical misses coalesce
//     onto one in-flight computation.
//
// The Backend interface is the exact query surface these layers need;
// serving a sharded database is transparent to every endpoint except
// /stats and /metrics, which additionally report per-shard match counts.
package server
