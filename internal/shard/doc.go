// Package shard partitions the match space of one prepared database
// across N shards and accounts each answer to them.
//
// # Partitioning axis
//
// Every tree-pattern match binds the query root to exactly one data node,
// so assigning each data-graph vertex to one shard (the Partitioner
// interface) induces a partition of the match space itself: shard i owns
// precisely the matches whose root binding it owns. Candidates for
// non-root query positions are never restricted; a match rooted in shard
// i may bind descendants to vertices owned by any shard.
//
// # One enumeration
//
// The shards own no data and no work of their own. Topk-EN pays its
// O(m_R) setup — D tables for every query edge, leaf activation, E-table
// seeding — once per enumerator, so N root-filtered enumerators over one
// closure pay it N times; BenchmarkShardedTopK found no (k, cores) point
// where that bought time back (docs/DISTRIBUTED.md has the rule and the
// table). A query therefore runs one enumerator over the shared store,
// behind the same lazy.Merge that orders an unsharded answer, and the
// answer is byte-identical for every shard count and partitioner. Each
// match the merge takes — after TopK(q, k), every match at or below the
// k-th score — is credited to the shard owning its root binding, which
// is what Merged and /stats report. Shards that own data and run apart
// are internal/remote's workers.
package shard
