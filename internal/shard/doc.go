// Package shard partitions the match space of one prepared database
// across N shards and scatter-gathers top-k queries over them.
//
// # Partitioning axis
//
// Every tree-pattern match binds the query root to exactly one data node,
// so assigning each data-graph vertex to one shard (the Partitioner
// interface) induces a partition of the match space itself: shard i owns
// precisely the matches whose root binding it owns. Restricting the lazy
// enumerator with a root filter (lazy.Options.RootFilter) therefore makes
// the shards' emissions disjoint, each sorted by score, and their union
// exactly the unrestricted enumeration — the invariant the merge relies
// on. Candidates for non-root query positions are never restricted; a
// match rooted in shard i may bind descendants to vertices owned by any
// shard.
//
// # Per-shard stores
//
// The transitive closure is computed once and shared read-only. Each
// shard owns a store.Replica that shares the base store's immutable
// layout and its derived-data plane, so D/E tables and wildcard merges
// are derived once process-wide whatever the shard count. Only the
// simulated-I/O counters are private, which is how /stats reports I/O
// per shard as well as in aggregate.
//
// # Scatter-gather merge
//
// A query runs one enumerator goroutine per shard, each handing
// score-ordered chunks into a bounded channel, and gathers them with
// lazy.Merge — the same k-way merge that orders a single database's
// answer and a coordinator's remote workers. The merge takes the
// smallest head, stops pulling once no shard's head can beat the k-th
// result, drains the k-th score's tie group, and orders equal scores by
// node bindings, so the answer is byte-identical across shard counts and
// partitioners. At one shard the enumerator is the merge's only source
// and no goroutine runs.
package shard
