package ktpm

import (
	"fmt"
	"strings"

	"ktpm/internal/graph"
	"ktpm/internal/lazy"
	"ktpm/internal/shard"
)

// Partitioner assigns every data-graph vertex to one of n shards of a
// ShardedDatabase, fixing which shard enumerates the matches rooted at
// that vertex. Implementations must be deterministic.
type Partitioner interface {
	// Partition returns the shard assignment: out[v] in [0, n) for every
	// node v of g.
	Partition(g *Graph, n int) []int32
	// Name identifies the strategy in flags, logs, and /stats.
	Name() string
}

// PartitionByHash returns the default partitioner: vertices spread by a
// multiplicative hash of their IDs. Total vertex counts balance well, but
// a rare label's candidates can clump onto few shards.
func PartitionByHash() Partitioner { return hashPartitioner{} }

// PartitionByLabel returns the label-aware partitioner: each label's
// vertices are dealt round-robin across shards, so the root-candidate set
// of any query label splits near-evenly regardless of label skew.
func PartitionByLabel() Partitioner { return labelPartitioner{} }

// ParsePartitioner resolves the CLI/service spelling of a partitioner
// name ("hash", "label", case-insensitive); ok is false for unknown
// names, including the empty string. It accepts the same names as
// shard.Parse (TestParsePartitionerCoversShardParse keeps them in sync).
func ParsePartitioner(name string) (Partitioner, bool) {
	switch strings.ToLower(name) {
	case "hash":
		return hashPartitioner{}, true
	case "label":
		return labelPartitioner{}, true
	}
	return nil, false
}

type hashPartitioner struct{}

func (hashPartitioner) Partition(g *Graph, n int) []int32 { return shard.Hash{}.Partition(g.g, n) }
func (hashPartitioner) Name() string                      { return shard.Hash{}.Name() }

type labelPartitioner struct{}

func (labelPartitioner) Partition(g *Graph, n int) []int32 {
	return shard.LabelBalanced{}.Partition(g.g, n)
}
func (labelPartitioner) Name() string { return shard.LabelBalanced{}.Name() }

// partitionerAdapter lets a user-supplied Partitioner (over the public
// Graph) drive the internal shard machinery.
type partitionerAdapter struct{ p Partitioner }

func (a partitionerAdapter) Partition(g *graph.Graph, n int) []int32 {
	return a.p.Partition(&Graph{g: g}, n)
}
func (a partitionerAdapter) Name() string { return a.p.Name() }

// ShardedDatabase partitions a Database's match space across n shards and
// scatter-gathers TopK across them: every match binds the query root to
// exactly one data node, so assigning each vertex to one shard splits the
// match space disjointly; each shard enumerates its slice concurrently
// (over a private store replica, so shards share no locks and keep their
// own I/O counters) and a bounded streaming k-way merge gathers the
// global top k, ceasing to pull from a shard once its best possible
// remaining score cannot beat the current k-th result.
//
// Results are deterministic: all matches scoring strictly below the k-th
// score are included and equal scores order by node bindings, so the
// answer is byte-identical for every shard count and partitioner. A
// ShardedDatabase is safe for concurrent use, like the Database it wraps,
// which remains valid and may keep serving unsharded queries.
type ShardedDatabase struct {
	db *Database
	sd *shard.DB
}

// Shard partitions db's match space across n shards using p (nil means
// PartitionByHash). The transitive closure is shared, not recomputed:
// only per-shard store caches and counters are allocated.
func (db *Database) Shard(n int, p Partitioner) (*ShardedDatabase, error) {
	if n < 1 {
		return nil, fmt.Errorf("ktpm: shard count %d, want >= 1", n)
	}
	if p == nil {
		p = PartitionByHash()
	}
	sd, err := shard.New(db.st, n, partitionerAdapter{p})
	if err != nil {
		return nil, fmt.Errorf("ktpm: %w", err)
	}
	return &ShardedDatabase{db: db, sd: sd}, nil
}

// NumShards returns the shard count.
func (s *ShardedDatabase) NumShards() int { return s.sd.NumShards() }

// Graph returns the underlying data graph.
func (s *ShardedDatabase) Graph() *Graph { return s.db.Graph() }

// ParseQuery parses the compact tree syntax; see Database.ParseQuery.
func (s *ShardedDatabase) ParseQuery(qs string) (*Query, error) { return s.db.ParseQuery(qs) }

// Explain analyzes q without enumerating matches; see Database.Explain.
// The plan describes the shared closure, which sharding does not change.
func (s *ShardedDatabase) Explain(q *Query) (*Plan, error) { return s.db.Explain(q) }

// TopK returns the k best matches, scatter-gathered across the shards
// with Topk-EN.
func (s *ShardedDatabase) TopK(q *Query, k int) ([]Match, error) {
	return s.TopKWith(q, k, Options{})
}

// TopKWith returns the k best matches under opt, scatter-gathered across
// the shards; a RootFilter composes with (restricts within) shard
// ownership.
func (s *ShardedDatabase) TopKWith(q *Query, k int, opt Options) ([]Match, error) {
	if q == nil || q.t == nil {
		return nil, fmt.Errorf("ktpm: nil query")
	}
	if k < 0 {
		return nil, fmt.Errorf("ktpm: negative k")
	}
	ms := s.sd.TopKOpts(q.t, k, lazy.Options{RootFilter: opt.RootFilter, Trace: opt.Trace})
	return detach(ms, q.NumNodes()), nil
}

// TopKBatch answers many queries in one call; see Database.TopKBatch.
// Every item scatter-gathers across the shards and warms the shared
// derived-data plane, so a batch derives each distinct table at most
// once no matter how many items touch it.
func (s *ShardedDatabase) TopKBatch(items []BatchItem) []BatchResult {
	return runBatch(items, s.IOStats, s.TopKWith)
}

// ShardStream incrementally enumerates matches scatter-gathered across
// the shards in the canonical order ShardedDatabase.TopK returns:
// non-decreasing score, equal scores ordered by node bindings. Drained
// to any k it is byte-identical to TopK(q, k). Close stops the per-shard
// producer goroutines; consumers that do not drain to exhaustion must
// call it (defer st.Close() is the idiom).
type ShardStream struct {
	st *shard.Stream
}

// Stream opens an incremental scatter-gather enumeration of q.
func (s *ShardedDatabase) Stream(q *Query) (*ShardStream, error) {
	return s.StreamWith(q, Options{})
}

// StreamWith is Stream with options: RootFilter composes with shard
// ownership.
func (s *ShardedDatabase) StreamWith(q *Query, opt Options) (*ShardStream, error) {
	if q == nil || q.t == nil {
		return nil, fmt.Errorf("ktpm: nil query")
	}
	return &ShardStream{st: s.sd.Stream(q.t, lazy.Options{RootFilter: opt.RootFilter, Trace: opt.Trace})}, nil
}

// OpenStream is StreamWith behind the MatchStream interface; see
// Database.OpenStream.
func (s *ShardedDatabase) OpenStream(q *Query, opt Options) (MatchStream, error) {
	return s.StreamWith(q, opt)
}

// Next returns the next match in canonical order; ok is false when the
// space is exhausted or the stream is closed.
func (ss *ShardStream) Next() (Match, bool) {
	m, ok := ss.st.Next()
	if !ok {
		return Match{}, false
	}
	return Match{Nodes: m.Nodes, Score: m.Score}, true
}

// Close stops the per-shard producers. Idempotent.
func (ss *ShardStream) Close() { ss.st.Close() }

// IOStats returns the simulated-I/O counters summed over every shard
// store, which serve all enumeration. TablesLoaded and
// SnapshotBytesMapped come from the wrapped Database: the layout (and
// with it the snapshot backing) is shared by every shard replica, so
// they are properties of the database, not sums.
func (s *ShardedDatabase) IOStats() IOStats {
	c := s.sd.Counters()
	base := s.db.IOStats()
	return IOStats{
		BlocksRead:          c.BlocksRead,
		EntriesRead:         c.EntriesRead,
		TableEntriesRead:    c.TableEntriesRead,
		TablesRead:          c.TablesRead,
		TableHits:           c.TableHits,
		TablesLoaded:        base.TablesLoaded,
		SnapshotBytesMapped: base.SnapshotBytesMapped,
	}
}

// SnapshotStats reports the wrapped Database's snapshot backing (the
// layout is shared by every shard replica, so there is exactly one); ok
// is false when the database was not opened from a snapshot.
func (s *ShardedDatabase) SnapshotStats() (SnapshotStats, bool) { return s.db.SnapshotStats() }

// ShardStats describes one shard of a ShardedDatabase in /stats.
type ShardStats struct {
	// Vertices is how many data-graph vertices the shard owns, i.e. how
	// many root bindings it is responsible for.
	Vertices int `json:"vertices"`
	// Merged counts the matches scatter-gather merges have taken from
	// this shard: after one TopK(q, k), its matches scoring at or below
	// the k-th score.
	Merged int64 `json:"merged"`
	// IO is the shard store's private simulated-I/O counters.
	IO IOStats `json:"io"`
}

// ShardingStats summarizes a ShardedDatabase for /stats.
type ShardingStats struct {
	Shards      int          `json:"shards"`
	Partitioner string       `json:"partitioner"`
	PerShard    []ShardStats `json:"per_shard"`
}

// ShardStats returns the per-shard counters.
func (s *ShardedDatabase) ShardStats() ShardingStats {
	st := ShardingStats{
		Shards:      s.sd.NumShards(),
		Partitioner: s.sd.PartitionerName(),
		PerShard:    make([]ShardStats, s.sd.NumShards()),
	}
	for i := range st.PerShard {
		c := s.sd.ShardCounters(i)
		st.PerShard[i] = ShardStats{
			Vertices: s.sd.ShardSize(i),
			Merged:   s.sd.Merged(i),
			IO: IOStats{
				BlocksRead:       c.BlocksRead,
				EntriesRead:      c.EntriesRead,
				TableEntriesRead: c.TableEntriesRead,
				TablesRead:       c.TablesRead,
				TableHits:        c.TableHits,
			},
		}
	}
	return st
}
