// Package ktpm is a library for top-k tree and graph pattern matching over
// node-labeled directed graphs, reproducing "Optimal Enumeration: Efficient
// Top-k Tree Matching" (Chang et al., PVLDB 8(5), 2015).
//
// Given a rooted query tree T and a data graph G, a tree pattern match
// maps every query node to a data node with the same label and every query
// edge to a directed path; its penalty score is the sum of shortest-path
// distances over the query edges. The library returns the k matches with
// the lowest scores, in non-decreasing score order.
//
// # Quick start
//
//	gb := ktpm.NewGraphBuilder()
//	a := gb.AddNode("a")
//	b := gb.AddNode("b")
//	gb.AddEdge(a, b)
//	g, _ := gb.Build()
//	db, _ := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
//	q, _ := db.ParseQuery("a(b)")
//	matches, _ := db.TopK(q, 10)
//
// # Algorithm
//
// Every TopK and Stream call runs Topk-EN, Algorithm 3 of the paper:
// optimal Lawler enumeration over a lazily, priority-order loaded
// run-time graph, emitting matches in one canonical order. The paper's
// comparison baselines — Algorithm 1 (Topk) over a fully materialized
// run-time graph, and the dynamic-programming DP-B and DP-P of Gou &
// Chirkova (SIGMOD'08) — are not served; they live in the reproduction
// harness (cmd/benchkit), which runs all four side by side.
//
// Queries support '//' (ancestor-descendant) and '/' (parent-child) edges,
// duplicate labels, and wildcard (*) nodes; see ParseQuery. Top-k matching
// of general graph-shaped patterns (kGPM) is exposed via GraphTopK, which
// runs Topk-EN inside the spanning-tree framework of Cheng et al. (mtree+).
//
// # Scaling out
//
// Database.Shard partitions the match space across N shards by root
// binding and credits each match to its shard; see ShardedDatabase.
// Process-level shards are internal/remote's workers. A Database and
// every ShardedDatabase built from it are safe for concurrent use.
//
// # Snapshots
//
// The offline closure computation is paid once: SaveSnapshot writes a
// page-aligned, offset-indexed KTPMSNAP2 image (per-table to/dist/from
// columns, the layout the store carves from without a transpose, behind
// a required CRC32C trailer) that OpenSnapshot can reopen eagerly, lazily
// (tables fault in on first touch), or via mmap (zero-copy column views)
// — the lazy modes open in O(directory) time, so a daemon restart over a
// big graph is near-instant. All modes answer queries byte-identically to
// BuildDatabase.
package ktpm

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"ktpm/internal/closure"
	"ktpm/internal/core"
	"ktpm/internal/graph"
	"ktpm/internal/kgpm"
	"ktpm/internal/lazy"
	"ktpm/internal/obs"
	"ktpm/internal/query"
	"ktpm/internal/rtg"
	"ktpm/internal/store"
)

// Graph is an immutable node-labeled directed data graph.
type Graph struct {
	g *graph.Graph
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return g.g.NumNodes() }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int { return g.g.NumEdges() }

// LabelOf returns the label of node v.
func (g *Graph) LabelOf(v int32) string { return g.g.LabelName(v) }

// GraphBuilder accumulates a graph before freezing it.
type GraphBuilder struct {
	b *graph.Builder
}

// NewGraphBuilder returns an empty builder.
func NewGraphBuilder() *GraphBuilder {
	return &GraphBuilder{b: graph.NewBuilder()}
}

// AddNode appends a node with the given label and returns its ID.
func (gb *GraphBuilder) AddNode(label string) int32 { return gb.b.AddNode(label) }

// AddEdge appends a unit-weight directed edge.
func (gb *GraphBuilder) AddEdge(from, to int32) { gb.b.AddEdge(from, to) }

// AddWeightedEdge appends a directed edge with a positive integer weight.
func (gb *GraphBuilder) AddWeightedEdge(from, to, w int32) {
	gb.b.AddWeightedEdge(from, to, w)
}

// SetNodeWeight assigns a non-negative penalty to a node: any match that
// binds a query position to the node adds the penalty to its score (the
// paper's footnote-2 extension of the scoring function). Zero by default.
func (gb *GraphBuilder) SetNodeWeight(v, w int32) { gb.b.SetNodeWeight(v, w) }

// Build validates and freezes the graph.
func (gb *GraphBuilder) Build() (*Graph, error) {
	g, err := gb.b.Build()
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// LoadGraph reads a graph in the library's text format ("n <id> <label>" /
// "e <from> <to> [w]" lines).
func LoadGraph(r io.Reader) (*Graph, error) {
	g, err := graph.Decode(r)
	if err != nil {
		return nil, err
	}
	return &Graph{g: g}, nil
}

// SaveGraph writes g in the text format.
func SaveGraph(w io.Writer, g *Graph) error { return graph.Encode(w, g.g) }

// DatabaseOptions configures offline preparation.
type DatabaseOptions struct {
	// BlockSize is the simulated disk block size (entries per block) used
	// by the lazy algorithms; 0 means the default.
	BlockSize int
	// MaxDistance, when positive, truncates the transitive closure at the
	// given path length; longer connections are treated as unreachable.
	MaxDistance int32
}

// Database is a data graph prepared for querying: the transitive closure
// with shortest distances (Section 3.1) organized both as label-pair
// tables and in the simulated block store (Section 4.1). The closure is
// accessed through a closure.TableSource, which is either fully resident
// (BuildDatabase, eager snapshots) or faulted in from disk
// per table (OpenSnapshot in lazy or mmap mode).
type Database struct {
	g    *graph.Graph
	c    closure.TableSource
	snap *closure.Snapshot // non-nil when opened from a snapshot file
	st   *store.Store
	opt  DatabaseOptions
}

// BuildDatabase precomputes the closure of g. This is the offline step of
// Table 2; everything else is query time.
func BuildDatabase(g *Graph, opt DatabaseOptions) (*Database, error) {
	if g == nil || g.g == nil {
		return nil, fmt.Errorf("ktpm: nil graph")
	}
	c := closure.Compute(g.g, closure.Options{MaxDepth: opt.MaxDistance})
	return &Database{
		g:   g.g,
		c:   c,
		st:  store.New(c, opt.BlockSize),
		opt: opt,
	}, nil
}

// Graph returns the underlying data graph.
func (db *Database) Graph() *Graph { return &Graph{g: db.g} }

// SnapshotMode selects how OpenSnapshot backs the closure tables.
type SnapshotMode int

const (
	// SnapshotEager decodes the whole snapshot into memory at open —
	// byte-for-byte the same serving state BuildDatabase reaches, paid up
	// front.
	SnapshotEager SnapshotMode = iota
	// SnapshotLazy opens in O(directory) time; each closure table is
	// seek-read and decoded the first time a query touches it.
	SnapshotLazy
	// SnapshotMMap maps the file and serves zero-copy column views over
	// the mapping: no heap copy of table payloads, opening in
	// O(directory) time, and the OS page cache shares the bytes across
	// every process mapping the same file. Falls back to SnapshotLazy on
	// platforms without mmap.
	SnapshotMMap
)

// String returns the CLI spelling ("eager", "lazy", "mmap");
// ParseSnapshotMode accepts it back.
func (m SnapshotMode) String() string { return closure.SnapMode(m).String() }

// ParseSnapshotMode resolves the CLI/service spelling of a snapshot mode
// ("eager", "lazy", "mmap", case-insensitive); ok is false for unknown
// names, including the empty string.
func ParseSnapshotMode(name string) (SnapshotMode, bool) {
	switch strings.ToLower(name) {
	case "eager":
		return SnapshotEager, true
	case "lazy":
		return SnapshotLazy, true
	case "mmap":
		return SnapshotMMap, true
	}
	return 0, false
}

// SnapshotOptions configures OpenSnapshot.
type SnapshotOptions struct {
	// Mode selects the table backing; the zero value is SnapshotEager.
	Mode SnapshotMode
	// BlockSize is the simulated disk block size for the rebuilt store;
	// 0 means the default.
	BlockSize int
}

// SnapshotFormat names the on-disk layout SaveSnapshotAs writes.
//
// Deprecated: KTPMSNAP2 is the only format; SnapshotV2, the zero value,
// is the only accepted value. SnapshotFormat remains only for existing
// callers and will be removed.
type SnapshotFormat int

// SnapshotV2 is the KTPMSNAP2 layout, the only one written or read.
//
// Deprecated: it is the zero value of SnapshotFormat and will be removed
// with it.
const SnapshotV2 SnapshotFormat = 0

// SaveSnapshot writes db as a KTPMSNAP2 snapshot: a page-aligned,
// offset-indexed image of the graph and closure with a table directory
// up front and a CRC32C trailer, openable eagerly, lazily, or via mmap
// (see OpenSnapshot). Saving from a lazy or mmap database faults every
// table once; the closure is never recomputed. Output is deterministic
// for a given closure.
func SaveSnapshot(w io.Writer, db *Database) error {
	return closure.WriteSnapshot(w, db.c)
}

// SaveSnapshotAs is SaveSnapshot for callers that name the format; any
// format other than SnapshotV2 is an error.
//
// Deprecated: use SaveSnapshot. SaveSnapshotAs will be removed.
func SaveSnapshotAs(w io.Writer, db *Database, format SnapshotFormat) error {
	if format != SnapshotV2 {
		return fmt.Errorf("ktpm: snapshot format %d is not written; KTPMSNAP2 (SnapshotV2) is the only format", int(format))
	}
	return SaveSnapshot(w, db)
}

// OpenSnapshot opens a KTPMSNAP2 snapshot written by SaveSnapshot. In
// SnapshotLazy and SnapshotMMap modes it returns in O(directory) time —
// the graph and table directory are read, but no closure table is
// touched until a query faults it — so a daemon over a big graph starts
// serving immediately. All three modes answer every query byte-identically
// to the BuildDatabase path, at any shard count.
//
// The returned Database is safe for concurrent use like any other, but a
// lazy or mmap database keeps the file (or mapping) open: call Close
// once queries have stopped. Corruption in the header, graph, directory,
// or checksum trailer (a missing trailer included) fails here; payload
// corruption fails at open only in eager
// mode, and in lazy/mmap modes surfaces as an error from SnapshotStats
// once the damaged table faults.
func OpenSnapshot(path string, opt SnapshotOptions) (*Database, error) {
	snap, err := closure.OpenSnapshotFile(path, closure.SnapMode(opt.Mode))
	if err != nil {
		return nil, fmt.Errorf("ktpm: %w", err)
	}
	st := store.NewFromSource(snap, opt.BlockSize)
	if opt.Mode == SnapshotEager {
		st.MaterializeAll()
	}
	return &Database{
		g:    snap.Graph(),
		c:    snap,
		snap: snap,
		st:   st,
		opt:  DatabaseOptions{BlockSize: opt.BlockSize},
	}, nil
}

// Close releases any resources the database holds on the snapshot file
// it was opened from: the descriptor (lazy) or the memory mapping
// (mmap). It must only be called after every query has finished —
// mmap-mode table views point into the mapping. A no-op for databases
// built in memory. Idempotent.
func (db *Database) Close() error {
	if db.snap != nil {
		return db.snap.Close()
	}
	return nil
}

// SnapshotStats describes the snapshot backing of a Database opened with
// OpenSnapshot.
type SnapshotStats struct {
	// Mode is the effective backing mode ("eager", "lazy", "mmap") —
	// what a requested mmap degraded to on platforms without it.
	Mode string `json:"mode"`
	// TablesLoaded counts closure tables faulted from the snapshot so
	// far; directly after a lazy or mmap open it is 0.
	TablesLoaded int64 `json:"tables_loaded"`
	// TablesTotal is the directory size.
	TablesTotal int64 `json:"tables_total"`
	// BytesMapped is the live mmap size (0 unless Mode is "mmap").
	BytesMapped int64 `json:"bytes_mapped"`
	// Err reports a fault-time load failure in lazy/mmap mode (the file
	// was damaged underneath the open snapshot); empty when healthy.
	Err string `json:"err,omitempty"`
}

// SnapshotStats returns the snapshot backing state, and ok=false for
// databases not opened from a snapshot.
func (db *Database) SnapshotStats() (SnapshotStats, bool) {
	if db.snap == nil {
		return SnapshotStats{}, false
	}
	st := SnapshotStats{
		Mode:         db.snap.Mode().String(),
		TablesLoaded: db.snap.TablesLoaded(),
		TablesTotal:  int64(db.snap.NumTables()),
		BytesMapped:  db.snap.BytesMapped(),
	}
	if err := db.snap.Err(); err != nil {
		st.Err = err.Error()
	}
	return st, true
}

// IOStats is a snapshot of the simulated disk I/O counters accumulated by
// all queries served from this database (see internal/store): random block
// reads from incoming lists versus wholesale summary-table scans.
type IOStats struct {
	// BlocksRead counts random block reads from incoming lists.
	BlocksRead int64
	// EntriesRead counts every entry delivered (blocks plus tables).
	EntriesRead int64
	// TableEntriesRead counts entries delivered by table scans only.
	TableEntriesRead int64
	// TablesRead counts summary tables materialized from the simulated
	// disk. Each distinct table is derived once per store and then
	// served from its derived plane.
	TablesRead int64
	// TableHits counts table loads served from the shared derived plane
	// without touching the simulated disk.
	TableHits int64
	// TablesLoaded counts closure tables materialized from the table
	// source into the store layout. A database built (or opened) eagerly
	// reports the full table count from the start; one opened with
	// OpenSnapshot in lazy or mmap mode starts at 0 and grows as queries
	// fault tables in.
	TablesLoaded int64
	// SnapshotBytesMapped is the live memory-mapped snapshot size; 0
	// unless the database was opened with SnapshotMMap.
	SnapshotBytesMapped int64
}

// IOStats returns a snapshot of the accumulated simulated I/O counters.
// Counters update atomically, so the snapshot is safe (and meaningful)
// under concurrent queries.
func (db *Database) IOStats() IOStats {
	c := db.st.Counters()
	out := IOStats{
		BlocksRead:       c.BlocksRead,
		EntriesRead:      c.EntriesRead,
		TableEntriesRead: c.TableEntriesRead,
		TablesRead:       c.TablesRead,
		TableHits:        c.TableHits,
		TablesLoaded:     db.st.TablesLoaded(),
	}
	if db.snap != nil {
		out.SnapshotBytesMapped = db.snap.BytesMapped()
	}
	return out
}

// ClosureStats reports the precomputation cost drivers: closure entries,
// label-pair table count, θ (average entries per table) and estimated
// serialized size.
func (db *Database) ClosureStats() (entries int64, tables int, theta float64, sizeBytes int64) {
	s := db.c.ComputeStats()
	return s.Entries, s.Tables, s.Theta, s.SizeBytes
}

// Query is a parsed rooted query tree.
type Query struct {
	t *query.Tree
}

// ParseQuery parses the compact tree syntax: "a(b,c(d))" is a root a with
// children b and c, c having child d; a leading '/' marks a parent-child
// edge ("a(/b)") and '*' is a wildcard label. All other edges are '//'.
//
// Labels the data graph has never seen are resolved in a private overlay
// that is garbage-collected with the query, so parsing untrusted query
// strings (the ktpmd daemon's workload) cannot grow the graph's label
// table; such labels simply match nothing.
func (db *Database) ParseQuery(s string) (*Query, error) {
	t, err := query.Parse(db.g.Labels.Extend(), s)
	if err != nil {
		return nil, err
	}
	return &Query{t: t}, nil
}

// NumNodes returns the query size n_T.
func (q *Query) NumNodes() int { return q.t.NumNodes() }

// String renders the query back in the parser syntax.
func (q *Query) String() string { return q.t.String() }

// Canonical renders the query with the children of every node sorted, so
// queries that differ only in sibling order ("a(b,c)" vs "a(c,b)") produce
// the same string. Sibling order never affects which matches exist or
// their scores — only the BFS numbering of positions — which makes the
// canonical form a sound result-cache key. Parsing the canonical string
// yields a query whose positions agree with the rendering.
func (q *Query) Canonical() string { return q.t.Canonical() }

// LabelOf returns the label of query position i (BFS order).
func (q *Query) LabelOf(i int) string { return q.t.LabelName(int32(i)) }

// Options tunes a single TopK or Stream call.
type Options struct {
	// RootFilter, when non-nil, restricts results to matches whose root
	// position binds a data node the filter accepts; other positions are
	// unaffected. Because every match binds the root to exactly one data
	// node, filters over disjoint vertex sets partition the match space.
	RootFilter func(v int32) bool
	// Trace, when non-nil, parents the call's trace spans: enumeration
	// records "table_fault" spans around store carves and derives, and
	// sharded execution nests them under a "shard_merge" span. Nil
	// disables tracing at zero cost.
	Trace *Span
}

// Span is a request-scoped trace span (see internal/obs): the server
// threads one through Options.Trace so /query?debug=1 and /debug/traces
// can attribute time to stages. Embedders may create their own with
// NewTraceSpan.
type Span = obs.Span

// NewTraceSpan starts a root trace span, for embedders that want stage
// timing outside ktpmd: pass it via Options.Trace, End it after the
// call, and inspect it with its Snapshot method.
func NewTraceSpan(name string) *Span { return obs.StartRoot(name) }

// Match is one result: Nodes[i] is the data node matched to query position
// i (the query's BFS order), and Score is the penalty (Definition 2.2).
type Match struct {
	Nodes []int32
	Score int64
}

func (m *Match) binding(q *Query, label string) (int32, bool) {
	for i := 0; i < q.NumNodes(); i++ {
		if q.LabelOf(i) == label {
			return m.Nodes[i], true
		}
	}
	return 0, false
}

// Binding returns the data node matched to the query position with the
// given label; ok is false when no position carries the label. Intended
// for distinct-label queries, where the binding is unique.
func (m *Match) Binding(q *Query, label string) (int32, bool) { return m.binding(q, label) }

// TopK returns the k best matches.
func (db *Database) TopK(q *Query, k int) ([]Match, error) {
	return db.TopKWith(q, k, Options{})
}

// TopKWith returns the k best matches under opt, enumerated by Topk-EN in
// canonical order — non-decreasing score, equal scores ordered by node
// bindings, the tie group at the k-th score drained in full — so the
// result is a pure function of the store contents, byte-identical to
// what a ShardedDatabase returns at any shard count.
func (db *Database) TopKWith(q *Query, k int, opt Options) ([]Match, error) {
	if q == nil || q.t == nil {
		return nil, fmt.Errorf("ktpm: nil query")
	}
	if k < 0 {
		return nil, fmt.Errorf("ktpm: negative k")
	}
	e := lazy.New(db.st, q.t, lazy.Options{RootFilter: opt.RootFilter, Trace: opt.Trace})
	out := detach(lazy.NewMerge([]lazy.Source{e}).TopK(k), q.NumNodes())
	e.Release()
	return out, nil
}

// detach copies the bindings of ms into one array of len(ms)·nT and points
// each Match.Nodes into it. It is how a result leaves an enumerator: an
// enumerator's Match.Nodes alias its slabs, which go back to a pool for
// the next query once it is released, so nothing a caller keeps (ktpmd's
// result cache) may point into them.
func detach(ms []*lazy.Match, nT int) []Match {
	out := make([]Match, len(ms))
	buf := make([]int32, len(ms)*nT)
	for i, m := range ms {
		nodes := buf[i*nT : (i+1)*nT : (i+1)*nT]
		copy(nodes, m.Nodes)
		out[i] = Match{Nodes: nodes, Score: m.Score}
	}
	return out
}

// MatchStream is an incremental enumeration of matches in non-decreasing
// score order, for consumers that do not know k up front. Both *Stream
// (single database) and *ShardStream (sharded database) implement it; the
// server's NDJSON /stream endpoint is written against this interface.
// Consumers that stop before exhaustion must call Close.
type MatchStream interface {
	// Next returns the next match; ok is false when the space is
	// exhausted or the stream is closed.
	Next() (Match, bool)
	// Close releases any resources held by the enumeration. Idempotent.
	Close()
}

// Stream incrementally enumerates matches using Topk-EN in the same
// canonical order TopK returns — non-decreasing score, equal scores
// ordered by node bindings — for consumers that do not know k up front.
// Drained to any k it is byte-identical to TopK(q, k).
type Stream struct {
	e   *lazy.Enumerator // nil once closed
	m   *lazy.Merge
	buf nodeBuf
}

// Stream opens an incremental enumeration of q.
func (db *Database) Stream(q *Query) *Stream {
	s, _ := db.StreamWith(q, Options{})
	return s
}

// StreamWith opens an incremental enumeration of q with options, so
// RootFilter applies to streaming too.
func (db *Database) StreamWith(q *Query, opt Options) (*Stream, error) {
	if q == nil || q.t == nil {
		return nil, fmt.Errorf("ktpm: nil query")
	}
	e := lazy.New(db.st, q.t, lazy.Options{RootFilter: opt.RootFilter, Trace: opt.Trace})
	return &Stream{e: e, m: lazy.NewMerge([]lazy.Source{e})}, nil
}

// OpenStream is StreamWith behind the MatchStream interface, the form
// the server's Backend contract uses so single and sharded databases
// interchange.
func (db *Database) OpenStream(q *Query, opt Options) (MatchStream, error) {
	return db.StreamWith(q, opt)
}

// Next returns the next match in canonical order; ok is false when the
// space is exhausted or the stream is closed.
func (s *Stream) Next() (Match, bool) {
	if s.e == nil {
		return Match{}, false
	}
	m, ok := s.m.Next()
	if !ok {
		s.Close()
		return Match{}, false
	}
	return Match{Nodes: s.buf.copy(m.Nodes), Score: m.Score}, true
}

// Close releases the stream's enumerator; Next reports false afterwards.
// Exhaustion closes the stream itself. Idempotent.
func (s *Stream) Close() {
	if s.e != nil {
		s.e.Release()
		s.e, s.m = nil, nil
	}
}

// nodeBuf hands a stream's matches their own copy of the bindings, carved
// from chunks of lazy.ChunkSize matches that are never reused, so a match
// a consumer keeps stays valid after its enumerator is released and pins
// at most its chunk.
type nodeBuf []int32

func (b *nodeBuf) copy(nodes []int32) []int32 {
	n := len(nodes)
	if len(*b) < n {
		*b = make([]int32, n*lazy.ChunkSize)
	}
	out := (*b)[:n:n]
	*b = (*b)[n:]
	copy(out, nodes)
	return out
}

// BatchItem is one query of a TopKBatch call.
type BatchItem struct {
	Query *Query
	K     int
	Opt   Options
}

// BatchResult is one item's outcome in a TopKBatch call.
type BatchResult struct {
	// Matches is the item's top-k answer. Items deduplicated against an
	// earlier identical item share the same underlying slice; treat it as
	// immutable.
	Matches []Match
	// Shared marks an item whose result was reused from an earlier
	// canonical-identical item in the same batch instead of enumerated.
	Shared bool
	// Cost is the database-wide EntriesRead delta observed around this
	// item's enumeration — the simulated-I/O price of computing it, the
	// signal cost-aware cache admission keys on. Shared items report the
	// cost of the enumeration they reused. Under concurrent traffic the
	// delta may include other queries' reads, an overestimate only.
	Cost int64
	// Err is the item's failure; other items are unaffected.
	Err error
}

// TopKBatch answers many queries in one call, amortizing per-query
// overheads: items whose canonical form and k agree are enumerated once
// and share the result, and every item warms the same derived-data
// plane, so D/E tables a batch touches repeatedly are derived at most
// once. Items with a RootFilter are never deduplicated
// (filter identity is unknowable). Results align with items; a failed
// item carries its own Err and does not disturb the rest.
//
// A shared result's Nodes follow the *first* occurrence's position
// numbering. Canonical-identical queries can still number positions
// differently when their sibling order differs; callers that need a
// fixed numbering should parse Query.Canonical themselves, as the
// server's /batch endpoint does.
func (db *Database) TopKBatch(items []BatchItem) []BatchResult {
	return runBatch(items, db.IOStats, db.TopKWith)
}

// batchKey is the dedup identity of a batch item; ok is false when the
// item must not be deduplicated.
func batchKey(it BatchItem) (string, bool) {
	if it.Query == nil || it.Query.t == nil || it.Opt.RootFilter != nil {
		return "", false
	}
	return it.Query.Canonical() + "\x00" + strconv.Itoa(it.K), true
}

// runBatch is the shared TopKBatch engine: run computes one item, stats
// snapshots the I/O counters that price it.
func runBatch(items []BatchItem, stats func() IOStats, run func(*Query, int, Options) ([]Match, error)) []BatchResult {
	out := make([]BatchResult, len(items))
	seen := make(map[string]int, len(items)) // key -> index of first occurrence
	for i, it := range items {
		key, dedupable := batchKey(it)
		if dedupable {
			if first, ok := seen[key]; ok {
				out[i] = out[first]
				out[i].Shared = true
				continue
			}
		}
		before := stats().EntriesRead
		ms, err := run(it.Query, it.K, it.Opt)
		out[i] = BatchResult{Matches: ms, Cost: stats().EntriesRead - before, Err: err}
		if dedupable && err == nil {
			seen[key] = i
		}
	}
	return out
}

// CountMatches returns the total number of matches of q — the quantity
// that motivates top-k processing (it is frequently astronomically large).
// Counting needs every match, so unlike every other entry point it
// materializes the run-time graph: O(m_R) time and memory, where TopK
// loads only a prefix.
func (db *Database) CountMatches(q *Query) int64 {
	return core.CountMatches(rtg.Build(db.c, q.t))
}

// GraphPattern is a connected undirected labeled pattern graph with
// distinct node labels, the query form of top-k graph pattern matching.
type GraphPattern struct {
	// Labels holds one label per pattern node.
	Labels []string
	// Edges are undirected node-index pairs.
	Edges [][2]int
}

// GraphEnv caches per-graph state for repeated GraphTopK calls (the
// undirected closure is the expensive part).
type GraphEnv struct {
	env *kgpm.Env
}

// NewGraphEnv prepares the kGPM environment for db's graph. It is not
// cheap: it mirrors the graph into an undirected view and computes that
// view's full transitive closure, a second one beside the database's,
// keeping a per-source hash distance index over it. In an undirected
// view every node of a connected component reaches every other, so the
// closure holds up to O(V²) entries, and the index is as large again.
// Build one GraphEnv per graph and reuse it across GraphTopK calls.
func (db *Database) NewGraphEnv() *GraphEnv {
	return &GraphEnv{env: kgpm.NewEnv(db.g)}
}

// GraphTopK returns the k best graph pattern matches. Nodes[i] of each
// match corresponds to pattern node i. It runs mtree+: the decomposition
// framework of [7] with Topk-EN enumerating the spanning tree.
func (ge *GraphEnv) GraphTopK(p *GraphPattern, k int) ([]Match, error) {
	q := &kgpm.Query{Labels: p.Labels, Edges: p.Edges}
	ms, err := kgpm.TopK(ge.env, q, k, kgpm.MTreePlus)
	if err != nil {
		return nil, err
	}
	out := make([]Match, len(ms))
	for i, m := range ms {
		out[i] = Match{Nodes: m.Nodes, Score: m.Score}
	}
	return out, nil
}
