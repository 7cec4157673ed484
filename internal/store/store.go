// Package store simulates the on-disk closure layout of Section 4.1 so the
// priority-based algorithms can be measured by how much of the run-time
// graph they actually retrieve.
//
// For every closure target node v and parent label α the incoming edges
// L^α_v are kept sorted by non-decreasing shortest distance and served in
// fixed-size blocks — the unit Algorithm 2's Expand loads (Line 10). Two
// summary tables are loaded wholesale at initialization:
//
//   - D^α_β: per target node v (l(v)=β), d^α_v — the minimum incoming
//     distance from label α; seeds the e_v term of lb(v).
//   - E^α_β: per source node v (l(v)=α), the single outgoing edge to label
//     β with minimum distance; seeds the child lists of leaf-edge parents.
//
// Every Load* call increments I/O counters (blocks, entries, tables); the
// experiment harness reads them to reproduce the paper's retrieved-edges
// and I/O-versus-CPU comparisons. Entries carry a Direct flag marking
// closure pairs realized by a single data-graph edge, the admission rule
// for '/' query edges; wildcard label arguments transparently merge tables.
//
// # One layout
//
// The image has a single physical form, the columnar carve (cols.go): a
// (α, β) closure table is carved into per-target spans over contiguous
// from[]/dist[]/direct[] columns, whatever the closure.TableSource behind
// it. What the carve costs depends only on where the bytes come from:
//
//   - a snapshot serves its on-disk columns (zero-copy views over the
//     mapping under mmap, one decoded read under lazy), so the carve is
//     two column copies plus the direct-flag pass;
//   - an in-memory Closure and the tables a MergedSource overlay has
//     spliced hold row-major entries, which closure.TableColsOf
//     transposes once per carve: the transpose's from/dist become the
//     store's columns and nothing else is retained. A MergedSource's
//     untouched tables come from its base in the base's own form.
//
// Lists are served as EdgeCols column views (ListHandle.BlockCols, what
// the enumerator's block kernels read); ListHandle.Block and LoadBlock
// materialize the same lanes as []InEdge rows — a view for tests and
// one-off readers, not a second layout.
//
// # Layout, plane, counters
//
// A Store is three layers with different sharing disciplines:
//
//   - layout: the closure image (carved tables over the graph's label index),
//     shared by everyone. New materializes every table up front (what a
//     fully-resident closure wants), while NewFromSource faults a (α, β)
//     table in the first time any query touches it — the path lazy and
//     mmap snapshots and Live epochs ride. Once carved, a table is
//     published copy-on-write and read lock-free forever after.
//   - plane: the derived data — D/E summary tables and wildcard-merged
//     incoming lists. In the paper these are materialized on disk next to
//     the closure, so deriving one is offline work paid once; here each
//     is derived exactly once per store and published through atomic
//     pointers (copy-on-write maps for the summary tables, per-node
//     slots for wildcard merges), so reads are lock-free and the mutex
//     is held only while a first derive publishes.
//   - counters: simulated-I/O accounting, shared by every view of the
//     store (WithTrace) and so by every query it serves.
package store

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"ktpm/internal/closure"
	"ktpm/internal/graph"
	"ktpm/internal/label"
	"ktpm/internal/obs"
)

// DefaultBlockSize is the number of incoming edges per block. Sixteen
// entries keeps the block small relative to typical incoming-list lengths
// at laptop scale, preserving the paper's regime where a list spans many
// blocks and the trigger can stop after a prefix.
const DefaultBlockSize = 16

// InEdge is one incoming closure edge to a fixed target node: the element
// type of the row view ListHandle.Block materializes from the columns.
type InEdge struct {
	From int32
	Dist int32
	// Direct marks entries realized by a single data-graph edge.
	Direct bool
}

// DEntry is one D-table row: node V has minimum incoming distance Min
// (from the table's source label).
type DEntry struct {
	V   int32
	Min int32
}

// EEntry is one E-table row: the minimum-distance outgoing edge From→To.
type EEntry struct {
	From, To int32
	Dist     int32
	Direct   bool
}

// Counters accumulates simulated I/O. Block reads (the L^α_v incoming
// lists) are random accesses; table reads (the D/E summaries) are
// sequential scans. The experiment harness prices them differently when
// modeling disk cost.
type Counters struct {
	// BlocksRead counts random block reads from incoming lists.
	BlocksRead int64
	// EntriesRead counts every entry delivered (blocks plus tables).
	EntriesRead int64
	// TableEntriesRead counts entries delivered by LoadD/LoadE only.
	TableEntriesRead int64
	// TablesRead counts summary tables materialized from the simulated
	// disk: the first LoadD/LoadE for a given (α, β, childOnly) derives
	// the table; later loads are served from the derived plane at memory
	// speed and count under TableHits instead.
	TablesRead int64
	// TableHits counts LoadD/LoadE calls answered by the shared derived
	// plane without touching the simulated disk.
	TableHits int64
}

func (c *Counters) addBlock(entries int64) {
	atomic.AddInt64(&c.BlocksRead, 1)
	atomic.AddInt64(&c.EntriesRead, entries)
}

// addTable charges one logical table load: every load delivers its entries
// to the query, but only the process-wide first derive is disk I/O.
func (c *Counters) addTable(entries int64, derived bool) {
	if derived {
		atomic.AddInt64(&c.TablesRead, 1)
	} else {
		atomic.AddInt64(&c.TableHits, 1)
	}
	atomic.AddInt64(&c.EntriesRead, entries)
	atomic.AddInt64(&c.TableEntriesRead, entries)
}

// pairKey identifies one (α, β) closure table.
type pairKey struct{ alpha, beta int32 }

// layout is the closure image shared by every view. The carved
// incoming lists grow monotonically as (α, β) tables fault in from the
// source; reads are lock-free (one atomic load plus map lookups) and the
// mutex is held only while a first carve publishes.
type layout struct {
	g         *graph.Graph
	blockSize int
	src       closure.TableSource

	mu sync.Mutex // serializes carves; readers never take it
	// inW is the carve's scratch, guarded by mu: inW[u] holds the weight
	// of the edge u→v while the carve sets the direct flags of target v's
	// lanes, and is zero otherwise. Allocated at the first carve.
	inW []int32
	// tabs maps a carved (α, β) pair to its colTab; an empty colTab is a
	// carved pair with no entries (negative caching), and the sentinel key
	// {allLabels, β} (nil value) marks "every (α, β) pair is carved" so
	// wildcard merges skip the lock. Published copy-on-write: a carve
	// clones the map only — O(carved pairs), never O(lists) — and colTabs
	// are immutable once published.
	tabs atomic.Pointer[map[pairKey]*colTab]
	// faults counts every short carve (a lazy-source load failure),
	// monotonically. A derivation snapshots it before running and
	// publishes only if it is unchanged after: any carve it depended on
	// that came up short bumped the counter inside that window (repeated
	// failures bump it again), so an incomplete derivation can never be
	// cached — while faults outside the window, even never-repaired
	// ones, cost nothing.
	faults atomic.Int64
	// tablesLoaded counts carves — closure tables materialized from the
	// source into columns.
	tablesLoaded atomic.Int64
}

// plane holds the shared derived data: each entry is derived exactly once
// process-wide and published through an atomic pointer, so readers never
// take the mutex. mu serializes only first derives; a derive re-checks
// under the lock before computing, so concurrent first requests for one
// table do the work once.
type plane struct {
	mu sync.Mutex
	// merged caches wildcard (all-label) incoming lists, indexed by node.
	// A fixed-size pointer array rather than a COW map: wildcard derives
	// touch one node at a time and a query can touch most of the graph,
	// so per-entry map republication would cost O(V) copying per node —
	// O(V²) for a graph-wide wildcard — where a slot store is O(1).
	merged []atomic.Pointer[EdgeCols]
	// dTabs / eTabs hold the derived summary tables, published
	// copy-on-write (table counts are small — one per label pair a
	// workload touches — so republication cost is negligible).
	dTabs atomic.Pointer[map[tableKey][]DEntry]
	eTabs atomic.Pointer[map[tableKey][]EEntry]
}

// Store is a simulated disk image of one closure: an immutable layout, a
// derived-data plane, and I/O counters. A single Store safely serves
// concurrent queries (derived reads are lock-free, counters atomic).
type Store struct {
	lay *layout
	pl  *plane

	// counters is shared by every view of this store (WithTrace returns
	// a view, not a fork), so traced requests charge the same accounting.
	counters *Counters
	// trace, when set, parents "table_fault" spans recorded around the
	// slow paths — carves and first derives. Nil for untraced stores; the
	// fast paths only ever pay a nil check.
	trace *obs.Span
}

type tableKey struct {
	alpha, beta int32
	childOnly   bool
}

// New lays out the closure source with the given block size (0 means
// DefaultBlockSize), materializing every table up front — the behavior
// an in-memory closure wants, since its entries are resident anyway.
func New(src closure.TableSource, blockSize int) *Store {
	s := NewFromSource(src, blockSize)
	s.MaterializeAll()
	return s
}

// NewFromSource lays out src with the given block size (0 means
// DefaultBlockSize) without touching any table payload: a (α, β) table
// is carved into columns the first time a query asks for one of its
// lists. Construction cost is O(nodes) — the wildcard-merge slots; the
// label index and the edges the direct flags read are the graph's —
// never O(closure).
func NewFromSource(src closure.TableSource, blockSize int) *Store {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	g := src.Graph()
	lay := &layout{g: g, blockSize: blockSize, src: src}
	pl := &plane{merged: make([]atomic.Pointer[EdgeCols], g.NumNodes())}
	return &Store{lay: lay, pl: pl, counters: &Counters{}}
}

// MaterializeAll carves every table of the source in one publish, the
// eager mode.
func (s *Store) MaterializeAll() {
	lay := s.lay
	lay.mu.Lock()
	defer lay.mu.Unlock()
	tabs := cloneTabs(lay.tabs.Load())
	lay.src.TableLens(func(alpha, beta int32, count int) bool {
		if _, ok := tabs[pairKey{alpha, beta}]; !ok {
			lay.carve(alpha, beta, tabs)
		}
		return true
	})
	// Pairs outside the source's directory are not negative-cached here;
	// the first wildcard merge per target label batch-carves them (one
	// map clone) in carveTargets.
	lay.tabs.Store(&tabs)
}

// allLabels is the sentinel alpha marking "every (α, beta) pair is
// carved" in the carved-table map; no real label is negative, and
// listFor rejects negative alphas before lookup, so the sentinel can
// never shadow a real table.
const allLabels int32 = -1

// carveTargets ensures every (α, beta) table is carved, in one clone and
// publish — the wildcard merge's fault path. Carving the pairs one
// listFor miss at a time would take and release the lock once per label
// per node on a cold wildcard query.
func (lay *layout) carveTargets(beta int32, tr *obs.Span) {
	if beta < 0 || int(beta) >= lay.g.IndexedLabels() {
		return
	}
	k := pairKey{allLabels, beta}
	if m := lay.tabs.Load(); m != nil {
		if _, ok := (*m)[k]; ok {
			return
		}
	}
	lay.mu.Lock()
	defer lay.mu.Unlock()
	if m := lay.tabs.Load(); m != nil {
		if _, ok := (*m)[k]; ok {
			return
		}
	}
	sp := tr.StartChild("table_fault")
	sp.SetAttr("op", "carve_targets")
	sp.SetAttr("beta", beta)
	defer sp.End()
	tabs := cloneTabs(lay.tabs.Load())
	whole := true
	for a := range lay.g.IndexedLabels() {
		if _, ok := tabs[pairKey{int32(a), beta}]; !ok {
			whole = lay.carve(int32(a), beta, tabs) && whole
		}
	}
	// The sentinel claims every (α, beta) pair is resident; a short load
	// leaves it unset so the next wildcard touch retries the fault.
	if whole {
		tabs[k] = nil
	}
	lay.tabs.Store(&tabs)
}

// cloneTabs copies the carved-table map (nil-safe). colTabs are immutable
// once published and are shared, so a clone costs O(carved pairs)
// regardless of how many lists they hold.
func cloneTabs(p *map[pairKey]*colTab) map[pairKey]*colTab {
	if p == nil {
		return make(map[pairKey]*colTab, 16)
	}
	return maps.Clone(*p)
}

// listFor returns the incoming list of v from the concrete label alpha,
// carving the (alpha, l(v)) table on first touch. The steady-state path
// is one atomic load, one map lookup and a binary search over the
// table's targets.
func (lay *layout) listFor(alpha, v int32, tr *obs.Span) EdgeCols {
	t, _ := lay.table(alpha, lay.g.Label(v), tr)
	return t.view(v)
}

// table returns the carved (alpha, beta) table, carving it on first
// touch; a nil table has no entries. ok is false only when the carve
// came up short (a lazy-source fault): nothing is cached, and the next
// touch refaults.
func (lay *layout) table(alpha, beta int32, tr *obs.Span) (t *colTab, ok bool) {
	if n := int32(lay.g.IndexedLabels()); alpha < 0 || alpha >= n || beta < 0 || beta >= n {
		// A query-only label interned after the graph was built: no
		// closure table can exist, and caching the miss would let
		// adversarial queries grow the carved set without bound.
		return nil, true
	}
	k := pairKey{alpha, beta}
	if m := lay.tabs.Load(); m != nil {
		if t, ok := (*m)[k]; ok {
			return t, true
		}
	}
	lay.mu.Lock()
	m := lay.tabs.Load()
	if m != nil {
		if t, ok := (*m)[k]; ok {
			lay.mu.Unlock()
			return t, true
		}
	}
	sp := tr.StartChild("table_fault")
	sp.SetAttr("op", "carve")
	sp.SetAttr("alpha", k.alpha)
	sp.SetAttr("beta", k.beta)
	tabs := cloneTabs(m)
	// A short load (source fault) publishes nothing; the next touch
	// refaults.
	ok = lay.carve(k.alpha, k.beta, tabs)
	if ok {
		lay.tabs.Store(&tabs)
	}
	lay.mu.Unlock()
	sp.End()
	return tabs[k], ok
}

// WithTrace returns a view of s whose slow paths — table carves and first
// derives — record "table_fault" spans under sp. The view shares s's
// layout, plane, AND counters, so it is a per-request lens, not a fork:
// I/O charged through it lands on the same accounting. A nil sp
// returns s unchanged.
func (s *Store) WithTrace(sp *obs.Span) *Store {
	if sp == nil {
		return s
	}
	return &Store{lay: s.lay, pl: s.pl, counters: s.counters, trace: sp}
}

// Graph returns the underlying data graph.
func (s *Store) Graph() *graph.Graph { return s.lay.g }

// BlockSize returns the configured block size.
func (s *Store) BlockSize() int { return s.lay.blockSize }

// Counters returns a snapshot of the accumulated I/O counters.
func (s *Store) Counters() Counters {
	c := s.counters
	return Counters{
		BlocksRead:       atomic.LoadInt64(&c.BlocksRead),
		EntriesRead:      atomic.LoadInt64(&c.EntriesRead),
		TableEntriesRead: atomic.LoadInt64(&c.TableEntriesRead),
		TablesRead:       atomic.LoadInt64(&c.TablesRead),
		TableHits:        atomic.LoadInt64(&c.TableHits),
	}
}

// ResetCounters zeroes the I/O counters.
func (s *Store) ResetCounters() {
	c := s.counters
	atomic.StoreInt64(&c.BlocksRead, 0)
	atomic.StoreInt64(&c.EntriesRead, 0)
	atomic.StoreInt64(&c.TableEntriesRead, 0)
	atomic.StoreInt64(&c.TablesRead, 0)
	atomic.StoreInt64(&c.TableHits, 0)
}

// cowPut republishes src extended with (k, v). Callers must hold pl.mu —
// concurrent publishers would lose each other's entries. Readers loading
// the old pointer keep a consistent (if slightly stale) map; the next load
// sees the new one.
func cowPut[K comparable, V any](p *atomic.Pointer[map[K]V], k K, v V) {
	old := p.Load()
	var next map[K]V
	if old == nil {
		next = make(map[K]V, 8)
	} else {
		next = make(map[K]V, len(*old)+1)
		for kk, vv := range *old {
			next[kk] = vv
		}
	}
	next[k] = v
	p.Store(&next)
}

// cowGet reads the current published map without locking.
func cowGet[K comparable, V any](p *atomic.Pointer[map[K]V], k K) (V, bool) {
	m := p.Load()
	if m == nil {
		var zero V
		return zero, false
	}
	v, ok := (*m)[k]
	return v, ok
}

// inList returns the full incoming list of v from label alpha, resolving
// the wildcard by merging all labels. No I/O is counted here; counting
// happens at block granularity in LoadBlock and at table granularity in
// LoadD/LoadE. The wildcard merge is derived once process-wide and read
// lock-free afterwards.
func (s *Store) inList(alpha, v int32, tr *obs.Span) EdgeCols {
	if alpha != label.Wildcard {
		return s.lay.listFor(alpha, v, tr)
	}
	if p := s.pl.merged[v].Load(); p != nil {
		return *p
	}
	// First-writer-wins, no lock: racing first touches both derive (the
	// inputs are immutable, so the results are identical) and the loser
	// adopts the winner's list. Wildcard merges happen per node during
	// enumeration, so serializing them behind the plane mutex would make
	// concurrent cold wildcard queries convoy; a rare duplicated merge is
	// cheaper. This also keeps table derives (which run under pl.mu and
	// resolve wildcard lists mid-derive) free of reentrancy concerns.
	faultsBefore := s.lay.faults.Load()
	merged := s.mergeWildcard(v, tr)
	if s.lay.faults.Load() != faultsBefore {
		// A carve came up short while this merge ran, so the result may
		// be missing that table's edges; serve it best-effort but do not
		// publish — the next touch refaults and rebuilds.
		return merged
	}
	if !s.pl.merged[v].CompareAndSwap(nil, &merged) {
		return *s.pl.merged[v].Load()
	}
	return merged
}

// ListHandle is one resolved incoming list L^α_v: the list is looked up
// (and its table carved, if cold) exactly once at OpenList, and every
// block access afterwards reuses the resolution. The enumerator holds one
// handle per frontier node, which removes the per-block re-resolution
// NumBlocks/LoadBlock pay (each call walks the carved-table map again
// for the same pair). Blocks read through the handle charge the opening
// store's counters exactly like LoadBlock.
type ListHandle struct {
	s    *Store
	cols EdgeCols
}

// OpenList resolves L^alpha_v (alpha may be the wildcard) once.
func (s *Store) OpenList(alpha, v int32) ListHandle {
	return ListHandle{s: s, cols: s.inList(alpha, v, s.trace)}
}

// Table is one resolved (α, β) closure table. Its lists open with a
// binary search over the table's targets, where OpenList probes the
// carved-table map first: the enumerator resolves one Table per query
// edge and opens every expanded node's list through it.
type Table struct {
	s *Store
	t *colTab
}

// OpenTable resolves the concrete (alpha, beta) table once, carving it if
// cold. ok is false for a wildcard side, whose lists merge or span
// several tables, and for a carve that came up short; callers then open
// lists one by one with OpenList, which refaults.
func (s *Store) OpenTable(alpha, beta int32) (Table, bool) {
	if alpha == label.Wildcard || beta == label.Wildcard {
		return Table{}, false
	}
	t, ok := s.lay.table(alpha, beta, s.trace)
	return Table{s: s, t: t}, ok
}

// List opens the incoming list of v, a node with the table's β label:
// the same handle OpenList(α, v) returns.
func (t Table) List(v int32) ListHandle {
	return ListHandle{s: t.s, cols: t.t.view(v)}
}

// Len returns the resolved list's entry count.
func (h ListHandle) Len() int { return h.cols.Len() }

// NumBlocks returns how many blocks the resolved list spans.
func (h ListHandle) NumBlocks() int {
	return (h.Len() + h.s.lay.blockSize - 1) / h.s.lay.blockSize
}

// BlockCols reads the idx-th block as a zero-copy column view, counting
// one block of I/O. last reports whether this was the final block; a
// block index past the end returns (EdgeCols{}, true) uncounted.
func (h ListHandle) BlockCols(idx int) (block EdgeCols, last bool) {
	n := h.Len()
	lo := idx * h.s.lay.blockSize
	if lo >= n {
		return EdgeCols{}, true
	}
	hi := min(lo+h.s.lay.blockSize, n)
	h.s.counters.addBlock(int64(hi - lo))
	return h.cols.slice(lo, hi), hi == n
}

// Block is BlockCols materialized as rows (a copy): the view tests and
// one-off readers use. Block kernels read BlockCols.
func (h ListHandle) Block(idx int) (entries []InEdge, last bool) {
	bc, last := h.BlockCols(idx)
	if bc.Len() == 0 {
		return nil, last
	}
	entries = make([]InEdge, bc.Len())
	for i := range entries {
		entries[i] = InEdge{From: bc.From[i], Dist: bc.Dist[i], Direct: bc.Direct[i]}
	}
	return entries, last
}

// NumBlocks returns how many blocks the incoming list L^alpha_v spans.
func (s *Store) NumBlocks(alpha, v int32) int {
	return s.OpenList(alpha, v).NumBlocks()
}

// LoadBlock reads the idx-th block of L^alpha_v (alpha may be the
// wildcard), counting one block of I/O. last reports whether this was the
// final block; a list with no entries returns (nil, true) at idx 0.
// Callers reading several blocks of one list should OpenList once and use
// the handle.
func (s *Store) LoadBlock(alpha, v int32, idx int) (entries []InEdge, last bool) {
	return s.OpenList(alpha, v).Block(idx)
}

// LoadD reads the D^alpha_beta table: per target node with label beta, the
// minimum incoming distance from label alpha. childOnly restricts to
// direct edges (the '/' variant); wildcard alpha/beta merge labels. The
// first call derives the table (TablesRead); later calls read the
// plane (TableHits). The
// returned slice is the published table; callers must not modify it.
func (s *Store) LoadD(alpha, beta int32, childOnly bool) []DEntry {
	k := tableKey{alpha, beta, childOnly}
	out, ok := cowGet(&s.pl.dTabs, k)
	derived := false
	if !ok {
		s.pl.mu.Lock()
		if out, ok = cowGet(&s.pl.dTabs, k); !ok {
			derived = true
			// Nested carves parent under the derive span, so a stage
			// walk that skips same-name descendants counts the fault
			// time once.
			sp := s.trace.StartChild("table_fault")
			sp.SetAttr("op", "derive_d")
			sp.SetAttr("alpha", alpha)
			sp.SetAttr("beta", beta)
			faultsBefore := s.lay.faults.Load()
			s.forTargets(beta, func(v int32) {
				// Lanes are distance-sorted, so the admitted minimum is
				// lane 0, or the first direct lane found by a flag-column
				// scan.
				ec := s.inList(alpha, v, sp)
				i := 0
				if childOnly {
					i = firstTrue(ec.Direct)
				}
				if i >= 0 && i < len(ec.Dist) {
					out = append(out, DEntry{V: v, Min: ec.Dist[i]})
				}
			})
			sp.End()
			// A derivation over a short carve is served but never
			// published: once cached it would outlive the refault that
			// repairs the layout. Any carve this derivation depended on
			// that failed did so inside this window.
			if s.lay.faults.Load() == faultsBefore {
				cowPut(&s.pl.dTabs, k, out)
			}
		}
		s.pl.mu.Unlock()
	}
	s.counters.addTable(int64(len(out)), derived)
	return out
}

// LoadE reads the E^alpha_beta table: per source node with label alpha,
// the single minimum-distance outgoing edge to label beta. childOnly
// restricts to direct edges; wildcard beta takes the minimum over all
// target labels. Derivation and counting follow LoadD. The returned slice
// is the published table; callers must not modify it.
func (s *Store) LoadE(alpha, beta int32, childOnly bool) []EEntry {
	k := tableKey{alpha, beta, childOnly}
	out, ok := cowGet(&s.pl.eTabs, k)
	derived := false
	if !ok {
		s.pl.mu.Lock()
		if out, ok = cowGet(&s.pl.eTabs, k); !ok {
			derived = true
			sp := s.trace.StartChild("table_fault")
			sp.SetAttr("op", "derive_e")
			sp.SetAttr("alpha", alpha)
			sp.SetAttr("beta", beta)
			faultsBefore := s.lay.faults.Load()
			best := make(map[int32]EEntry)
			s.forTargets(beta, func(v int32) {
				ec := s.inList(alpha, v, sp)
				for i := range ec.From {
					if childOnly && !ec.Direct[i] {
						continue
					}
					f, d := ec.From[i], ec.Dist[i]
					cur, ok := best[f]
					if !ok || d < cur.Dist || (d == cur.Dist && v < cur.To) {
						best[f] = EEntry{From: f, To: v, Dist: d, Direct: ec.Direct[i]}
					}
				}
			})
			out = make([]EEntry, 0, len(best))
			for _, e := range best {
				out = append(out, e)
			}
			sort.Slice(out, func(i, j int) bool { return out[i].From < out[j].From })
			sp.End()
			// Like LoadD: never cache a derivation built over a short
			// carve.
			if s.lay.faults.Load() == faultsBefore {
				cowPut(&s.pl.eTabs, k, out)
			}
		}
		s.pl.mu.Unlock()
	}
	s.counters.addTable(int64(len(out)), derived)
	return out
}

// forTargets invokes fn for every node whose label matches beta (all
// nodes for the wildcard), in ascending node order. Labels interned after
// the store was built (query-only labels) have no targets.
func (s *Store) forTargets(beta int32, fn func(v int32)) {
	if beta == label.Wildcard {
		for v := int32(0); int(v) < s.lay.g.NumNodes(); v++ {
			fn(v)
		}
		return
	}
	for _, v := range s.lay.g.NodesWithLabel(beta) {
		fn(v)
	}
}

// TotalEdges returns the total number of stored incoming entries — the
// m_R upper bound a full load would incur for a query touching every
// table. Answered from the source's directory, so it never faults a
// table in.
func (s *Store) TotalEdges() int64 { return s.lay.src.NumEntries() }

// TablesLoaded returns how many closure tables have been materialized
// from the source into the layout's columns. After New (or
// MaterializeAll) it is the full table count, while a store over a lazy
// snapshot starts at 0 and grows as queries fault tables in.
func (s *Store) TablesLoaded() int64 { return s.lay.tablesLoaded.Load() }

// Source returns the closure table source backing the layout.
func (s *Store) Source() closure.TableSource { return s.lay.src }
