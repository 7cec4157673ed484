package ktpm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ktpm/internal/closure"
	"ktpm/internal/fsio"
	"ktpm/internal/graph"
	"ktpm/internal/store"
	"ktpm/internal/wal"
)

// ErrInvalidEdge marks an Ingest rejection: the batch referenced an
// unknown node, a self-loop, or a negative weight. Nothing from a
// rejected batch is logged or applied; errors.Is-match it to answer
// 400 instead of 500.
var ErrInvalidEdge = errors.New("ktpm: invalid ingest edge")

// IngestEdge is one new edge submitted through Live.Ingest. Weight 0
// means unit weight. Both endpoints must be existing nodes — the write
// path grows the edge set; node growth is a compaction-time concern a
// future PR owns.
type IngestEdge struct {
	From   int32 `json:"from"`
	To     int32 `json:"to"`
	Weight int32 `json:"w,omitempty"`
}

// WALStats is the write-ahead log's health counters, surfaced through
// IngestStats (and ktpmd's /stats "ingest" block).
type WALStats = wal.Stats

// OverlayStats describes the in-memory epoch delta overlay awaiting
// compaction.
type OverlayStats struct {
	// Entries is the number of (from, to) closure pairs the overlay
	// holds: a small superset of the pairs whose distance the acked edges
	// changed since the last compaction (an edge that shortens nothing
	// adds none). Compaction triggers when it crosses the threshold.
	Entries int `json:"entries"`
	// Tables is the number of label-pair tables the overlay touches.
	Tables int `json:"tables"`
	// EdgesApplied counts edges folded into the overlay since the last
	// compaction (including edges replayed from the WAL at startup).
	EdgesApplied int `json:"edges_applied"`
	// PendingBatches is the number of acked batches not yet compacted.
	PendingBatches int `json:"pending_batches"`
	// Watermark is the last LSN captured by the current base
	// generation; every overlay entry comes from a later LSN.
	Watermark uint64 `json:"watermark"`
}

// CompactionStats describes the background compactor.
type CompactionStats struct {
	// Count is the number of completed compactions this process.
	Count uint64 `json:"count"`
	// Generation numbers the current base snapshot; 0 is the boot base.
	Generation int `json:"generation"`
	// GenerationFile is the current generation's file name; empty while
	// serving from the boot base.
	GenerationFile string `json:"generation_file,omitempty"`
	// Threshold is the overlay entry count that triggers compaction.
	Threshold int `json:"threshold"`
	// InProgress reports a compaction currently running.
	InProgress bool `json:"in_progress"`
	// LastMS is the wall time of the last completed compaction.
	LastMS float64 `json:"last_ms"`
	// LastErr is the last compaction failure; empty when healthy. A
	// failed compaction degrades nothing — the overlay keeps serving
	// and the WAL keeps every acked record.
	LastErr string `json:"last_err,omitempty"`
}

// IngestStageNanos is the cumulative wall time, in nanoseconds, the
// write path has spent per stage this process: the four stages of an
// acked batch, in order and under the ingest mutex, then the three of a
// compaction.
type IngestStageNanos struct {
	// WALAppend is writing and (per the fsync policy) syncing the batch's
	// log record: the durability floor of an ack.
	WALAppend int64 `json:"wal_append"`
	// ClosureDelta is the per-edge searches and their overlay inserts.
	ClosureDelta int64 `json:"closure_delta"`
	// Merge is re-merging the tables the batch dirtied.
	Merge int64 `json:"merge"`
	// Publish is building the epoch's Database and swapping it in.
	Publish int64 `json:"publish"`
	// CompactWrite is writing and fsyncing generation files.
	CompactWrite int64 `json:"compact_write"`
	// CompactReopen is opening the written generation for serving.
	CompactReopen int64 `json:"compact_reopen"`
	// CompactSwap is the time a compaction holds the ingest mutex:
	// replaying batches acked meanwhile, CURRENT, and its publish (which
	// Merge and Publish count too).
	CompactSwap int64 `json:"compact_swap"`
}

// IngestStats is the write path's health snapshot.
type IngestStats struct {
	// Epoch counts atomic publishes of a new serving state (one per
	// acked batch plus one per compaction swap); it prefixes result-
	// cache keys so stale answers can never be served across a write.
	Epoch uint64 `json:"epoch"`
	// AckedBatches counts Ingest calls acknowledged (WAL-durable and
	// published).
	AckedBatches uint64 `json:"acked_batches"`
	// AckedEdges counts edges across all acked batches.
	AckedEdges uint64 `json:"acked_edges"`
	// RejectedBatches counts Ingest calls refused by validation.
	RejectedBatches uint64 `json:"rejected_batches"`
	// LastLSN is the newest acknowledged log sequence number.
	LastLSN uint64 `json:"last_lsn"`
	// StageNS is where the write path's time went, stage by stage.
	StageNS IngestStageNanos `json:"stage_ns"`
	// WAL, Overlay, and Compaction break down the pipeline stages.
	WAL        WALStats        `json:"wal"`
	Overlay    OverlayStats    `json:"overlay"`
	Compaction CompactionStats `json:"compaction"`
}

// LiveConfig configures OpenLive.
type LiveConfig struct {
	// Dir holds the write path's durable state: the WAL (Dir/wal/),
	// compacted generation snapshots (Dir/gen-*.snap), and the CURRENT
	// pointer. Created if missing.
	Dir string
	// Fsync is the WAL durability policy: "always" (default — every
	// acked batch is fsynced before the ack), "interval" (fsync every
	// 100ms; a crash may lose the tail of acked-but-unsynced batches),
	// or "never" (fsync only at rotation and close).
	Fsync string
	// CompactThreshold is the overlay entry count (changed closure
	// pairs, see OverlayStats.Entries) that triggers a background
	// compaction; 0 means 100000, negative disables compaction entirely
	// (the WAL grows unboundedly).
	CompactThreshold int
	// SnapshotFormat must be SnapshotV2, the zero value: generations are
	// always KTPMSNAP2.
	//
	// Deprecated: leave it unset. The field will be removed.
	SnapshotFormat SnapshotFormat
	// SnapshotMode is how compacted generations are opened for serving;
	// the zero value is SnapshotEager.
	SnapshotMode SnapshotMode
	// Logger receives recovery and compaction events; nil discards.
	Logger *slog.Logger
}

// maxIngestBatch bounds one Ingest call; bigger batches must be split
// by the caller. Keeps a single WAL record well under the frame cap
// and bounds how long one batch holds the ingest mutex.
const maxIngestBatch = 65536

// pendingBatch is one acked batch retained until a compaction's
// generation covers its LSN; the compactor replays retained batches
// over the fresh generation to rebuild the post-watermark overlay.
type pendingBatch struct {
	lsn   uint64
	edges []graph.Edge
}

// Live wraps a Database with a crash-safe write path: Ingest appends
// each edge batch to a WAL (fsynced per policy) before folding it into
// an in-memory closure overlay and atomically publishing a new serving
// state; queries always see a consistent epoch, with the canonical
// tie-order contract intact because the merged overlay reproduces the
// from-scratch closure entry for entry. A background compactor drains
// the overlay into a new snapshot generation written crash-atomically,
// swaps it in, and truncates the WAL. On restart, OpenLive reopens the
// newest generation and replays the WAL tail, so no acknowledged write
// is ever lost.
//
// Live implements the same query surface as *Database (it is a valid
// ktpmd serving backend); queries and Ingest may run concurrently.
type Live struct {
	dir       string
	mode      SnapshotMode
	threshold int
	blockSize int
	logger    *slog.Logger

	wal *wal.Log
	cur atomic.Pointer[Database]

	mu          sync.Mutex
	baseClosure closure.TableSource
	baseSnap    *closure.Snapshot // non-nil once a generation is serving
	combined    *graph.Graph
	delta       *closure.Delta
	merged      *closure.MergedSource // base ∪ delta as of the last publish
	stages      IngestStageNanos
	pending     []pendingBatch
	watermark   uint64
	gen         int
	genFile     string
	retired     []*closure.Snapshot // superseded generations; closed at Close
	closedFlag  bool

	epoch       atomic.Uint64
	acked       atomic.Uint64
	ackedEdges  atomic.Uint64
	rejected    atomic.Uint64
	compactions atomic.Uint64
	compacting  atomic.Bool
	lastCompact atomic.Uint64 // float64 ms bits
	compactErr  atomic.Pointer[string]
	ioBase      atomic.Pointer[IOStats] // counters from retired epochs

	compactCh chan struct{}
	closeCh   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

const liveCurrentFile = "CURRENT"

func liveGenName(gen int) string { return fmt.Sprintf("gen-%08d.snap", gen) }

// OpenLive opens (or creates) the write path state in cfg.Dir over the
// boot base db and recovers: half-written temp files are removed, the
// newest compacted generation replaces the boot base, and the WAL tail
// past the generation's watermark is replayed into the overlay. The
// boot base must be the same logical graph every restart (same -graph/
// -snapshot input); databases built with MaxDistance truncation are
// rejected, because a truncated closure cannot be maintained
// incrementally.
func OpenLive(db *Database, cfg LiveConfig) (*Live, error) {
	if db == nil {
		return nil, fmt.Errorf("ktpm: OpenLive: nil database")
	}
	if db.opt.MaxDistance > 0 {
		return nil, fmt.Errorf("ktpm: OpenLive: MaxDistance-truncated closures cannot be maintained incrementally")
	}
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ktpm: OpenLive: Dir is required")
	}
	if cfg.SnapshotFormat != SnapshotV2 {
		return nil, fmt.Errorf("ktpm: OpenLive: snapshot format %d is not written; generations are always KTPMSNAP2", int(cfg.SnapshotFormat))
	}
	pol, err := wal.ParsePolicy(cfg.Fsync)
	if err != nil {
		return nil, fmt.Errorf("ktpm: OpenLive: %w", err)
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	threshold := cfg.CompactThreshold
	if threshold == 0 {
		threshold = 100000
	}
	l := &Live{
		dir:         cfg.Dir,
		mode:        cfg.SnapshotMode,
		threshold:   threshold,
		blockSize:   db.opt.BlockSize,
		logger:      logger,
		baseClosure: db.c,
		baseSnap:    db.snap,
		combined:    db.g,
		delta:       closure.NewDelta(),
		compactCh:   make(chan struct{}, 1),
		closeCh:     make(chan struct{}),
	}
	l.ioBase.Store(&IOStats{})

	// A crash can leave *.tmp files from an interrupted atomic write;
	// they were never linked into the recovery chain, so removal is
	// always safe.
	if removed, err := fsio.RemoveGlob(cfg.Dir, "*.tmp"); err != nil {
		return nil, err
	} else if len(removed) > 0 {
		logger.Info("wal recovery: removed orphan temp files", "files", removed)
	}

	// CURRENT names the generation snapshot that replaces the boot base
	// and the WAL watermark it covers. Written atomically after every
	// compaction; absent before the first one.
	if raw, err := os.ReadFile(filepath.Join(cfg.Dir, liveCurrentFile)); err == nil {
		var name string
		var wm uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(string(raw)), "%s %d", &name, &wm); err != nil {
			return nil, fmt.Errorf("ktpm: OpenLive: corrupt CURRENT %q: %w", string(raw), err)
		}
		var gen int
		if _, err := fmt.Sscanf(name, "gen-%08d.snap", &gen); err != nil {
			return nil, fmt.Errorf("ktpm: OpenLive: corrupt CURRENT generation name %q", name)
		}
		snap, err := closure.OpenSnapshotFile(filepath.Join(cfg.Dir, name), closure.SnapMode(cfg.SnapshotMode))
		if err != nil {
			return nil, fmt.Errorf("ktpm: OpenLive: opening generation %s: %w", name, err)
		}
		l.baseClosure, l.baseSnap = snap, snap
		l.combined = snap.Graph()
		l.watermark, l.gen, l.genFile = wm, gen, name
		logger.Info("wal recovery: generation restored",
			"generation", name, "watermark", wm, "entries", snap.NumEntries())
	} else if !os.IsNotExist(err) {
		return nil, err
	}

	// Generations other than CURRENT's are garbage: either superseded,
	// or written by a compaction that crashed before the CURRENT swap.
	if ents, err := os.ReadDir(cfg.Dir); err == nil {
		for _, e := range ents {
			n := e.Name()
			if strings.HasPrefix(n, "gen-") && strings.HasSuffix(n, ".snap") && n != l.genFile {
				if err := os.Remove(filepath.Join(cfg.Dir, n)); err == nil {
					logger.Info("wal recovery: removed stale generation", "file", n)
				}
			}
		}
	}

	l.wal, err = wal.Open(filepath.Join(cfg.Dir, "wal"), wal.Options{Policy: pol})
	if err != nil {
		if l.baseSnap != nil && l.baseSnap != db.snap {
			l.baseSnap.Close()
		}
		return nil, fmt.Errorf("ktpm: OpenLive: %w", err)
	}

	// Replay every record past the generation watermark into the
	// overlay — these are acked writes the last compaction had not yet
	// absorbed when the process stopped. The publish below merges what
	// they dirtied, by the same call an acked batch goes through.
	l.merged = closure.NewMergedSource(l.combined, l.baseClosure, l.delta)
	replayed := 0
	err = l.wal.Replay(l.watermark+1, func(lsn uint64, payload []byte) error {
		edges, err := decodeIngestRecord(payload)
		if err != nil {
			return fmt.Errorf("lsn %d: %w", lsn, err)
		}
		g2, err := closure.CombineGraph(l.combined, edges)
		if err != nil {
			return fmt.Errorf("lsn %d: %w", lsn, err)
		}
		l.combined = g2
		l.delta.AddEdges(g2, edges)
		l.pending = append(l.pending, pendingBatch{lsn: lsn, edges: edges})
		replayed++
		return nil
	})
	if err != nil {
		l.wal.Close()
		if l.baseSnap != nil && l.baseSnap != db.snap {
			l.baseSnap.Close()
		}
		return nil, fmt.Errorf("ktpm: OpenLive: wal replay: %w", err)
	}
	ws := l.wal.Stats()
	logger.Info("wal recovered",
		"records_replayed", replayed,
		"overlay_entries", l.delta.Entries(),
		"last_lsn", ws.LastLSN,
		"torn_bytes_truncated", ws.TornBytesTruncated,
		"fsync", ws.FsyncPolicy,
	)

	l.publishLocked()
	l.wg.Add(1)
	go l.compactLoop()
	l.maybeCompact()
	return l, nil
}

// encodeIngestRecord frames a validated batch as one WAL payload:
// uint32 edge count, then count × (from, to, weight) int32 triples,
// little-endian.
func encodeIngestRecord(edges []graph.Edge) []byte {
	buf := make([]byte, 4+12*len(edges))
	binary.LittleEndian.PutUint32(buf, uint32(len(edges)))
	for i, e := range edges {
		off := 4 + 12*i
		binary.LittleEndian.PutUint32(buf[off:], uint32(e.From))
		binary.LittleEndian.PutUint32(buf[off+4:], uint32(e.To))
		binary.LittleEndian.PutUint32(buf[off+8:], uint32(e.Weight))
	}
	return buf
}

func decodeIngestRecord(p []byte) ([]graph.Edge, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("ingest record too short (%d bytes)", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if len(p) != 4+12*n {
		return nil, fmt.Errorf("ingest record length %d does not match %d edges", len(p), n)
	}
	edges := make([]graph.Edge, n)
	for i := range edges {
		off := 4 + 12*i
		edges[i] = graph.Edge{
			From:   int32(binary.LittleEndian.Uint32(p[off:])),
			To:     int32(binary.LittleEndian.Uint32(p[off+4:])),
			Weight: int32(binary.LittleEndian.Uint32(p[off+8:])),
		}
	}
	return edges, nil
}

// publishLocked builds and atomically publishes the serving state for
// the current base + overlay. Callers hold l.mu (or are in OpenLive
// before the Live escapes).
func (l *Live) publishLocked() {
	t0 := time.Now()
	src := l.baseClosure
	if l.delta.EdgesApplied() > 0 {
		// Re-merges the tables dirtied since the last publish and shares
		// the rest with the outgoing epoch, which readers still on it keep.
		l.merged = l.merged.Advance(l.combined, l.delta)
		src = l.merged
	}
	t1 := time.Now()
	db := &Database{
		g:   l.combined,
		c:   src,
		st:  store.NewFromSource(src, l.blockSize),
		opt: DatabaseOptions{BlockSize: l.blockSize},
	}
	// Fold the outgoing epoch's monotonic I/O counters into the base so
	// Live.IOStats never goes backwards across a publish. (Increments
	// that land on the old store after this capture are dropped — an
	// undercount, never a regression.)
	if prev := l.cur.Load(); prev != nil {
		p := prev.IOStats()
		nb := *l.ioBase.Load()
		nb.BlocksRead += p.BlocksRead
		nb.EntriesRead += p.EntriesRead
		nb.TableEntriesRead += p.TableEntriesRead
		nb.TablesRead += p.TablesRead
		nb.TableHits += p.TableHits
		l.ioBase.Store(&nb)
	}
	l.cur.Store(db)
	l.epoch.Add(1)
	l.stages.Merge += int64(t1.Sub(t0))
	l.stages.Publish += int64(time.Since(t1))
}

// Ingest validates, journals, applies, and publishes one batch of new
// edges, returning its log sequence number. The call returns only
// after the batch is durable per the fsync policy and visible to
// queries — a response implies the write survives a crash (under
// "always") and the next query epoch includes it. Batches are applied
// serially in LSN order; queries are never blocked.
//
// Cost: a batch pays for what it changes. Each edge runs four
// shortest-path searches over the combined graph and adds the affected
// sources × affected targets it finds to the overlay (nothing, for an
// edge that shortens no path); the publish then re-merges only the
// label-pair tables those candidates dirtied and shares the rest with
// the previous epoch. The one term independent of the batch is
// CombineGraph's O(V + E) copy, well under a millisecond at the sizes
// measured. Small batches are therefore fine: the floor of an ack is the
// WAL fsync. See the write-path section of docs/ARCHITECTURE.md.
func (l *Live) Ingest(edges []IngestEdge) (lsn uint64, err error) {
	if len(edges) == 0 {
		l.rejected.Add(1)
		return 0, fmt.Errorf("%w: empty batch", ErrInvalidEdge)
	}
	if len(edges) > maxIngestBatch {
		l.rejected.Add(1)
		return 0, fmt.Errorf("%w: batch of %d exceeds the %d-edge cap", ErrInvalidEdge, len(edges), maxIngestBatch)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closedFlag {
		return 0, fmt.Errorf("ktpm: Ingest on closed Live")
	}
	n := int32(l.combined.NumNodes())
	ge := make([]graph.Edge, len(edges))
	for i, e := range edges {
		w := e.Weight
		if w == 0 {
			w = 1
		}
		switch {
		case e.From < 0 || e.From >= n || e.To < 0 || e.To >= n:
			l.rejected.Add(1)
			return 0, fmt.Errorf("%w: edge %d (%d -> %d) references a node outside [0, %d)", ErrInvalidEdge, i, e.From, e.To, n)
		case e.From == e.To:
			l.rejected.Add(1)
			return 0, fmt.Errorf("%w: edge %d is a self-loop on node %d", ErrInvalidEdge, i, e.From)
		case w < 0:
			l.rejected.Add(1)
			return 0, fmt.Errorf("%w: edge %d (%d -> %d) has negative weight %d", ErrInvalidEdge, i, e.From, e.To, e.Weight)
		}
		ge[i] = graph.Edge{From: e.From, To: e.To, Weight: w}
	}
	g2, err := closure.CombineGraph(l.combined, ge)
	if err != nil {
		l.rejected.Add(1)
		return 0, fmt.Errorf("%w: %v", ErrInvalidEdge, err)
	}

	// Durability point: the WAL append (fsynced per policy) happens
	// before any in-memory state changes, so a crash after this line
	// replays the batch and a crash before it never acked anything.
	t0 := time.Now()
	lsn, err = l.wal.Append(encodeIngestRecord(ge))
	t1 := time.Now()
	l.stages.WALAppend += int64(t1.Sub(t0))
	if err != nil {
		return 0, fmt.Errorf("ktpm: ingest journal: %w", err)
	}
	l.combined = g2
	l.delta.AddEdges(g2, ge)
	l.stages.ClosureDelta += int64(time.Since(t1))
	l.pending = append(l.pending, pendingBatch{lsn: lsn, edges: ge})
	l.publishLocked()
	l.acked.Add(1)
	l.ackedEdges.Add(uint64(len(ge)))
	l.maybeCompact()
	return lsn, nil
}

// maybeCompact signals the compactor when the overlay has crossed the
// threshold. Non-blocking; a signal during a running compaction is
// retained (the channel holds one) and re-checked when it finishes.
func (l *Live) maybeCompact() {
	if l.threshold < 0 || l.delta.Entries() < l.threshold {
		return
	}
	select {
	case l.compactCh <- struct{}{}:
	default:
	}
}

func (l *Live) compactLoop() {
	defer l.wg.Done()
	for {
		select {
		case <-l.closeCh:
			return
		case <-l.compactCh:
			if err := l.compact(); err != nil {
				msg := err.Error()
				l.compactErr.Store(&msg)
				l.logger.Error("compaction failed", "err", err)
			} else {
				l.compactErr.Store(nil)
			}
		}
	}
}

// compact drains the overlay into a new snapshot generation:
//
//  1. capture the current merged source and its covered LSN W,
//  2. write gen-N+1 crash-atomically (temp + fsync + rename + dir
//     fsync) with the checksum trailer, outside the ingest lock,
//  3. open it, rebuild the overlay from batches acked after W,
//  4. atomically publish the new base, write CURRENT durably,
//  5. only then truncate the WAL below W+1 and delete the old
//     generation.
//
// A crash between any two steps recovers to an acked-write-preserving
// state: until CURRENT is durable the old generation plus the full WAL
// reconstruct everything, and after it the new generation plus the
// post-W tail do.
func (l *Live) compact() error {
	if !l.compacting.CompareAndSwap(false, true) {
		return nil
	}
	defer l.compacting.Store(false)
	t0 := time.Now()

	l.mu.Lock()
	if l.closedFlag || l.delta.EdgesApplied() == 0 {
		l.mu.Unlock()
		return nil
	}
	src := l.cur.Load().c
	w := l.wal.NextLSN() - 1
	gen := l.gen + 1
	entries := l.delta.Entries()
	l.mu.Unlock()

	name := liveGenName(gen)
	path := filepath.Join(l.dir, name)
	err := fsio.WriteFileAtomic(path, func(out io.Writer) error {
		return closure.WriteSnapshot(out, src)
	})
	if err != nil {
		return fmt.Errorf("writing %s: %w", name, err)
	}
	t1 := time.Now()
	snap, err := closure.OpenSnapshotFile(path, closure.SnapMode(l.mode))
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("reopening %s: %w", name, err)
	}
	t2 := time.Now()

	l.mu.Lock()
	if l.closedFlag {
		l.mu.Unlock()
		snap.Close()
		return nil
	}
	t3 := time.Now()
	l.stages.CompactWrite += int64(t1.Sub(t0))
	l.stages.CompactReopen += int64(t2.Sub(t1))
	unlock := func() {
		l.stages.CompactSwap += int64(time.Since(t3))
		l.mu.Unlock()
	}
	// Rebuild the overlay from batches acked while the generation was
	// being written: replaying them over the generation's graph yields
	// exactly the post-watermark delta, which the publish below merges.
	delta := closure.NewDelta()
	combined := snap.Graph()
	merged := closure.NewMergedSource(combined, snap, delta)
	var kept []pendingBatch
	for _, pb := range l.pending {
		if pb.lsn <= w {
			continue
		}
		g2, err := closure.CombineGraph(combined, pb.edges)
		if err != nil {
			// Impossible for batches that passed Ingest validation; bail
			// without swapping anything.
			unlock()
			snap.Close()
			return fmt.Errorf("replaying pending batch lsn %d: %w", pb.lsn, err)
		}
		combined = g2
		delta.AddEdges(g2, pb.edges)
		kept = append(kept, pb)
	}
	oldSnap, oldGenFile := l.baseSnap, l.genFile
	l.baseClosure, l.baseSnap = snap, snap
	l.combined, l.delta, l.merged, l.pending = combined, delta, merged, kept
	l.gen, l.genFile, l.watermark = gen, name, w

	// CURRENT must be durable before the WAL below the watermark can
	// go: a crash with new CURRENT + old WAL is fine (replay skips
	// ≤ watermark), a crash with old CURRENT + truncated WAL would lose
	// acked writes.
	if err := fsio.WriteFileAtomic(filepath.Join(l.dir, liveCurrentFile), func(out io.Writer) error {
		_, err := fmt.Fprintf(out, "%s %d\n", name, w)
		return err
	}); err != nil {
		// The in-memory swap stands (it serves the same data); recovery
		// just pays a longer WAL replay from the old generation. Keep
		// the WAL intact.
		l.publishLocked()
		if oldSnap != nil {
			l.retired = append(l.retired, oldSnap)
		}
		unlock()
		return fmt.Errorf("writing CURRENT: %w", err)
	}
	l.publishLocked()
	if oldSnap != nil {
		// In-flight queries may still hold zero-copy views into the old
		// generation; it is closed at Live.Close, not here.
		l.retired = append(l.retired, oldSnap)
	}
	unlock()

	if err := l.wal.TruncateBefore(w + 1); err != nil {
		return fmt.Errorf("truncating wal below %d: %w", w+1, err)
	}
	if oldGenFile != "" {
		os.Remove(filepath.Join(l.dir, oldGenFile))
	}
	elapsed := time.Since(t0)
	l.compactions.Add(1)
	l.lastCompact.Store(math.Float64bits(float64(elapsed.Microseconds()) / 1000))
	l.logger.Info("compaction complete",
		"generation", name,
		"watermark", w,
		"entries_absorbed", entries,
		"elapsed", elapsed.Round(time.Millisecond).String(),
	)
	l.maybeCompactPostSwap()
	return nil
}

// maybeCompactPostSwap re-checks the threshold after a compaction, for
// ingest bursts that outran the drain.
func (l *Live) maybeCompactPostSwap() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.closedFlag {
		l.maybeCompact()
	}
}

// Compact forces a synchronous compaction, regardless of threshold.
// A no-op (nil) when no edge has been acked since the current
// generation or a background compaction is already running.
func (l *Live) Compact() error { return l.compact() }

// Current returns the serving database for the newest published epoch.
// The returned *Database is immutable and remains valid (and correct
// for its epoch) after further ingests.
func (l *Live) Current() *Database { return l.cur.Load() }

// Epoch returns the serving epoch, incremented by every publish.
// Cache keys prefixed with it can never serve a pre-write answer
// after the write is acked.
func (l *Live) Epoch() uint64 { return l.epoch.Load() }

// IngestStats returns the write path's health snapshot.
func (l *Live) IngestStats() IngestStats {
	l.mu.Lock()
	st := IngestStats{
		Epoch:           l.epoch.Load(),
		AckedBatches:    l.acked.Load(),
		AckedEdges:      l.ackedEdges.Load(),
		RejectedBatches: l.rejected.Load(),
		StageNS:         l.stages,
		WAL:             l.wal.Stats(),
		Overlay: OverlayStats{
			Entries:        l.delta.Entries(),
			Tables:         l.delta.TablesTouched(),
			EdgesApplied:   l.delta.EdgesApplied(),
			PendingBatches: len(l.pending),
			Watermark:      l.watermark,
		},
		Compaction: CompactionStats{
			Count:          l.compactions.Load(),
			Generation:     l.gen,
			GenerationFile: l.genFile,
			Threshold:      l.threshold,
			InProgress:     l.compacting.Load(),
			LastMS:         math.Float64frombits(l.lastCompact.Load()),
		},
	}
	l.mu.Unlock()
	st.LastLSN = st.WAL.LastLSN
	if msg := l.compactErr.Load(); msg != nil {
		st.Compaction.LastErr = *msg
	}
	return st
}

// Close stops the compactor, syncs and closes the WAL, and releases
// every generation snapshot (current and retired). Call it only after
// queries have stopped — mmap-backed epochs hold views into the
// generation files. Idempotent.
func (l *Live) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.closeCh)
		l.wg.Wait()
		l.mu.Lock()
		l.closedFlag = true
		snaps := append([]*closure.Snapshot(nil), l.retired...)
		if l.baseSnap != nil {
			snaps = append(snaps, l.baseSnap)
		}
		l.retired = nil
		l.mu.Unlock()
		err = l.wal.Close()
		for _, s := range snaps {
			s.Close()
		}
	})
	return err
}

// --- Backend delegation -------------------------------------------------
//
// Every query-surface method serves from the newest published epoch;
// a request that started on epoch E keeps its consistent *Database
// even if ingests publish E+1 mid-flight.

// ParseQuery parses against the current epoch's graph.
func (l *Live) ParseQuery(s string) (*Query, error) { return l.cur.Load().ParseQuery(s) }

// TopK answers from the current epoch.
func (l *Live) TopK(q *Query, k int) ([]Match, error) { return l.cur.Load().TopK(q, k) }

// TopKWith answers from the current epoch.
func (l *Live) TopKWith(q *Query, k int, opt Options) ([]Match, error) {
	return l.cur.Load().TopKWith(q, k, opt)
}

// TopKBatch answers from the current epoch.
func (l *Live) TopKBatch(items []BatchItem) []BatchResult { return l.cur.Load().TopKBatch(items) }

// OpenStream streams from the epoch current at open; matches remain
// internally consistent even when ingests land mid-stream.
func (l *Live) OpenStream(q *Query, opt Options) (MatchStream, error) {
	return l.cur.Load().OpenStream(q, opt)
}

// Explain plans against the current epoch.
func (l *Live) Explain(q *Query) (*Plan, error) { return l.cur.Load().Explain(q) }

// Graph returns the current epoch's graph (boot base plus every acked
// edge).
func (l *Live) Graph() *Graph { return l.cur.Load().Graph() }

// IOStats accumulates the simulated-I/O counters across epochs, so the
// totals stay monotonic when publishes swap the underlying store.
func (l *Live) IOStats() IOStats {
	out := l.cur.Load().IOStats()
	b := l.ioBase.Load()
	out.BlocksRead += b.BlocksRead
	out.EntriesRead += b.EntriesRead
	out.TableEntriesRead += b.TableEntriesRead
	out.TablesRead += b.TablesRead
	out.TableHits += b.TableHits
	return out
}

// SnapshotStats reports the current generation's snapshot backing;
// ok=false while still serving from a non-snapshot boot base.
func (l *Live) SnapshotStats() (SnapshotStats, bool) {
	l.mu.Lock()
	snap := l.baseSnap
	l.mu.Unlock()
	if snap == nil {
		return SnapshotStats{}, false
	}
	st := SnapshotStats{
		Mode:         snap.Mode().String(),
		TablesLoaded: snap.TablesLoaded(),
		TablesTotal:  int64(snap.NumTables()),
		BytesMapped:  snap.BytesMapped(),
	}
	if err := snap.Err(); err != nil {
		st.Err = err.Error()
	}
	return st, true
}
