package ktpm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ktpm/internal/closure"
	"ktpm/internal/gen"
	"ktpm/internal/graph"
)

// liveBase generates a reproducible base graph as raw parts, so tests
// can rebuild the "never ingested" reference database from base plus
// any ingested edge set.
func liveBase(rng *rand.Rand, n int) (labels []string, edges []IngestEdge) {
	names := []string{"a", "b", "c", "d", "e"}
	labels = make([]string, n)
	for i := range labels {
		labels[i] = names[rng.Intn(len(names))]
	}
	for i := 1; i < n; i++ {
		for e := 0; e < 2; e++ {
			edges = append(edges, IngestEdge{From: int32(rng.Intn(i)), To: int32(i), Weight: int32(1 + rng.Intn(3))})
		}
	}
	return labels, edges
}

func liveNewEdges(rng *rand.Rand, n, count int) []IngestEdge {
	var out []IngestEdge
	for len(out) < count {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		out = append(out, IngestEdge{From: u, To: v, Weight: int32(1 + rng.Intn(3))})
	}
	return out
}

func buildLiveDB(t testing.TB, labels []string, edges []IngestEdge) *Database {
	t.Helper()
	gb := NewGraphBuilder()
	for _, l := range labels {
		gb.AddNode(l)
	}
	for _, e := range edges {
		gb.AddWeightedEdge(e.From, e.To, e.Weight)
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildDatabase(g, DatabaseOptions{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

var liveQueries = []string{"a(b)", "a(b,c(d))", "a(*,c)", "a(/b)", "c(d,e)", "e"}

// assertLiveMatchesReference checks that the live backend answers every
// query byte-identically to a from-scratch BuildDatabase over the same
// combined edge set — unsharded and at shard counts {1, 2, 4}.
func assertLiveMatchesReference(t *testing.T, tag string, live *Live, ref *Database) {
	t.Helper()
	assertServesReference(t, tag, live.Current(), ref)
}

// assertServesReference is assertLiveMatchesReference for one database.
func assertServesReference(t *testing.T, tag string, cur, ref *Database) {
	t.Helper()
	sharded := make(map[int]*ShardedDatabase)
	for _, n := range []int{1, 2, 4} {
		sh, err := cur.Shard(n, PartitionByLabel())
		if err != nil {
			t.Fatalf("%s: shard %d: %v", tag, n, err)
		}
		sharded[n] = sh
	}
	for _, qs := range liveQueries {
		rq, err := ref.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		lq, err := cur.ParseQuery(qs)
		if err != nil {
			t.Fatalf("%s: live parse %q: %v", tag, qs, err)
		}
		for _, k := range []int{1, 7, 5000} {
			want, err := ref.TopK(rq, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cur.TopKWith(lq, k, Options{})
			if err != nil {
				t.Fatalf("%s: live %q k=%d: %v", tag, qs, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: query %q k=%d: live result differs from from-scratch rebuild\n got %v\nwant %v", tag, qs, k, got, want)
			}
			for n, sh := range sharded {
				gotSh, err := sh.TopK(lq, k)
				if err != nil {
					t.Fatalf("%s: shards=%d %q k=%d: %v", tag, n, qs, k, err)
				}
				if !reflect.DeepEqual(gotSh, want) {
					t.Fatalf("%s: shards=%d query %q k=%d: sharded live result differs", tag, n, qs, k)
				}
			}
		}
	}
}

// TestLiveMatchesRebuild is the write-path result-identity property:
// after every ingest batch, and both before and after compaction, the
// overlay-merged serving state must answer byte-identically to a
// from-scratch BuildDatabase over base+delta edges — across generation
// backing modes and shard counts {1, 2, 4}. The epochs it walks are built
// over the boot closure and the merged overlay, all served by the store's
// one layout. A compaction is a checkpoint: the epoch it wrote keeps
// serving as it was, and the generation file — byte-identical to the
// reference's snapshot — answers like the reference when opened in each
// mode, which is what a restart serves.
func TestLiveMatchesRebuild(t *testing.T) {
	for _, mode := range allSnapshotModes {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(91))
			labels, baseEdges := liveBase(rng, 60)
			boot := buildLiveDB(t, labels, baseEdges)
			dir := t.TempDir()
			live, err := OpenLive(boot, LiveConfig{
				Dir:              dir,
				Fsync:            "never", // durability is exercised elsewhere; keep the property loop fast
				CompactThreshold: -1,      // compaction is driven explicitly below
				SnapshotMode:     mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			// sourceIs pins which kind of source the current epoch's
			// store is carved from, so the identity checks below are
			// known to cover each of them.
			sourceIs := func(tag string, want any) {
				t.Helper()
				if got := reflect.TypeOf(live.Current().st.Source()); got != reflect.TypeOf(want) {
					t.Fatalf("%s: epoch source is %v, want %T", tag, got, want)
				}
			}
			sourceIs("boot", (*closure.Closure)(nil))

			all := append([]IngestEdge(nil), baseEdges...)
			epoch := live.Epoch()
			for batch := 0; batch < 3; batch++ {
				edges := liveNewEdges(rng, 60, 6+rng.Intn(5))
				if _, err := live.Ingest(edges); err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if e := live.Epoch(); e <= epoch {
					t.Fatalf("batch %d: epoch did not advance (%d -> %d)", batch, epoch, e)
				} else {
					epoch = e
				}
				all = append(all, edges...)
				ref := buildLiveDB(t, labels, all)
				sourceIs("pre-compaction", (*closure.MergedSource)(nil))
				assertLiveMatchesReference(t, fmt.Sprintf("batch %d (pre-compaction)", batch), live, ref)
			}

			before := live.Current()
			if err := live.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			st := live.IngestStats()
			if st.Compaction.Count != 1 || st.Overlay.Entries != 0 || st.Overlay.EdgesApplied != 0 ||
				st.Overlay.PendingBatches != 0 || st.Compaction.Generation != 1 {
				t.Fatalf("post-compaction stats: %+v", st)
			}
			if st.Overlay.Watermark != st.LastLSN {
				t.Fatalf("watermark %d != last lsn %d after compaction", st.Overlay.Watermark, st.LastLSN)
			}
			if live.Current() != before || live.Epoch() != epoch {
				t.Fatal("compaction published a new epoch; a checkpoint must leave the serving one as it is")
			}
			ref := buildLiveDB(t, labels, all)
			sourceIs("post-compaction", (*closure.MergedSource)(nil))
			assertLiveMatchesReference(t, "post-compaction", live, ref)

			genPath := filepath.Join(dir, st.Compaction.GenerationFile)
			got, err := os.ReadFile(genPath)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := SaveSnapshot(&want, ref); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatal("the generation compaction wrote differs from the reference's snapshot")
			}
			gdb, err := OpenSnapshot(genPath, SnapshotOptions{Mode: mode, BlockSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			assertServesReference(t, "reopened generation", gdb, ref)
			gdb.Close()

			// Ingest on top of the checkpointed epoch: the merged source
			// keeps splicing over the boot closure.
			edges := liveNewEdges(rng, 60, 8)
			if _, err := live.Ingest(edges); err != nil {
				t.Fatal(err)
			}
			all = append(all, edges...)
			ref = buildLiveDB(t, labels, all)
			sourceIs("post-compaction ingest", (*closure.MergedSource)(nil))
			assertLiveMatchesReference(t, "post-compaction ingest", live, ref)
		})
	}
}

// genFiles lists the generation files in dir.
func genFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "gen-*.snap"))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	return names
}

// TestLiveHoldsOneGeneration runs 20 ingest + Compact rounds on a Live
// configured for mmap generations: a compaction writes a generation and
// deletes the previous one, and never maps, decodes or keeps what it
// wrote. So exactly one generation file is on disk after every round, no
// mapping of a deleted generation is left in the process, and the heap
// in use after a GC does not grow with the number of generations
// written. Every node of the base graph reaches node 0 and node 0
// reaches every node, so the closure holds every pair from the start
// and ingest only lowers distances: the closure's size stays put, and
// with five labels every table has differed from the boot base long
// before round 5.
func TestLiveHoldsOneGeneration(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	labels, baseEdges := liveBase(rng, 300)
	for v := int32(1); v < 300; v++ {
		baseEdges = append(baseEdges, IngestEdge{From: v, To: 0, Weight: 3})
	}
	dir := t.TempDir()
	live, err := OpenLive(buildLiveDB(t, labels, baseEdges), LiveConfig{
		Dir: dir, Fsync: "never", CompactThreshold: -1, SnapshotMode: SnapshotMMap,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	all := append([]IngestEdge(nil), baseEdges...)
	var heap5 uint64
	for round := 1; round <= 20; round++ {
		edges := liveNewEdges(rng, 300, 3)
		if _, err := live.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		all = append(all, edges...)
		if err := live.Compact(); err != nil {
			t.Fatal(err)
		}
		if got, want := genFiles(t, dir), []string{liveGenName(round)}; !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: generation files %v, want %v", round, got, want)
		}
		if maps, err := os.ReadFile("/proc/self/maps"); err == nil {
			for _, line := range strings.Split(string(maps), "\n") {
				if strings.Contains(line, dir) && strings.HasSuffix(line, "(deleted)") {
					t.Fatalf("round %d: the process maps a deleted generation: %s", round, line)
				}
			}
		}
		if round == 5 || round == 20 {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if round == 5 {
				heap5 = ms.HeapInuse
			} else if slack := uint64(4 << 20); ms.HeapInuse > heap5+slack {
				t.Fatalf("heap in use grew from %d B at round 5 to %d B at round 20 (slack %d B)", heap5, ms.HeapInuse, slack)
			} else {
				t.Logf("heap in use: %d B at round 5, %d B at round 20", heap5, ms.HeapInuse)
			}
		}
	}
	assertLiveMatchesReference(t, "after 20 checkpoints", live, buildLiveDB(t, labels, all))
}

// TestLiveCompactCurrentFailure makes the CURRENT rename fail (a
// non-empty directory sits at its name): the compaction errs, removes
// the generation it wrote, and changes no bookkeeping — the older
// generation stays the only one on disk, the WAL keeps every record —
// and once the obstacle is gone a compaction and a reopen serve the
// reference.
func TestLiveCompactCurrentFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	labels, baseEdges := liveBase(rng, 50)
	dir := t.TempDir()
	cfg := LiveConfig{Dir: dir, Fsync: "always", CompactThreshold: -1, SnapshotMode: SnapshotLazy}
	live, err := OpenLive(buildLiveDB(t, labels, baseEdges), cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := append([]IngestEdge(nil), baseEdges...)
	ingest := func() {
		t.Helper()
		edges := liveNewEdges(rng, 50, 4)
		if _, err := live.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		all = append(all, edges...)
	}
	ingest()
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	ingest()
	ingest()

	current := filepath.Join(dir, liveCurrentFile)
	if err := os.Remove(current); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(current, "obstacle"), 0o755); err != nil {
		t.Fatal(err)
	}
	before := live.IngestStats()
	if err := live.Compact(); err == nil {
		t.Fatal("Compact succeeded with a directory at CURRENT")
	}
	after := live.IngestStats()
	if after.Overlay != before.Overlay || after.Compaction.Count != before.Compaction.Count ||
		after.Compaction.Generation != before.Compaction.Generation ||
		after.Compaction.GenerationFile != before.Compaction.GenerationFile || after.WAL.Segments != before.WAL.Segments {
		t.Fatalf("a failed CURRENT write changed the bookkeeping:\nbefore %+v\nafter  %+v", before, after)
	}
	if got, want := genFiles(t, dir), []string{liveGenName(1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("generation files after the failure %v, want %v", got, want)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
		t.Fatalf("temp files left behind: %v", tmps)
	}
	ref := buildLiveDB(t, labels, all)
	assertLiveMatchesReference(t, "after the failed compaction", live, ref)

	if err := os.RemoveAll(current); err != nil {
		t.Fatal(err)
	}
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	if got, want := genFiles(t, dir), []string{liveGenName(2)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("generation files after the retry %v, want %v", got, want)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	live, err = OpenLive(buildLiveDB(t, labels, baseEdges), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	if st := live.IngestStats(); st.Compaction.Generation != 2 || st.Overlay.PendingBatches != 0 {
		t.Fatalf("reopen stats: %+v", st)
	}
	assertLiveMatchesReference(t, "reopened after the retry", live, ref)
}

// TestLiveRecovery closes and reopens the write path at every stage:
// WAL-only (replay rebuilds the overlay), post-compaction (CURRENT
// restores the generation), and post-compaction-plus-tail. Every
// reopen must serve byte-identically to the never-closed reference.
func TestLiveRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	labels, baseEdges := liveBase(rng, 50)
	dir := t.TempDir()
	cfg := LiveConfig{Dir: dir, Fsync: "always", CompactThreshold: -1, SnapshotMode: SnapshotLazy}

	open := func() *Live {
		t.Helper()
		// A fresh boot database every time, as a real restart would build.
		live, err := OpenLive(buildLiveDB(t, labels, baseEdges), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return live
	}

	live := open()
	all := append([]IngestEdge(nil), baseEdges...)
	var lastLSN uint64
	for batch := 0; batch < 3; batch++ {
		edges := liveNewEdges(rng, 50, 5)
		lsn, err := live.Ingest(edges)
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
		all = append(all, edges...)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	// WAL-only recovery: no compaction ever ran, so the overlay must be
	// rebuilt purely from the journal.
	live = open()
	st := live.IngestStats()
	if st.WAL.RecoveredRecords != 3 || st.WAL.LastLSN != lastLSN {
		t.Fatalf("wal-only recovery stats: %+v", st.WAL)
	}
	if st.Overlay.PendingBatches != 3 {
		t.Fatalf("recovered pending batches = %d, want 3", st.Overlay.PendingBatches)
	}
	assertLiveMatchesReference(t, "wal-only recovery", live, buildLiveDB(t, labels, all))

	// Compact, ingest a tail, close: recovery must restore the
	// generation and replay only the tail.
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	watermark := live.IngestStats().Overlay.Watermark
	tail := liveNewEdges(rng, 50, 4)
	if _, err := live.Ingest(tail); err != nil {
		t.Fatal(err)
	}
	all = append(all, tail...)
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}

	live = open()
	defer live.Close()
	st = live.IngestStats()
	if st.Compaction.Generation != 1 {
		t.Fatalf("recovered generation = %d, want 1", st.Compaction.Generation)
	}
	if st.Overlay.Watermark != watermark {
		t.Fatalf("recovered watermark = %d, want %d", st.Overlay.Watermark, watermark)
	}
	if st.Overlay.PendingBatches != 1 {
		t.Fatalf("recovered pending batches = %d, want 1 (only the post-compaction tail)", st.Overlay.PendingBatches)
	}
	assertLiveMatchesReference(t, "generation+tail recovery", live, buildLiveDB(t, labels, all))

	// Compacting the recovered tail and recovering once more exercises
	// generation N -> N+1 supersession.
	if err := live.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
	live = open()
	defer live.Close()
	st = live.IngestStats()
	if st.Compaction.Generation != 2 || st.Overlay.PendingBatches != 0 {
		t.Fatalf("second recovery stats: %+v", st)
	}
	if st.WAL.RecoveredRecords != 0 {
		t.Fatalf("wal should be empty after compaction, recovered %d records", st.WAL.RecoveredRecords)
	}
	assertLiveMatchesReference(t, "second generation recovery", live, buildLiveDB(t, labels, all))
}

func TestLiveIngestValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	labels, baseEdges := liveBase(rng, 20)
	live, err := OpenLive(buildLiveDB(t, labels, baseEdges), LiveConfig{Dir: t.TempDir(), Fsync: "never"})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()

	for name, batch := range map[string][]IngestEdge{
		"empty batch":  {},
		"unknown node": {{From: 0, To: 99, Weight: 1}},
		"negative id":  {{From: -1, To: 2, Weight: 1}},
		"self loop":    {{From: 3, To: 3, Weight: 1}},
		"negative w":   {{From: 0, To: 1, Weight: -2}},
	} {
		if _, err := live.Ingest(batch); !errors.Is(err, ErrInvalidEdge) {
			t.Fatalf("%s: err = %v, want ErrInvalidEdge", name, err)
		}
	}
	st := live.IngestStats()
	if st.RejectedBatches != 5 || st.AckedBatches != 0 || st.WAL.LastLSN != 0 {
		t.Fatalf("rejected batches must not touch the WAL: %+v", st)
	}

	// Weight 0 means unit weight and is accepted.
	if _, err := live.Ingest([]IngestEdge{{From: 0, To: 5}}); err != nil {
		t.Fatalf("unit-weight ingest: %v", err)
	}

	// MaxDistance-truncated bases are rejected up front.
	g, _ := func() (*Graph, error) {
		gb := NewGraphBuilder()
		gb.AddNode("a")
		gb.AddNode("b")
		gb.AddEdge(0, 1)
		return gb.Build()
	}()
	trunc, err := BuildDatabase(g, DatabaseOptions{MaxDistance: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLive(trunc, LiveConfig{Dir: t.TempDir()}); err == nil {
		t.Fatal("OpenLive accepted a MaxDistance-truncated database")
	}
}

// TestLiveConcurrentQueryIngest runs queries against the live backend
// while batches land and compactions checkpoint them — the
// atomic-publish invariant under -race.
func TestLiveConcurrentQueryIngest(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	labels, baseEdges := liveBase(rng, 60)
	live, err := OpenLive(buildLiveDB(t, labels, baseEdges), LiveConfig{
		Dir: t.TempDir(), Fsync: "never", CompactThreshold: 200, SnapshotMode: SnapshotMMap,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qs := liveQueries[(w+i)%len(liveQueries)]
				q, err := live.ParseQuery(qs)
				if err != nil {
					t.Errorf("parse %q: %v", qs, err)
					return
				}
				if _, err := live.TopKWith(q, 10, Options{}); err != nil {
					t.Errorf("query %q: %v", qs, err)
					return
				}
			}
		}(w)
	}

	all := append([]IngestEdge(nil), baseEdges...)
	for batch := 0; batch < 12; batch++ {
		edges := liveNewEdges(rng, 60, 6)
		if _, err := live.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		all = append(all, edges...)
	}
	close(stop)
	wg.Wait()
	if err := live.Compact(); err != nil { // drain whatever is left, deterministically
		t.Fatal(err)
	}
	assertLiveMatchesReference(t, "after concurrent traffic", live, buildLiveDB(t, labels, all))
	if err := live.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyTables deep-copies every table of a source, keyed by label pair.
func copyTables(src closure.TableSource) map[[2]int32][]closure.Entry {
	out := make(map[[2]int32][]closure.Entry)
	src.Tables(func(alpha, beta int32, entries []closure.Entry) bool {
		out[[2]int32{alpha, beta}] = append([]closure.Entry(nil), entries...)
		return true
	})
	return out
}

// TestLiveIncrementalPublish pins the incremental merge end to end:
// after every batch the published source equals, table for table, a
// one-shot merge into the boot closure of every batch acked so far and
// a from-scratch closure of the combined graph; and the source
// published at one epoch is bit-for-bit unchanged — and keeps answering
// the same — while readers query it and later epochs land on top of it
// (run under -race).
func TestLiveIncrementalPublish(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	labels, baseEdges := liveBase(rng, 60)
	live, err := OpenLive(buildLiveDB(t, labels, baseEdges), LiveConfig{Dir: t.TempDir(), Fsync: "never", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	// all logs every acked batch over the boot closure, never advanced.
	boot, g, all := live.baseClosure, live.combined, closure.NewDelta()
	ingest := func(edges []IngestEdge) {
		t.Helper()
		if _, err := live.Ingest(edges); err != nil {
			t.Fatal(err)
		}
		ge := make([]graph.Edge, len(edges))
		for i, e := range edges {
			ge[i] = graph.Edge{From: e.From, To: e.To, Weight: e.Weight}
		}
		var err error
		if g, err = closure.CombineGraph(g, ge); err != nil {
			t.Fatal(err)
		}
		all.AddEdges(g, ge)
	}
	check := func(tag string) {
		t.Helper()
		got := copyTables(live.Current().c)
		if want := copyTables(closure.NewMergedSource(live.combined, boot, all)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: published tables differ from a one-shot merge of every batch", tag)
		}
		if want := copyTables(closure.Compute(live.combined, closure.Options{})); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: published tables differ from a from-scratch closure", tag)
		}
	}
	for batch := 0; batch < 4; batch++ {
		ingest(liveNewEdges(rng, 60, 3))
		check(fmt.Sprintf("batch %d", batch))
	}

	// Epoch E: remember its tables and its answers, then read it from four
	// goroutines while eight more batches are published over it.
	old := live.Current()
	oldTables := copyTables(old.c)
	type probe struct {
		q    *Query
		want []Match
	}
	var probes []probe
	for _, qs := range liveQueries {
		q, err := old.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := old.TopK(q, 25)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{q, want})
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := probes[i%len(probes)]
				got, err := old.TopK(p.q, 25)
				if err != nil || !reflect.DeepEqual(got, p.want) {
					t.Errorf("epoch E answered differently once later epochs landed (err %v)", err)
					return
				}
			}
		}(w)
	}
	for batch := 0; batch < 8; batch++ {
		ingest(liveNewEdges(rng, 60, 3))
	}
	close(stop)
	wg.Wait()
	if !reflect.DeepEqual(copyTables(old.c), oldTables) {
		t.Fatal("a published epoch's tables changed after later epochs landed")
	}
	check("after 12 batches")
}

// TestLiveIngestCostGuard is the count-based (no wall clock) guard on
// what a batch costs, on the benchmark's write workload — an 800-node
// power-law graph taking back held-out edges four at a time with
// compaction off: a publish re-materializes exactly the tables whose
// contents the batch changed and shares every other with the previous
// epoch, and the pairs the batches log stay under 2500 per acked edge
// (the cross-product delta held ~5200). TestAdvanceCostGuard in
// internal/closure bounds the bytes one such publish allocates.
func TestLiveIngestCostGuard(t *testing.T) {
	full := gen.PowerLaw(gen.PowerLawConfig{Nodes: 800, AvgOutDegree: 5, Labels: 150, Window: 50, Communities: 10, Seed: 21})
	var edges []graph.Edge
	full.Edges(func(e graph.Edge) bool {
		edges = append(edges, e)
		return true
	})
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	held, kept := edges[:48], edges[48:]
	gb := NewGraphBuilder()
	for v := int32(0); v < int32(full.NumNodes()); v++ {
		gb.AddNode(full.LabelName(v))
	}
	for _, e := range kept {
		gb.AddWeightedEdge(e.From, e.To, e.Weight)
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildDatabase(g, DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	live, err := OpenLive(db, LiveConfig{Dir: t.TempDir(), Fsync: "never", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	for i := 0; i+4 <= len(held); i += 4 {
		batch := make([]IngestEdge, 4)
		for j, e := range held[i : i+4] {
			batch[j] = IngestEdge{From: e.From, To: e.To, Weight: e.Weight}
		}
		prev := live.Current().c
		if _, err := live.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		changed := 0
		live.merged.Tables(func(alpha, beta int32, entries []closure.Entry) bool {
			old := prev.Table(alpha, beta)
			if len(old) > 0 && &old[0] == &entries[0] {
				return true // shared with the previous epoch
			}
			if reflect.DeepEqual(old, entries) {
				t.Fatalf("batch %d: publish re-materialized table (%d,%d) without changing it", i/4, alpha, beta)
			}
			changed++
			return true
		})
		if got := live.merged.TablesRemerged(); got != changed {
			t.Fatalf("batch %d: publish re-materialized %d tables, the batch changed %d", i/4, got, changed)
		}
	}
	st := live.IngestStats()
	if st.AckedEdges != 48 || st.Compaction.Count != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if per := float64(st.Overlay.Entries) / float64(st.AckedEdges); per >= 2500 {
		t.Fatalf("batches logged %.0f pairs per acked edge (%d / %d), want < 2500", per, st.Overlay.Entries, st.AckedEdges)
	} else {
		t.Logf("overlay: %.0f pairs logged per acked edge, %d tables merged", per, st.Overlay.Tables)
	}
}
