package ktpm

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
	cur := live.Current()
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
		lq, err := live.ParseQuery(qs)
		if err != nil {
			t.Fatalf("%s: live parse %q: %v", tag, qs, err)
		}
		for _, k := range []int{1, 7, 5000} {
			want, err := ref.TopK(rq, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := live.TopKWith(lq, k, Options{})
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
// over every kind of source (boot closure, merged overlay, reopened
// generation, overlay on a generation), all served by the store's one
// layout: nothing about an epoch's reader path depends on which side of
// an ack or a generation swap it falls.
func TestLiveMatchesRebuild(t *testing.T) {
	for _, mode := range allSnapshotModes {
		t.Run(mode.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(91))
			labels, baseEdges := liveBase(rng, 60)
			boot := buildLiveDB(t, labels, baseEdges)
			live, err := OpenLive(boot, LiveConfig{
				Dir:              t.TempDir(),
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

			if err := live.Compact(); err != nil {
				t.Fatalf("compact: %v", err)
			}
			st := live.IngestStats()
			if st.Compaction.Count != 1 || st.Overlay.Entries != 0 || st.Compaction.Generation != 1 {
				t.Fatalf("post-compaction stats: %+v", st)
			}
			if st.Overlay.Watermark != st.LastLSN {
				t.Fatalf("watermark %d != last lsn %d after compaction", st.Overlay.Watermark, st.LastLSN)
			}
			ref := buildLiveDB(t, labels, all)
			sourceIs("post-compaction", (*closure.Snapshot)(nil))
			assertLiveMatchesReference(t, "post-compaction", live, ref)

			// Ingest on top of the compacted generation: the merged
			// source now overlays a reopened snapshot base.
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
// while batches land and a compaction swaps the base underneath them —
// the atomic-publish invariant under -race.
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
// one-shot merge of the accumulated overlay and a from-scratch closure
// of the combined graph; and the source published at one epoch is
// bit-for-bit unchanged — and keeps answering the same — while readers
// query it and later epochs land on top of it (run under -race).
func TestLiveIncrementalPublish(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	labels, baseEdges := liveBase(rng, 60)
	live, err := OpenLive(buildLiveDB(t, labels, baseEdges), LiveConfig{Dir: t.TempDir(), Fsync: "never", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	check := func(tag string) {
		t.Helper()
		got := copyTables(live.Current().c)
		if want := copyTables(closure.NewMergedSource(live.combined, live.baseClosure, live.delta)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: published tables differ from a one-shot merge of the overlay", tag)
		}
		if want := copyTables(closure.Compute(live.combined, closure.Options{})); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: published tables differ from a from-scratch closure", tag)
		}
	}
	for batch := 0; batch < 4; batch++ {
		if _, err := live.Ingest(liveNewEdges(rng, 60, 3)); err != nil {
			t.Fatal(err)
		}
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
		if _, err := live.Ingest(liveNewEdges(rng, 60, 3)); err != nil {
			t.Fatal(err)
		}
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
// compaction off: a publish re-materializes no more tables than its
// batch dirtied, and the overlay stays under 2500 entries per acked
// edge (the cross-product delta held ~5200).
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
		if _, err := live.Ingest(batch); err != nil {
			t.Fatal(err)
		}
		// What this batch alone dirties: a fresh overlay fed the same edges
		// over the same combined graph.
		alone := closure.NewDelta()
		alone.AddEdges(live.combined, held[i:i+4])
		if got := live.merged.TablesRemerged(); got > alone.TablesTouched() {
			t.Fatalf("batch %d: publish re-materialized %d tables, the batch dirtied %d", i/4, got, alone.TablesTouched())
		}
	}
	st := live.IngestStats()
	if st.AckedEdges != 48 || st.Compaction.Count != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if per := float64(st.Overlay.Entries) / float64(st.AckedEdges); per >= 2500 {
		t.Fatalf("overlay holds %.0f entries per acked edge (%d / %d), want < 2500", per, st.Overlay.Entries, st.AckedEdges)
	} else {
		t.Logf("overlay: %.0f entries per acked edge over %d tables", per, st.Overlay.Tables)
	}
}
