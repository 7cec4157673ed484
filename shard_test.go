package ktpm

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"ktpm/internal/lazy"
	"ktpm/internal/shard"
)

// sortedMatches returns ms in the sharded path's canonical order: by
// score, then node bindings lexicographically. Distinct matches always
// differ in some binding, so the order is total.
func sortedMatches(ms []Match) []Match {
	out := append([]Match(nil), ms...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		a, b := out[i].Nodes, out[j].Nodes
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	return out
}

// checkDetached fails unless the matches' Nodes are consecutive n_T-wide
// windows of one array: a kept result then pins its own bindings and
// nothing of the enumerator's slabs, whose match buffers are carved in
// emission order, not canonical order.
func checkDetached(t *testing.T, q *Query, ms []Match) {
	t.Helper()
	nT := q.NumNodes()
	for i, m := range ms {
		if cap(m.Nodes) != nT {
			t.Fatalf("match %d: cap(Nodes) = %d, want n_T = %d", i, cap(m.Nodes), nT)
		}
		if want := unsafe.Add(unsafe.Pointer(unsafe.SliceData(ms[0].Nodes)), 4*i*nT); unsafe.Pointer(unsafe.SliceData(m.Nodes)) != want {
			t.Fatalf("match %d: Nodes is not window %d of the result's own array", i, i)
		}
	}
}

// TestShardedTopKMatchesSingleDatabase is the result-identity property
// test: on randomized graphs, sharded TopK must return byte-identical
// slices for every shard count in {1,2,4,7} and both partitioners, equal
// to the single database's full enumeration in canonical order; every
// prefix k must be exactly the first k entries of that canonical order,
// with the same score sequence the single database produces. Chunk
// boundaries inside the merge are covered by lazy's TestMergeMatchesOracle.
func TestShardedTopKMatchesSingleDatabase(t *testing.T) {
	queries := []string{"a(b)", "a(b,c)", "b(c(d))", "a(*,c)", "a(/b)", "c(d,e)", "a(b,b)", "e"}
	shardCounts := []int{1, 2, 4, 7}
	partitioners := []Partitioner{PartitionByHash(), PartitionByLabel()}
	for _, seed := range []int64{3, 17} {
		db := randomDatabase(t, 90, seed)
		sharded := make(map[string]*ShardedDatabase)
		for _, n := range shardCounts {
			for _, p := range partitioners {
				sdb, err := db.Shard(n, p)
				if err != nil {
					t.Fatal(err)
				}
				sharded[fmt.Sprintf("%d/%s", n, p.Name())] = sdb
			}
		}
		for _, qs := range queries {
			q, err := db.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			total := db.CountMatches(q)
			if total > 8000 {
				t.Fatalf("seed %d query %q has %d matches; shrink the test graph", seed, qs, total)
			}
			kFull := int(total) + 3 // past the end: both paths enumerate everything
			single, err := db.TopK(q, kFull)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(single)) != total {
				t.Fatalf("seed %d query %q: single path returned %d of %d matches", seed, qs, len(single), total)
			}
			checkDetached(t, q, single)
			canonical := sortedMatches(single)
			for name, sdb := range sharded {
				got, err := sdb.TopK(q, kFull)
				if err != nil {
					t.Fatalf("seed %d query %q shards %s: %v", seed, qs, name, err)
				}
				checkDetached(t, q, got)
				if !reflect.DeepEqual(got, canonical) {
					t.Fatalf("seed %d query %q shards %s: full enumeration differs from single database", seed, qs, name)
				}
				for _, k := range []int{1, 5, len(canonical) / 2} {
					if k <= 0 || k > len(canonical) {
						continue
					}
					gotK, err := sdb.TopK(q, k)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gotK, canonical[:k]) {
						t.Fatalf("seed %d query %q shards %s k=%d: not the canonical prefix", seed, qs, name, k)
					}
					singleK, err := db.TopK(q, k)
					if err != nil {
						t.Fatal(err)
					}
					for i := range gotK {
						if gotK[i].Score != singleK[i].Score {
							t.Fatalf("seed %d query %q shards %s k=%d: score[%d]=%d, single database has %d",
								seed, qs, name, k, i, gotK[i].Score, singleK[i].Score)
						}
					}
				}
			}
		}
	}
}

// TestShardedTopKUniformTies drives the tie-drain's compaction path: a
// star graph where every match of "a(b)" has the same score, so the
// k-th-score tie group is the whole match space. The merge must stay in
// O(k) memory (compaction) and still return the canonical k smallest.
func TestShardedTopKUniformTies(t *testing.T) {
	gb := NewGraphBuilder()
	a := gb.AddNode("a")
	const fanout = 500
	for i := 0; i < fanout; i++ {
		gb.AddEdge(a, gb.AddNode("b"))
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := BuildDatabase(g, DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	single, err := db.TopK(q, fanout)
	if err != nil {
		t.Fatal(err)
	}
	canonical := sortedMatches(single)
	for _, n := range []int{1, 3, 7} {
		sdb, err := db.Shard(n, PartitionByHash())
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 4, fanout / 2, fanout} {
			got, err := sdb.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, canonical[:k]) {
				t.Fatalf("shards=%d k=%d: not the canonical prefix of the tie group", n, k)
			}
		}
	}
}

// TestShardedTopKAcrossAlgorithms holds the sharded database to the
// brute-force oracle match for match, and checks that the baselines over
// the wrapped database produce the same score sequence.
func TestShardedTopKAcrossAlgorithms(t *testing.T) {
	db := randomDatabase(t, 150, 5)
	sdb, err := db.Shard(4, nil) // nil partitioner defaults to hash
	if err != nil {
		t.Fatal(err)
	}
	q, err := sdb.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	got, err := sdb.TopK(q, 15)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleTopK(db, q, 15)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded TopK differs from the oracle")
	}
	for _, b := range baselines {
		if ms := runBaseline(db, q, 15, b); !reflect.DeepEqual(scoresOf(ms), scoresOf(want)) {
			t.Fatalf("%v: scores %v, want %v", b, scoresOf(ms), scoresOf(want))
		}
	}
}

// TestShardedConcurrentQueries hammers one ShardedDatabase from many
// goroutines (run with -race, as CI does): the shared store and the
// per-shard counts must stay coherent while queries overlap.
func TestShardedConcurrentQueries(t *testing.T) {
	db := randomDatabase(t, 250, 11)
	sdb, err := db.Shard(4, PartitionByLabel())
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{"a(b)", "a(b,c)", "b(c(d))", "a(*,c)", "c(d,e)"}
	const k = 10
	want := make(map[string][]Match)
	for _, qs := range queries {
		q, err := sdb.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := sdb.TopK(q, k)
		if err != nil {
			t.Fatal(err)
		}
		want[qs] = ms
	}
	var wg sync.WaitGroup
	for w := 0; w < 12; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 6; i++ {
				qs := queries[rng.Intn(len(queries))]
				q, err := sdb.ParseQuery(qs)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				ms, err := sdb.TopK(q, k)
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// Sharded results are deterministic, so concurrent runs
				// must reproduce the golden answer byte for byte.
				if !reflect.DeepEqual(ms, want[qs]) {
					t.Errorf("worker %d: %q diverged under concurrency", w, qs)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stats := sdb.ShardStats()
	if stats.Shards != 4 || stats.Partitioner != "label" {
		t.Fatalf("ShardStats = %d/%s, want 4/label", stats.Shards, stats.Partitioner)
	}
	var vertices int
	var merged int64
	for _, ps := range stats.PerShard {
		vertices += ps.Vertices
		merged += ps.Merged
	}
	if vertices != sdb.Graph().NumNodes() {
		t.Fatalf("shard vertex counts sum to %d, want %d", vertices, sdb.Graph().NumNodes())
	}
	if merged == 0 {
		t.Fatal("no matches recorded as merged")
	}
	if io := sdb.IOStats(); io.EntriesRead < io.TableEntriesRead {
		t.Fatalf("I/O counters inconsistent: EntriesRead %d < TableEntriesRead %d", io.EntriesRead, io.TableEntriesRead)
	}
}

// TestShardedTablesReadFlat is the shared-plane accounting property: the
// number of summary tables derived from the simulated disk must not grow
// with the shard count — each distinct table is derived once.
func TestShardedTablesReadFlat(t *testing.T) {
	queries := []string{"a(b)", "a(b,c)", "b(c(d))", "a(*,c)"}
	run := func(d *shard.DB, db *Database) int64 {
		for _, qs := range queries {
			q, err := db.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			d.TopK(q.t, 10, lazy.Options{}, func([]*lazy.Match) {})
		}
		return db.IOStats().TablesRead
	}
	derives := make(map[int]int64)
	for _, n := range []int{1, 2, 4, 8} {
		db := randomDatabase(t, 90, 3)
		sdb, err := shard.New(db.st, n, partitionerAdapter{PartitionByLabel()})
		if err != nil {
			t.Fatal(err)
		}
		derives[n] = run(sdb, db)
	}
	if derives[1] == 0 {
		t.Fatal("workload derived no tables; the property is vacuous")
	}
	for n, d := range derives {
		if d != derives[1] {
			t.Fatalf("shards=%d derived %d tables, shards=1 derived %d; want flat", n, d, derives[1])
		}
	}
}

// TestPartitioners checks the assignment invariants the shard layer
// relies on: every vertex lands in range, and the label-aware strategy
// splits every label's candidates with counts differing by at most one.
func TestPartitioners(t *testing.T) {
	db := randomDatabase(t, 120, 9)
	g := db.Graph()
	for _, n := range []int{1, 2, 3, 8} {
		for _, p := range []Partitioner{PartitionByHash(), PartitionByLabel()} {
			assign := p.Partition(g, n)
			if len(assign) != g.NumNodes() {
				t.Fatalf("%s/%d: assigned %d of %d vertices", p.Name(), n, len(assign), g.NumNodes())
			}
			for v, s := range assign {
				if s < 0 || int(s) >= n {
					t.Fatalf("%s/%d: vertex %d in shard %d", p.Name(), n, v, s)
				}
			}
		}
		// Per-label balance of the label-aware strategy.
		assign := PartitionByLabel().Partition(g, n)
		counts := make(map[string][]int)
		for v := int32(0); int(v) < g.NumNodes(); v++ {
			l := g.LabelOf(v)
			if counts[l] == nil {
				counts[l] = make([]int, n)
			}
			counts[l][assign[v]]++
		}
		for l, c := range counts {
			min, max := c[0], c[0]
			for _, x := range c[1:] {
				if x < min {
					min = x
				}
				if x > max {
					max = x
				}
			}
			if max-min > 1 {
				t.Fatalf("label %q splits %v across %d shards; want counts within 1", l, c, n)
			}
		}
	}
	if _, err := db.Shard(0, nil); err == nil {
		t.Fatal("Shard(0) succeeded, want error")
	}
	if p, ok := ParsePartitioner("LABEL"); !ok || p.Name() != "label" {
		t.Fatalf("ParsePartitioner(LABEL) = %v, %v", p, ok)
	}
	if _, ok := ParsePartitioner("quantum"); ok {
		t.Fatal("ParsePartitioner accepted an unknown name")
	}
}

// TestParsePartitionerCoversShardParse keeps the public resolver in sync
// with internal/shard.Parse: every known strategy name must resolve in
// both layers to partitioners reporting the same Name. Extend
// knownPartitionerNames when adding a strategy.
func TestParsePartitionerCoversShardParse(t *testing.T) {
	knownPartitionerNames := []string{"hash", "label"}
	for _, name := range knownPartitionerNames {
		ip, iok := shard.Parse(name)
		pp, pok := ParsePartitioner(name)
		if !iok || !pok {
			t.Fatalf("resolvers disagree on %q: internal ok=%v, public ok=%v", name, iok, pok)
		}
		if ip.Name() != pp.Name() {
			t.Fatalf("resolvers name %q differently: internal %q, public %q", name, ip.Name(), pp.Name())
		}
	}
}

// shardTestQueries are the warmed queries the sharded I/O and credit
// tests run.
var shardTestQueries = []string{"a(b)", "a(b,c)", "b(c(d))", "a(*,c)", "c(d,e)"}

// TestShardedIOMatchesSingleDatabase pins that sharding does no
// enumeration work of its own: for every shard count in {1, 2, 4, 8} and
// both partitioners, a ShardedDatabase's TopK and drained Stream add
// exactly the EntriesRead and BlocksRead a Database adds for the same
// warmed query.
func TestShardedIOMatchesSingleDatabase(t *testing.T) {
	db := randomDatabase(t, 90, 3)
	const k = 10
	type cost struct{ entries, blocks int64 }
	measure := func(io func() IOStats, run func()) cost {
		before := io()
		run()
		after := io()
		return cost{after.EntriesRead - before.EntriesRead, after.BlocksRead - before.BlocksRead}
	}
	type runner interface {
		TopK(*Query, int) ([]Match, error)
		OpenStream(*Query, Options) (MatchStream, error)
		IOStats() IOStats
	}
	costs := func(b runner, q *Query) (topk, stream cost) {
		topk = measure(b.IOStats, func() {
			if _, err := b.TopK(q, k); err != nil {
				t.Fatal(err)
			}
		})
		stream = measure(b.IOStats, func() {
			st, err := b.OpenStream(q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			drain(st, math.MaxInt)
			st.Close()
		})
		return topk, stream
	}
	queries := make([]*Query, len(shardTestQueries))
	for i, qs := range shardTestQueries {
		q, err := db.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
		costs(db, q) // warm: first derives and carves
	}
	for _, n := range []int{1, 2, 4, 8} {
		for _, p := range []Partitioner{PartitionByHash(), PartitionByLabel()} {
			sdb, err := db.Shard(n, p)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range queries {
				wantTopK, wantStream := costs(db, q)
				if wantTopK.entries == 0 || wantStream.entries == 0 {
					t.Fatalf("%q read no entries; the check is vacuous", shardTestQueries[i])
				}
				gotTopK, gotStream := costs(sdb, q)
				if gotTopK != wantTopK || gotStream != wantStream {
					t.Fatalf("shards=%d/%s %q: TopK read %+v, Stream %+v; a Database reads %+v and %+v",
						n, p.Name(), shardTestQueries[i], gotTopK, gotStream, wantTopK, wantStream)
				}
			}
		}
	}
}

// TestShardMergedCreditsRootOwner pins what ShardStats.Merged counts:
// every match a merge took, credited to the shard owning its root
// binding. After TopK(q, k) that is every match scoring at or below the
// k-th score, ties past k included; after a stream emitted m matches,
// every match scoring at or below the m-th. An open ShardStream starts
// no goroutine.
func TestShardMergedCreditsRootOwner(t *testing.T) {
	db := randomDatabase(t, 90, 17)
	const k, emitted = 7, 12
	for _, n := range []int{1, 2, 4, 8} {
		for _, p := range []Partitioner{PartitionByHash(), PartitionByLabel()} {
			sdb, err := db.Shard(n, p)
			if err != nil {
				t.Fatal(err)
			}
			assign := p.Partition(db.Graph(), n)
			want := make([]int64, n)
			// credit adds every match of all scoring at or below the
			// score of the first m.
			credit := func(all []Match, m int) {
				for _, x := range all {
					if x.Score <= all[min(m, len(all))-1].Score {
						want[assign[x.Nodes[0]]]++
					}
				}
			}
			for _, qs := range shardTestQueries {
				q, err := sdb.ParseQuery(qs)
				if err != nil {
					t.Fatal(err)
				}
				all, err := db.TopK(q, int(db.CountMatches(q)))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sdb.TopK(q, k); err != nil {
					t.Fatal(err)
				}
				credit(all, k)
				before := runtime.NumGoroutine()
				st, err := sdb.Stream(q)
				if err != nil {
					t.Fatal(err)
				}
				drain(st, emitted)
				if now := runtime.NumGoroutine(); now > before {
					t.Fatalf("shards=%d/%s %q: an open stream runs %d goroutines", n, p.Name(), qs, now-before)
				}
				st.Close()
				credit(all, emitted)
			}
			for i, ps := range sdb.ShardStats().PerShard {
				if ps.Merged != want[i] {
					t.Fatalf("shards=%d/%s: shard %d Merged %d, want %d", n, p.Name(), i, ps.Merged, want[i])
				}
			}
		}
	}
}
