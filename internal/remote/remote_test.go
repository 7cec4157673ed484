package remote

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ktpm"
)

// testDB builds a small random database through the public API, the
// same shape the root package's property tests use: a few forward edges
// per node keep multi-level queries satisfiable without blowing up the
// closure.
func testDB(t testing.TB, n int, seed int64) *ktpm.Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d", "e"}
	gb := ktpm.NewGraphBuilder()
	ids := make([]int32, n)
	for i := 0; i < n; i++ {
		ids[i] = gb.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 1; i < n; i++ {
		for e := 0; e < 3; e++ {
			gb.AddWeightedEdge(ids[rng.Intn(i)], ids[i], int32(1+rng.Intn(3)))
		}
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// startWorkers spins up count workers over db behind httptest servers
// (real HTTP, real frames) and returns one endpoint list per shard.
func startWorkers(t testing.TB, db *ktpm.Database, count int, p ktpm.Partitioner) [][]Endpoint {
	t.Helper()
	eps := make([][]Endpoint, count)
	for i := 0; i < count; i++ {
		w, err := NewWorker(db, WorkerConfig{Index: i, Count: count, Partitioner: p})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		eps[i] = []Endpoint{NewHTTPEndpoint(ts.URL)}
	}
	return eps
}

func newTestCoordinator(t testing.TB, db *ktpm.Database, count int, p ktpm.Partitioner, cfg Config) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(db, p.Name(), startWorkers(t, db, count, p), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCoordinatorMatchesShardedDatabase is the distributed result-identity
// property test pinning the tentpole: at worker counts {1,2,4} and both
// partitioners, the coordinator's top-k — run over real worker HTTP
// streams — must be byte-identical to a local ShardedDatabase with the
// same shard count and partitioner, for full enumerations and every
// tested prefix k, and its explain plans must match too.
func TestCoordinatorMatchesShardedDatabase(t *testing.T) {
	queries := []string{"a(b)", "a(b,c)", "b(c(d))", "a(*,c)", "c(d,e)", "e"}
	db := testDB(t, 90, 3)
	for _, count := range []int{1, 2, 4} {
		for _, p := range []ktpm.Partitioner{ktpm.PartitionByHash(), ktpm.PartitionByLabel()} {
			name := fmt.Sprintf("workers=%d/%s", count, p.Name())
			t.Run(name, func(t *testing.T) {
				sdb, err := db.Shard(count, p)
				if err != nil {
					t.Fatal(err)
				}
				coord := newTestCoordinator(t, db, count, p, Config{})
				if err := coord.CheckTopology(context.Background()); err != nil {
					t.Fatalf("topology: %v", err)
				}
				for _, qs := range queries {
					q, err := db.ParseQuery(qs)
					if err != nil {
						t.Fatal(err)
					}
					total := int(db.CountMatches(q))
					for _, k := range []int{1, 5, total/2 + 1, total + 3} {
						if k <= 0 {
							continue
						}
						want, err := sdb.TopK(q, k)
						if err != nil {
							t.Fatal(err)
						}
						got, partial, err := coord.TopKPartial(q, k, ktpm.Options{})
						if err != nil {
							t.Fatalf("%q k=%d: %v", qs, k, err)
						}
						if partial {
							t.Fatalf("%q k=%d: healthy topology reported partial", qs, k)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%q k=%d: coordinator differs from sharded database", qs, k)
						}
					}
					cp, err := coord.Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					sp, err := sdb.Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(cp, sp) {
						t.Fatalf("%q: explain plans differ", qs)
					}
				}
			})
		}
	}
}

// TestCoordinatorStreamMatchesShardedStream checks the unbounded path:
// the coordinator's /stream merge must emit the same canonical sequence
// as the local sharded stream, and report complete exhaustion.
func TestCoordinatorStreamMatchesShardedStream(t *testing.T) {
	db := testDB(t, 70, 17)
	p := ktpm.PartitionByHash()
	for _, count := range []int{1, 2, 4} {
		sdb, err := db.Shard(count, p)
		if err != nil {
			t.Fatal(err)
		}
		coord := newTestCoordinator(t, db, count, p, Config{})
		for _, qs := range []string{"a(b)", "a(b,c)", "b(c(d))"} {
			q, err := db.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			drain := func(st ktpm.MatchStream) []ktpm.Match {
				defer st.Close()
				var out []ktpm.Match
				for {
					m, ok := st.Next()
					if !ok {
						return out
					}
					out = append(out, m)
				}
			}
			ws, err := sdb.OpenStream(q, ktpm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := drain(ws)
			gs, err := coord.OpenStream(q, ktpm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := drain(gs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d %q: stream order differs (got %d matches, want %d)", count, qs, len(got), len(want))
			}
			cs := gs.(*coordStream)
			if cs.Partial() || cs.Err() != nil {
				t.Fatalf("workers=%d %q: healthy stream reported partial=%v err=%v", count, qs, cs.Partial(), cs.Err())
			}
		}
	}
}

// TestCoordinatorUniformTies drives the tie-heavy path end to end: a
// star graph where every match of "a(b)" scores identically, so the
// k-th tie group is the whole match space and the merge must compact,
// cut the group at k on the worker side (k-hint contract), and still
// return the canonical prefix at every worker count.
func TestCoordinatorUniformTies(t *testing.T) {
	gb := ktpm.NewGraphBuilder()
	a := gb.AddNode("a")
	const fanout = 300
	for i := 0; i < fanout; i++ {
		gb.AddEdge(a, gb.AddNode("b"))
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	p := ktpm.PartitionByHash()
	for _, count := range []int{1, 2, 4} {
		sdb, err := db.Shard(count, p)
		if err != nil {
			t.Fatal(err)
		}
		coord := newTestCoordinator(t, db, count, p, Config{})
		for _, k := range []int{1, 4, fanout / 2, fanout} {
			want, err := sdb.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, partial, err := coord.TopKPartial(q, k, ktpm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if partial {
				t.Fatalf("workers=%d k=%d: healthy topology reported partial", count, k)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("workers=%d k=%d: not the canonical prefix of the tie group", count, k)
			}
		}
	}
}

// TestMergedCountsAgree pins one meaning of "merged": for the same
// query, partitioner and worker count, the ShardedDatabase's per-shard
// Merged is the shard's number of matches scoring at or below the k-th
// score, and the coordinator's per-worker Matches is the same count cut
// at k, because a worker sends at most k.
func TestMergedCountsAgree(t *testing.T) {
	db := testDB(t, 80, 5)
	q, err := db.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	all, err := db.TopK(q, int(db.CountMatches(q)))
	if err != nil {
		t.Fatal(err)
	}
	const k = 9
	if len(all) <= k {
		t.Fatalf("%d matches; the graph is too small for k=%d", len(all), k)
	}
	for _, count := range []int{1, 3} {
		for _, p := range []ktpm.Partitioner{ktpm.PartitionByHash(), ktpm.PartitionByLabel()} {
			assign := p.Partition(db.Graph(), count)
			want := make([]int64, count)
			for _, m := range all {
				if m.Score <= all[k-1].Score {
					want[assign[m.Nodes[0]]]++
				}
			}
			sdb, err := db.Shard(count, p)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sdb.TopK(q, k); err != nil {
				t.Fatal(err)
			}
			coord := newTestCoordinator(t, db, count, p, Config{})
			if _, _, err := coord.TopKPartial(q, k, ktpm.Options{}); err != nil {
				t.Fatal(err)
			}
			local, remote := sdb.ShardStats().PerShard, coord.CoordinatorStats().Workers
			for i := 0; i < count; i++ {
				if local[i].Merged != want[i] || remote[i].Matches != min(want[i], k) {
					t.Fatalf("workers=%d/%s shard %d: sharded Merged %d, coordinator Matches %d, want %d and %d",
						count, p.Name(), i, local[i].Merged, remote[i].Matches, want[i], min(want[i], k))
				}
			}
		}
	}
}

// TestWorkerKHintTruncation checks the worker-side contract directly:
// with a k hint the worker must send exactly its first k matches in
// canonical order (all of them when it has fewer), then an end frame
// flagged complete — even when the tie group at the k-th score runs on.
func TestWorkerKHintTruncation(t *testing.T) {
	db := testDB(t, 60, 7)
	w, err := NewWorker(db, WorkerConfig{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	ep := NewHTTPEndpoint(ts.URL)

	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	full, err := db.TopK(q, int(db.CountMatches(q))+1)
	if err != nil {
		t.Fatal(err)
	}
	canonical := append([]ktpm.Match(nil), full...)
	sort.Slice(canonical, func(i, j int) bool {
		if canonical[i].Score != canonical[j].Score {
			return canonical[i].Score < canonical[j].Score
		}
		a, b := canonical[i].Nodes, canonical[j].Nodes
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
	// The first k whose k-th match ties with the next one: the old
	// contract sent that tie group in full.
	tieK := 0
	for i := 1; i < len(canonical) && tieK == 0; i++ {
		if canonical[i].Score == canonical[i-1].Score {
			tieK = i
		}
	}
	if tieK == 0 {
		t.Fatalf("no tie among %d matches; the graph cannot test the cut", len(canonical))
	}

	for _, k := range []int{1, tieK, len(canonical) + 2} {
		body, err := ep.OpenStream(context.Background(), q.Canonical(), k)
		if err != nil {
			t.Fatal(err)
		}
		dec := newDecoder(body)
		var (
			frames []Frame
			end    Frame
		)
		for end.Kind != KindEnd {
			f, err := dec.next()
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			switch f.Kind {
			case KindMatch:
				frames = append(frames, f)
			case KindEnd:
				end = f
			}
		}
		body.Close()
		want := canonical[:min(k, len(canonical))]
		if !end.Complete || end.Count != int64(len(want)) || len(frames) != len(want) {
			t.Fatalf("k=%d: stream carried %d matches, end frame %+v; want exactly %d, complete",
				k, len(frames), end, len(want))
		}
		for i, f := range frames {
			if f.Score != want[i].Score || !reflect.DeepEqual(f.Nodes, want[i].Nodes) {
				t.Fatalf("k=%d: frame %d diverges from canonical order", k, i)
			}
		}
	}
}

// TestWorkerCountsAbandonedStreams pins the worker's matches counter to
// what it wrote, including streams a client closes early: a coordinator
// /stream read for five matches and closed must still show up in the
// worker's /stats.
func TestWorkerCountsAbandonedStreams(t *testing.T) {
	// One root and weighted fan-outs: a(b,c) has 250 000 matches in
	// small tie groups, far more than a stream reads before it is closed.
	gb := ktpm.NewGraphBuilder()
	a := gb.AddNode("a")
	for i := 0; i < 500; i++ {
		gb.AddWeightedEdge(a, gb.AddNode("b"), int32(1+i))
		gb.AddWeightedEdge(a, gb.AddNode("c"), int32(1+i))
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db, err := ktpm.BuildDatabase(g, ktpm.DatabaseOptions{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(db, WorkerConfig{Index: 0, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(w.Handler())
	defer ts.Close()
	coord, err := NewCoordinator(db, "hash", [][]Endpoint{{NewHTTPEndpoint(ts.URL)}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	st, err := coord.OpenStream(q, ktpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatalf("stream ended after %d matches", i)
		}
	}
	st.Close()
	deadline := time.Now().Add(10 * time.Second)
	for w.Stats().Matches < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("worker counted %d matches for a stream that delivered 5", w.Stats().Matches)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCheckTopologyRejectsMismatches wires deliberately wrong fleets and
// checks the probe fails fast: wrong worker count, wrong partitioner,
// a worker serving a different graph, and a worker speaking an older
// protocol.
func TestCheckTopologyRejectsMismatches(t *testing.T) {
	db := testDB(t, 50, 3)
	other := testDB(t, 50, 4)
	hash := ktpm.PartitionByHash()

	// Worker believes in a 3-worker topology; coordinator expects 2.
	eps := startWorkers(t, db, 3, hash)
	c, err := NewCoordinator(db, "hash", eps[:2], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckTopology(context.Background()); err == nil {
		t.Fatal("worker-count mismatch passed the topology check")
	}

	// Partitioner disagreement.
	c, err = NewCoordinator(db, "label", startWorkers(t, db, 2, hash), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckTopology(context.Background()); err == nil {
		t.Fatal("partitioner mismatch passed the topology check")
	}

	// Different graph: snapshot identities diverge.
	c, err = NewCoordinator(other, "hash", startWorkers(t, db, 2, hash), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckTopology(context.Background()); err == nil {
		t.Fatal("snapshot-identity mismatch passed the topology check")
	}

	// A worker of the previous protocol: its JSON probe still decodes,
	// and the check names both versions.
	w, err := NewWorker(db, WorkerConfig{Index: 0, Count: 1, Partitioner: hash})
	if err != nil {
		t.Fatal(err)
	}
	old := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		h := w.Hello()
		h.Proto = 1
		_ = json.NewEncoder(rw).Encode(h)
	}))
	defer old.Close()
	c, err = NewCoordinator(db, "hash", [][]Endpoint{{NewHTTPEndpoint(old.URL)}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = c.CheckTopology(context.Background())
	if err == nil || !strings.Contains(err.Error(), "protocol version 1, want 2") {
		t.Fatalf("protocol-1 worker: CheckTopology = %v, want a version mismatch", err)
	}
}

// TestCoordinatorStats sanity-checks the counters a healthy run leaves
// behind: one request per worker, no retries/hedges/failures, and the
// per-shard matches summing to at least the result size.
func TestCoordinatorStats(t *testing.T) {
	db := testDB(t, 60, 9)
	p := ktpm.PartitionByHash()
	coord := newTestCoordinator(t, db, 2, p, Config{})
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := coord.TopKPartial(q, 5, ktpm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := coord.CoordinatorStats()
	if len(st.Workers) != 2 || st.Policy != "fail" || st.Snapshot == "" {
		t.Fatalf("stats shape: %+v", st)
	}
	var requests, merged int64
	for _, ws := range st.Workers {
		requests += ws.Requests
		merged += ws.Matches
		if ws.Retries != 0 || ws.Hedges != 0 || ws.Failures != 0 {
			t.Fatalf("healthy run recorded failures: %+v", ws)
		}
	}
	if requests != 2 {
		t.Fatalf("requests = %d, want 2 (one per worker)", requests)
	}
	if merged < int64(len(got)) {
		t.Fatalf("merged %d matches across workers, result has %d", merged, len(got))
	}
}
