package remote

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
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

// startWorkers spins up n worker replicas over db behind httptest
// servers (real HTTP, real frames) and returns their endpoints.
func startWorkers(t testing.TB, db *ktpm.Database, n int) []Endpoint {
	t.Helper()
	eps := make([]Endpoint, n)
	for i := range eps {
		w, err := NewWorker(db, WorkerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		eps[i] = NewHTTPEndpoint(ts.URL)
	}
	return eps
}

func newTestCoordinator(t testing.TB, db *ktpm.Database, n int, cfg Config) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(db, "hash", [][]Endpoint{startWorkers(t, db, n)}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drain reads st to its end and closes it.
func drain(st ktpm.MatchStream) []ktpm.Match {
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

// TestCoordinatorMatchesShardedDatabase is the result-identity property
// test: at 1–4 replicas, declared the way the scatter topology was (one
// endpoint list per shard, workers given an index, a count and a
// partitioner, all of which are now ignored), the coordinator's top-k
// over real worker HTTP streams must be byte-identical to the plain
// Database for full enumerations, every tested prefix k and a batch
// with a duplicate item, with every replica taking its turn, and its
// explain plans must match too.
func TestCoordinatorMatchesShardedDatabase(t *testing.T) {
	queries := []string{"a(b)", "a(b,c)", "b(c(d))", "a(*,c)", "c(d,e)", "e"}
	db := testDB(t, 90, 3)
	for _, count := range []int{1, 2, 3, 4} {
		for _, p := range []ktpm.Partitioner{ktpm.PartitionByHash(), ktpm.PartitionByLabel()} {
			name := fmt.Sprintf("workers=%d/%s", count, p.Name())
			t.Run(name, func(t *testing.T) {
				shards := make([][]Endpoint, count)
				workers := make([]*Worker, count)
				for i := range shards {
					w, err := NewWorker(db, WorkerConfig{Index: i, Count: count, Partitioner: p})
					if err != nil {
						t.Fatal(err)
					}
					ts := httptest.NewServer(w.Handler())
					t.Cleanup(ts.Close)
					shards[i], workers[i] = []Endpoint{NewHTTPEndpoint(ts.URL)}, w
				}
				coord, err := NewCoordinator(db, p.Name(), shards, Config{})
				if err != nil {
					t.Fatal(err)
				}
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
						want, err := db.TopK(q, k)
						if err != nil {
							t.Fatal(err)
						}
						got, err := coord.TopKWith(q, k, ktpm.Options{})
						if err != nil {
							t.Fatalf("%q k=%d: %v", qs, k, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%q k=%d: coordinator differs from the database", qs, k)
						}
					}
					cp, err := coord.Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					sp, err := db.Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(cp, sp) {
						t.Fatalf("%q: explain plans differ", qs)
					}
				}
				var items []ktpm.BatchItem
				for i, qs := range append(queries, queries[0]) {
					q, err := db.ParseQuery(qs)
					if err != nil {
						t.Fatal(err)
					}
					items = append(items, ktpm.BatchItem{Query: q, K: 3 + i%4})
				}
				items[len(items)-1].K = items[0].K
				want, got := db.TopKBatch(items), coord.TopKBatch(items)
				for i := range want {
					if got[i].Err != nil || !reflect.DeepEqual(got[i].Matches, want[i].Matches) || got[i].Shared != want[i].Shared {
						t.Fatalf("batch item %d: coordinator differs from the database (err %v)", i, got[i].Err)
					}
				}
				for i, w := range workers {
					if w.Stats().Streams == 0 {
						t.Fatalf("replica %d of %d served no stream", i, count)
					}
				}
			})
		}
	}
}

// TestCoordinatorStreamMatchesShardedStream checks the unbounded path:
// the coordinator's /stream reader must emit the same canonical sequence
// as the plain database's stream, at 1–3 replicas, and end without an
// error.
func TestCoordinatorStreamMatchesShardedStream(t *testing.T) {
	db := testDB(t, 70, 17)
	for _, count := range []int{1, 2, 3} {
		coord := newTestCoordinator(t, db, count, Config{})
		for _, qs := range []string{"a(b)", "a(b,c)", "b(c(d))"} {
			q, err := db.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := db.OpenStream(q, ktpm.Options{})
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
				t.Fatalf("replicas=%d %q: stream order differs (got %d matches, want %d)", count, qs, len(got), len(want))
			}
			if err := gs.(*routedStream).Err(); err != nil {
				t.Fatalf("replicas=%d %q: healthy stream reported %v", count, qs, err)
			}
		}
	}
}

// TestCoordinatorUniformTies drives the tie-heavy path end to end: a
// star graph where every match of "a(b)" scores identically, so the
// k-th tie group is the whole match space and the worker must cut it at
// k (the k-hint contract) and still return the canonical prefix at
// every replica count.
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
	for _, count := range []int{1, 2, 4} {
		coord := newTestCoordinator(t, db, count, Config{})
		for _, k := range []int{1, 4, fanout / 2, fanout} {
			want, err := db.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			got, err := coord.TopKWith(q, k, ktpm.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("replicas=%d k=%d: not the canonical prefix of the tie group", count, k)
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
	w, err := NewWorker(db, WorkerConfig{})
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
	w, err := NewWorker(db, WorkerConfig{})
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
// checks the probe fails fast: a replica serving a different graph
// beside a healthy one, and a worker speaking the previous protocol.
func TestCheckTopologyRejectsMismatches(t *testing.T) {
	db := testDB(t, 50, 3)
	other := testDB(t, 50, 4)

	// One replica serves a different graph: snapshot identities diverge.
	eps := append(startWorkers(t, db, 1), startWorkers(t, other, 1)...)
	c, err := NewCoordinator(db, "hash", [][]Endpoint{eps}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CheckTopology(context.Background()); err == nil || !strings.Contains(err.Error(), "snapshot identity") {
		t.Fatalf("snapshot-identity mismatch: CheckTopology = %v", err)
	}

	// A worker of the previous protocol: its JSON probe still decodes
	// (the fields it carried beyond this version's are ignored), and the
	// check names both versions.
	old := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprintf(rw, `{"f":"hello","proto":2,"shard":0,"workers":1,"partitioner":"hash","snapshot":%q,"order":%q}`,
			Identity(db), OrderVersion)
	}))
	defer old.Close()
	c, err = NewCoordinator(db, "hash", [][]Endpoint{{NewHTTPEndpoint(old.URL)}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	err = c.CheckTopology(context.Background())
	if err == nil || !strings.Contains(err.Error(), "protocol version 2, want 3") {
		t.Fatalf("protocol-2 worker: CheckTopology = %v, want a version mismatch", err)
	}
}

// TestCoordinatorStats pins routing on a healthy fleet: each query opens
// exactly one worker stream, the rotation spreads 100 queries across two
// replicas (each takes at least 40), nothing fails, and the matches the
// replicas handed on add up to the answers.
func TestCoordinatorStats(t *testing.T) {
	db := testDB(t, 60, 9)
	workers := make([]*Worker, 2)
	eps := make([]Endpoint, 2)
	for i := range workers {
		w, err := NewWorker(db, WorkerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		workers[i], eps[i] = w, NewHTTPEndpoint(ts.URL)
	}
	coord, err := NewCoordinator(db, "hash", [][]Endpoint{eps}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var returned int64
	for i := 0; i < 100; i++ {
		q, err := db.ParseQuery([]string{"a(b)", "b(c,d)", "c(d)"}[i%3])
		if err != nil {
			t.Fatal(err)
		}
		got, err := coord.TopKWith(q, 5, ktpm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		returned += int64(len(got))
	}
	st := coord.CoordinatorStats()
	if len(st.Workers) != 2 || st.Snapshot == "" {
		t.Fatalf("stats shape: %+v", st)
	}
	var streams, requests, matches int64
	for i, ws := range st.Workers {
		n := workers[i].Stats().Streams
		if n < 40 {
			t.Fatalf("replica %d served %d of 100 queries, want at least 40", i, n)
		}
		if ws.Failures != 0 || ws.Breaker.State != breakerClosed {
			t.Fatalf("healthy run recorded failures: %+v", ws)
		}
		streams += n
		requests += ws.Requests
		matches += ws.Matches
	}
	if streams != 100 || requests != 100 {
		t.Fatalf("100 queries opened %d worker streams (%d requests), want one each", streams, requests)
	}
	if matches != returned {
		t.Fatalf("replicas handed on %d matches, the answers hold %d", matches, returned)
	}
}

// TestCoordinatorReusesConnections pins that sequential routed requests
// share one keep-alive connection to their replica: the reader consumes
// each response to its EOF, so closing it never takes the connection
// down with it.
func TestCoordinatorReusesConnections(t *testing.T) {
	db := testDB(t, 200, 3)
	w, err := NewWorker(db, WorkerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(w.Handler())
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	coord, err := NewCoordinator(db, "hash", [][]Endpoint{{NewHTTPEndpoint(ts.URL)}}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := coord.TopKWith(q, 5+i%2*95, ktpm.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("100 sequential requests opened %d connections, want 1", n)
	}
}
