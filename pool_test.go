package ktpm

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// poolBackend is what TestPooledResultsNeverAlias drives on a Database, a
// ShardedDatabase and a Live alike.
type poolBackend interface {
	ParseQuery(string) (*Query, error)
	TopK(*Query, int) ([]Match, error)
	TopKBatch([]BatchItem) []BatchResult
	OpenStream(*Query, Options) (MatchStream, error)
}

// TestPooledResultsNeverAlias exercises every way a match leaves a pooled
// enumerator, concurrently: TopK, TopKBatch, streams drained to
// exhaustion and streams abandoned after a few matches then closed, on
// one Database, on a 2-shard ShardedDatabase, and on a Live that ingests
// between reads. It keeps every result next to a deep copy taken when it
// was returned, then runs at least 100 more queries per backend, which
// reuse the pooled enumerators, and requires every kept result to still
// equal its copy: a result aliasing pooled memory would have been
// overwritten. CI runs it under -race, which also sees a stream or a
// shard producer touching an enumerator after its release.
func TestPooledResultsNeverAlias(t *testing.T) {
	db := randomDatabase(t, 150, 41)
	sdb, err := db.Shard(2, PartitionByLabel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	labels, baseEdges := liveBase(rng, 60)
	live, err := OpenLive(buildLiveDB(t, labels, baseEdges), LiveConfig{Dir: t.TempDir(), Fsync: "never", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	backends := []struct {
		name string
		b    poolBackend
	}{{"db", db}, {"sharded", sdb}, {"live", live}}
	queries := []string{"a(b,c(d))", "a(*,c)", "b(c(d),e)", "c(d,e)", "a(b)", "e"}
	drained := []string{"a(b)", "e", "c(d)"} // small enough to enumerate in full

	var mu sync.Mutex
	type keptResult struct {
		tag       string
		got, want []Match
	}
	var kept []keptResult
	// clone is the deep copy, taken the moment a match is handed out.
	clone := func(m Match) Match { return Match{Nodes: append([]int32(nil), m.Nodes...), Score: m.Score} }
	keep := func(tag string, got, want []Match) {
		mu.Lock()
		kept = append(kept, keptResult{tag, got, want})
		mu.Unlock()
	}
	parse := func(b poolBackend, qs string) *Query {
		q, err := b.ParseQuery(qs)
		if err != nil {
			t.Errorf("parse %q: %v", qs, err)
		}
		return q
	}
	// stream reads up to limit matches (all for 0) and closes the stream.
	stream := func(b poolBackend, qs string, limit int) (got, want []Match) {
		q := parse(b, qs)
		if q == nil {
			return nil, nil
		}
		st, err := b.OpenStream(q, Options{})
		if err != nil {
			t.Errorf("stream %q: %v", qs, err)
			return nil, nil
		}
		defer st.Close()
		for limit <= 0 || len(got) < limit {
			m, ok := st.Next()
			if !ok {
				break
			}
			got, want = append(got, m), append(want, clone(m))
		}
		return got, want
	}
	clones := func(ms []Match) []Match {
		out := make([]Match, len(ms))
		for i, m := range ms {
			out[i] = clone(m)
		}
		return out
	}
	// op runs the i-th request of a worker and reports its result and
	// the deep copy of it.
	op := func(b poolBackend, i int) (tag string, got, want []Match) {
		qs := queries[i%len(queries)]
		k := 5 + i%17
		q := parse(b, qs)
		if q == nil {
			return "", nil, nil
		}
		switch i % 4 {
		case 0:
			ms, err := b.TopK(q, k)
			if err != nil {
				t.Errorf("TopK %q: %v", qs, err)
			}
			return fmt.Sprintf("TopK(%s,%d)", qs, k), ms, clones(ms)
		case 1:
			res := b.TopKBatch([]BatchItem{{Query: q, K: k}, {Query: q, K: k + 3}})
			return fmt.Sprintf("TopKBatch(%s,%d)", qs, k+3), res[1].Matches, clones(res[1].Matches)
		case 2:
			d := drained[i%len(drained)]
			got, want = stream(b, d, 0)
			return fmt.Sprintf("drained(%s)", d), got, want
		default:
			got, want = stream(b, qs, 3)
			return fmt.Sprintf("abandoned(%s)", qs), got, want
		}
	}

	var wg sync.WaitGroup
	for _, be := range backends {
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < w+40; i++ {
					tag, got, want := op(be.b, i)
					keep(be.name+" "+tag, got, want)
				}
			}()
		}
	}
	wg.Add(1)
	go func() { // the Live publishes new epochs between its readers' queries
		defer wg.Done()
		r := rand.New(rand.NewSource(47))
		for batch := 0; batch < 8; batch++ {
			if _, err := live.Ingest(liveNewEdges(r, 60, 4)); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if len(kept) == 0 || t.Failed() {
		t.Fatalf("%d results kept", len(kept))
	}

	// At least 100 later queries per backend reuse every pooled enumerator.
	for _, be := range backends {
		for i := 0; i < 120; i++ {
			op(be.b, i)
		}
	}
	nonEmpty := 0
	for _, r := range kept {
		if !reflect.DeepEqual(r.got, r.want) {
			t.Fatalf("%s changed after later queries reused the pool:\nnow  %v\nwant %v", r.tag, r.got, r.want)
		}
		if len(r.got) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < len(kept)/2 {
		t.Fatalf("only %d of %d kept results hold matches", nonEmpty, len(kept))
	}
}
