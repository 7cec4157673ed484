package ktpm

import (
	"fmt"
	"reflect"
	"testing"
)

// drain pulls up to k matches from a stream.
func drain(s MatchStream, k int) []Match {
	var out []Match
	for len(out) < k {
		m, ok := s.Next()
		if !ok {
			break
		}
		out = append(out, m)
	}
	return out
}

// TestStreamMatchesTopK pins the single-database streaming contract:
// Stream (and StreamWith with default options) drained to k is
// byte-identical to TopK(q, k) for every k — same enumerator, same
// deterministic order.
func TestStreamMatchesTopK(t *testing.T) {
	db := randomDatabase(t, 90, 3)
	for _, qs := range []string{"a(b)", "a(b,c)", "b(c(d))", "a(*,c)", "c(d,e)"} {
		q, err := db.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5, 40, 100000} {
			want, err := db.TopK(q, k)
			if err != nil {
				t.Fatal(err)
			}
			st, err := db.StreamWith(q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := drain(st, k)
			st.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("query %q k=%d: stream differs from TopK", qs, k)
			}
		}
	}
}

// TestShardedStreamMatchesShardedTopK is the streaming half of the
// result-identity property: a sharded stream drained to k must be
// byte-identical to ShardedDatabase.TopK(q, k) — which itself is
// byte-identical across shard counts — for shard counts {1,2,4,7} and
// both partitioners.
func TestShardedStreamMatchesShardedTopK(t *testing.T) {
	db := randomDatabase(t, 90, 17)
	queries := []string{"a(b)", "a(b,c)", "b(c(d))", "a(*,c)", "a(b,b)", "e"}
	for _, n := range []int{1, 2, 4, 7} {
		for _, p := range []Partitioner{PartitionByHash(), PartitionByLabel()} {
			sdb, err := db.Shard(n, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, qs := range queries {
				q, err := sdb.ParseQuery(qs)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 7, 10000} {
					want, err := sdb.TopK(q, k)
					if err != nil {
						t.Fatal(err)
					}
					st, err := sdb.Stream(q)
					if err != nil {
						t.Fatal(err)
					}
					got := drain(st, k)
					st.Close()
					if len(got) == 0 && len(want) == 0 {
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("shards=%d/%s query %q k=%d: stream differs from sharded TopK",
							n, p.Name(), qs, k)
					}
				}
			}
		}
	}
}

// TestShardedStreamCanonicalTies drives the stream's tie-group draining:
// on the uniform-score star graph every match ties, and the stream must
// still emit the canonical (binding-sorted) order TopK returns.
func TestShardedStreamCanonicalTies(t *testing.T) {
	gb := NewGraphBuilder()
	a := gb.AddNode("a")
	const fanout = 300
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
	for _, n := range []int{1, 3, 7} {
		sdb, err := db.Shard(n, PartitionByHash())
		if err != nil {
			t.Fatal(err)
		}
		want, err := sdb.TopK(q, fanout)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sdb.Stream(q)
		if err != nil {
			t.Fatal(err)
		}
		got := drain(st, fanout+1) // one past the end: must exhaust cleanly
		st.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: streamed tie group is not canonical", n)
		}
	}
}

// TestStreamWithOptions checks option handling: RootFilter restricts the
// stream exactly as it restricts TopKWith, sharded and unsharded.
func TestStreamWithOptions(t *testing.T) {
	db := randomDatabase(t, 120, 9)
	sdb, err := db.Shard(3, PartitionByLabel())
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	filter := func(v int32) bool { return v%2 == 0 }
	want, err := db.TopKWith(q, 25, Options{RootFilter: filter})
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.StreamWith(q, Options{RootFilter: filter})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(st, 25)
	st.Close()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("filtered stream differs from filtered TopKWith")
	}
	// Sharded: the caller filter composes with shard ownership, so the
	// result set is the same (canonical order) regardless of sharding.
	swant, err := sdb.TopKWith(q, 25, Options{RootFilter: filter})
	if err != nil {
		t.Fatal(err)
	}
	sst, err := sdb.StreamWith(q, Options{RootFilter: filter})
	if err != nil {
		t.Fatal(err)
	}
	sgot := drain(sst, 25)
	sst.Close()
	if !reflect.DeepEqual(sgot, swant) {
		t.Fatal("sharded filtered stream differs from sharded filtered TopKWith")
	}
	// Every root binding in the filtered results passes the filter.
	for _, m := range got {
		if !filter(m.Nodes[0]) {
			t.Fatalf("root binding %d slipped past the filter", m.Nodes[0])
		}
	}
}

// TestShardedStreamClose checks that closing mid-stream stops emission
// and is idempotent.
func TestShardedStreamClose(t *testing.T) {
	db := randomDatabase(t, 150, 5)
	sdb, err := db.Shard(4, PartitionByHash())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sdb.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	st, err := sdb.Stream(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Next(); !ok {
		t.Fatal("stream produced nothing")
	}
	st.Close()
	st.Close() // idempotent
	for i := 0; i < 10000; i++ {
		if _, ok := st.Next(); !ok {
			return // a closed stream reports exhaustion, as documented
		}
	}
	t.Fatal("closed stream kept emitting")
}

// TestShardedStreamAgainstSingle ties the two streaming paths together:
// the sharded stream, fully drained, is the canonical ordering of the
// single database's full enumeration.
func TestShardedStreamAgainstSingle(t *testing.T) {
	db := randomDatabase(t, 90, 3)
	for _, qs := range []string{"a(b,c)", "b(c(d))"} {
		q, err := db.ParseQuery(qs)
		if err != nil {
			t.Fatal(err)
		}
		single, err := db.TopK(q, int(db.CountMatches(q))+3)
		if err != nil {
			t.Fatal(err)
		}
		canonical := sortedMatches(single)
		for _, n := range []int{2, 5} {
			sdb, err := db.Shard(n, PartitionByLabel())
			if err != nil {
				t.Fatal(err)
			}
			st, err := sdb.Stream(q)
			if err != nil {
				t.Fatal(err)
			}
			got := drain(st, len(canonical)+3)
			st.Close()
			if !reflect.DeepEqual(got, canonical) {
				t.Fatalf("shards=%d query %q: drained stream differs from canonical full enumeration", n, qs)
			}
		}
	}
}

func ExampleShardedDatabase_Stream() {
	gb := NewGraphBuilder()
	a := gb.AddNode("a")
	for i := 0; i < 3; i++ {
		b := gb.AddNode("b")
		gb.AddWeightedEdge(a, b, int32(i+1))
	}
	g, _ := gb.Build()
	db, _ := BuildDatabase(g, DatabaseOptions{})
	sdb, _ := db.Shard(2, PartitionByHash())
	q, _ := sdb.ParseQuery("a(b)")
	st, _ := sdb.Stream(q)
	defer st.Close()
	for {
		m, ok := st.Next()
		if !ok {
			break
		}
		fmt.Println(m.Score, m.Nodes)
	}
	// Output:
	// 1 [0 1]
	// 2 [0 2]
	// 3 [0 3]
}
