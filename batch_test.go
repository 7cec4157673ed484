package ktpm

import (
	"reflect"
	"testing"
)

// TestTopKBatchDedup pins the batch amortization contract: items whose
// canonical form and k agree are enumerated once — the
// duplicates share the leader's result slice and are marked Shared —
// and every item's answer equals the equivalent individual TopK call.
func TestTopKBatchDedup(t *testing.T) {
	db := randomDatabase(t, 90, 3)
	qa, err := db.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	// Same canonical form, different sibling order: must dedupe.
	qaPerm, err := db.ParseQuery("a(c,b)")
	if err != nil {
		t.Fatal(err)
	}
	qb, err := db.ParseQuery("b(c)")
	if err != nil {
		t.Fatal(err)
	}
	items := []BatchItem{
		{Query: qa, K: 10},
		{Query: qaPerm, K: 10}, // dup of item 0 via canonical form
		{Query: qb, K: 5},
		{Query: qa, K: 10}, // dup of item 0
		{Query: qa, K: 3},  // different k: own enumeration
	}
	before := db.IOStats().EntriesRead
	results := db.TopKBatch(items)
	batchCost := db.IOStats().EntriesRead - before
	if len(results) != len(items) {
		t.Fatalf("%d results for %d items", len(results), len(items))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		want, err := db.TopKWith(items[i].Query, items[i].K, items[i].Opt)
		if err != nil {
			t.Fatal(err)
		}
		if !sameScores(r.Matches, want) {
			t.Fatalf("item %d differs from individual TopK", i)
		}
	}
	for i, wantShared := range []bool{false, true, false, true, false} {
		if results[i].Shared != wantShared {
			t.Fatalf("item %d Shared = %v, want %v", i, results[i].Shared, wantShared)
		}
	}
	// Shared items literally reuse the leader's slice.
	if &results[0].Matches[0] != &results[1].Matches[0] || &results[0].Matches[0] != &results[3].Matches[0] {
		t.Fatal("shared items did not reuse the leader's result slice")
	}
	// Three enumerations ran (items 0, 2, 4); their costs cover the whole
	// batch delta — duplicates added no I/O.
	if sum := results[0].Cost + results[2].Cost + results[4].Cost; sum != batchCost {
		t.Fatalf("per-item costs sum to %d, batch delta is %d", sum, batchCost)
	}
	if results[0].Cost != results[1].Cost {
		t.Fatal("shared item does not report the leader's cost")
	}
}

// sameScores compares matches by score sequence: the single-database
// path's tie order is unspecified, so byte comparison is only valid
// where both sides are canonical.
func sameScores(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Score != b[i].Score {
			return false
		}
	}
	return true
}

// TestTopKBatchErrorIsolation checks per-item failure isolation: a nil
// query fails its own item and leaves the rest intact, and an item
// erroring never becomes a dedup leader.
func TestTopKBatchErrorIsolation(t *testing.T) {
	db := randomDatabase(t, 90, 3)
	q, err := db.ParseQuery("a(b)")
	if err != nil {
		t.Fatal(err)
	}
	results := db.TopKBatch([]BatchItem{
		{Query: q, K: 5},
		{Query: nil, K: 5},
		{Query: q, K: -1}, // negative k errors
		{Query: q, K: 5},  // still dedupes against item 0
	})
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("valid items failed: %v, %v", results[0].Err, results[3].Err)
	}
	if results[1].Err == nil || results[2].Err == nil {
		t.Fatal("invalid items did not fail")
	}
	if !results[3].Shared {
		t.Fatal("duplicate valid item not shared")
	}
	if len(results[0].Matches) == 0 {
		t.Fatal("valid item returned no matches")
	}
}

// TestShardedTopKBatch checks the sharded batch: results are the
// sharded (canonical) answers, and dedup works across the sharded path.
func TestShardedTopKBatch(t *testing.T) {
	db := randomDatabase(t, 90, 17)
	sdb, err := db.Shard(3, PartitionByLabel())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sdb.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := sdb.TopK(q, 12)
	if err != nil {
		t.Fatal(err)
	}
	results := sdb.TopKBatch([]BatchItem{
		{Query: q, K: 12},
		{Query: q, K: 12},
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("item %d: %v", i, r.Err)
		}
		if !reflect.DeepEqual(r.Matches, want) {
			t.Fatalf("item %d differs from sharded TopK", i)
		}
	}
	if results[0].Shared || !results[1].Shared {
		t.Fatalf("Shared flags = %v/%v, want false/true", results[0].Shared, results[1].Shared)
	}
}
