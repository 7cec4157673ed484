package ktpm

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// saveTestSnapshot writes db as a row-major KTPMSNAP1 snapshot — no
// longer what SaveSnapshot writes, so the tests in this file ask for it
// by name; snapshot_v2_test.go runs the same properties over KTPMSNAP2.
func saveTestSnapshot(t testing.TB, db *Database) string {
	return saveTestSnapshotAs(t, db, SnapshotV1)
}

var allSnapshotModes = []SnapshotMode{SnapshotEager, SnapshotLazy, SnapshotMMap}

// TestSnapshotModesMatchBuildDatabase is the snapshot result-identity
// property test: a database reopened from its snapshot in every mode
// must answer TopK byte-identically to the BuildDatabase original — for
// full enumerations and prefixes, unsharded and at shard counts
// {1, 2, 4} — and /explain-level planning must agree too.
func TestSnapshotModesMatchBuildDatabase(t *testing.T) {
	queries := []string{"a(b)", "a(b,c(d))", "a(*,c)", "a(/b)", "c(d,e)", "e"}
	shardCounts := []int{1, 2, 4}
	for _, seed := range []int64{5, 23} {
		db := randomDatabase(t, 80, seed)
		path := saveTestSnapshot(t, db)
		for _, mode := range allSnapshotModes {
			sdb, err := OpenSnapshot(path, SnapshotOptions{Mode: mode, BlockSize: 4})
			if err != nil {
				t.Fatalf("seed %d mode %v: OpenSnapshot: %v", seed, mode, err)
			}
			defer sdb.Close()
			sharded := make(map[int]*ShardedDatabase, len(shardCounts))
			for _, n := range shardCounts {
				sh, err := sdb.Shard(n, PartitionByLabel())
				if err != nil {
					t.Fatal(err)
				}
				sharded[n] = sh
			}
			for _, qs := range queries {
				q, err := db.ParseQuery(qs)
				if err != nil {
					t.Fatal(err)
				}
				sq, err := sdb.ParseQuery(qs)
				if err != nil {
					t.Fatalf("seed %d mode %v: reparse on snapshot: %v", seed, mode, err)
				}
				for _, k := range []int{1, 7, 5000} {
					want, err := db.TopK(q, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := sdb.TopK(sq, k)
					if err != nil {
						t.Fatalf("seed %d mode %v query %q: %v", seed, mode, qs, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d mode %v query %q k=%d: snapshot database differs from original", seed, mode, qs, k)
					}
					for n, sh := range sharded {
						gotSh, err := sh.TopK(sq, k)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gotSh, want) {
							t.Fatalf("seed %d mode %v query %q k=%d shards=%d: differs from original", seed, mode, qs, k, n)
						}
					}
				}
				wantPlan, err := db.Explain(q)
				if err != nil {
					t.Fatal(err)
				}
				gotPlan, err := sdb.Explain(sq)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotPlan, wantPlan) {
					t.Fatalf("seed %d mode %v query %q: explain plans differ", seed, mode, qs)
				}
			}
			st, ok := sdb.SnapshotStats()
			if !ok {
				t.Fatalf("seed %d mode %v: SnapshotStats not available", seed, mode)
			}
			if st.Err != "" {
				t.Fatalf("seed %d mode %v: snapshot error: %s", seed, mode, st.Err)
			}
		}
	}
}

// TestSnapshotAlgorithmsAgree pins the non-default algorithms (which
// materialize through the TableSource rather than the store) to the
// original database on a snapshot opened in every mode.
func TestSnapshotAlgorithmsAgree(t *testing.T) {
	db := randomDatabase(t, 70, 9)
	path := saveTestSnapshot(t, db)
	q, err := db.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.TopKWith(q, 25, Options{Algorithm: AlgoTopk})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allSnapshotModes {
		sdb, err := OpenSnapshot(path, SnapshotOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		sq, err := sdb.ParseQuery("a(b,c)")
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{AlgoTopk, AlgoDPB, AlgoDPP} {
			got, err := sdb.TopKWith(sq, 25, Options{Algorithm: algo})
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, algo, err)
			}
			for i := range want {
				if got[i].Score != want[i].Score {
					t.Fatalf("%v/%v: score[%d]=%d, want %d", mode, algo, i, got[i].Score, want[i].Score)
				}
			}
		}
		if got := sdb.CountMatches(sq); got != db.CountMatches(q) {
			t.Fatalf("%v: CountMatches %d, want %d", mode, got, db.CountMatches(q))
		}
		sdb.Close()
	}
}

// TestSnapshotLazyOpenDoesNoTableWork pins the O(directory) open
// contract: in lazy and mmap modes no closure table may be materialized
// at open — neither by the snapshot reader nor by the store layout — and
// the first query faults only what it touches.
func TestSnapshotLazyOpenDoesNoTableWork(t *testing.T) {
	db := randomDatabase(t, 80, 7)
	path := saveTestSnapshot(t, db)
	full := db.IOStats().TablesLoaded
	if full == 0 {
		t.Fatal("eager database reports no loaded tables")
	}
	for _, mode := range []SnapshotMode{SnapshotLazy, SnapshotMMap} {
		sdb, err := OpenSnapshot(path, SnapshotOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if n := sdb.IOStats().TablesLoaded; n != 0 {
			t.Fatalf("%v: %d tables loaded at open, want 0", mode, n)
		}
		st, _ := sdb.SnapshotStats()
		if st.TablesLoaded != 0 {
			t.Fatalf("%v: snapshot reports %d tables faulted at open", mode, st.TablesLoaded)
		}
		// Planning reads only the directory.
		q, err := sdb.ParseQuery("a(b)")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sdb.Explain(q); err != nil {
			t.Fatal(err)
		}
		if n := sdb.IOStats().TablesLoaded; n != 0 {
			t.Fatalf("%v: Explain faulted %d store tables", mode, n)
		}
		if _, err := sdb.TopK(q, 5); err != nil {
			t.Fatal(err)
		}
		after := sdb.IOStats().TablesLoaded
		if after == 0 {
			t.Fatalf("%v: query faulted no tables", mode)
		}
		if after >= full {
			t.Fatalf("%v: one query faulted all %d tables", mode, after)
		}
		sdb.Close()
	}
	// Eager mode materializes everything at open, like BuildDatabase.
	sdb, err := OpenSnapshot(path, SnapshotOptions{Mode: SnapshotEager})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	if n := sdb.IOStats().TablesLoaded; n != full {
		t.Fatalf("eager: %d tables loaded at open, want %d", n, full)
	}
}

// TestSnapshotSharedAcrossReplicas pins that shard replicas share the
// faulted tables: sharding a lazy snapshot database and querying it
// leaves TablesLoaded flat relative to the unsharded run, not multiplied
// by the shard count.
func TestSnapshotSharedAcrossReplicas(t *testing.T) {
	db := randomDatabase(t, 80, 11)
	path := saveTestSnapshot(t, db)
	loadedAfter := func(shards int) int64 {
		sdb, err := OpenSnapshot(path, SnapshotOptions{Mode: SnapshotLazy})
		if err != nil {
			t.Fatal(err)
		}
		defer sdb.Close()
		q, err := sdb.ParseQuery("a(b,c(d))")
		if err != nil {
			t.Fatal(err)
		}
		if shards == 0 {
			if _, err := sdb.TopK(q, 50); err != nil {
				t.Fatal(err)
			}
			return sdb.IOStats().TablesLoaded
		}
		sh, err := sdb.Shard(shards, PartitionByHash())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sh.TopK(q, 50); err != nil {
			t.Fatal(err)
		}
		return sh.IOStats().TablesLoaded
	}
	base := loadedAfter(0)
	if base == 0 {
		t.Fatal("query faulted no tables")
	}
	for _, n := range []int{2, 4} {
		if got := loadedAfter(n); got != base {
			t.Fatalf("shards=%d faulted %d tables, unsharded faulted %d (replicas must share the layout)", n, got, base)
		}
	}
}

// TestSnapshotReencode pins format interoperability: a lazily opened
// snapshot re-encodes to both the KTPMTC1 database stream and a fresh
// byte-identical KTPMSNAP1 snapshot without recomputing the closure.
func TestSnapshotReencode(t *testing.T) {
	db := randomDatabase(t, 60, 13)
	path := saveTestSnapshot(t, db)
	sdb, err := OpenSnapshot(path, SnapshotOptions{Mode: SnapshotLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	path2 := saveTestSnapshot(t, sdb)
	a, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("snapshot of a snapshot-backed database is not byte-identical")
	}

	// KTPMDB1 round trip from a snapshot-backed database.
	legacy := filepath.Join(t.TempDir(), "db.ktpmdb")
	f, err := os.Create(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveDatabase(f, sdb); err != nil {
		t.Fatalf("SaveDatabase from snapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lf, err := os.Open(legacy)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	ldb, err := OpenDatabase(lf, DatabaseOptions{})
	if err != nil {
		t.Fatalf("OpenDatabase of re-encoded stream: %v", err)
	}
	q, _ := db.ParseQuery("a(b)")
	lq, _ := ldb.ParseQuery("a(b)")
	want, _ := db.TopK(q, 20)
	got, err := ldb.TopK(lq, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-encoded database answers differently")
	}
}

// TestParseSnapshotMode covers the CLI spelling round trip.
func TestParseSnapshotMode(t *testing.T) {
	for _, mode := range allSnapshotModes {
		got, ok := ParseSnapshotMode(mode.String())
		if !ok || got != mode {
			t.Fatalf("ParseSnapshotMode(%q) = %v, %v", mode.String(), got, ok)
		}
	}
	if _, ok := ParseSnapshotMode(""); ok {
		t.Fatal("empty mode accepted")
	}
	if _, ok := ParseSnapshotMode("paged"); ok {
		t.Fatal("unknown mode accepted")
	}
}
