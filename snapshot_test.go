package ktpm

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// saveTestSnapshot writes db's snapshot into a temp file.
func saveTestSnapshot(t testing.TB, db *Database) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshot(f, db); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

var allSnapshotModes = []SnapshotMode{SnapshotEager, SnapshotLazy, SnapshotMMap}

// TestSnapshotModesMatchBuildDatabase is the snapshot result-identity
// property test: a database reopened from its snapshot in every mode —
// which routes every query through the store's columnar carve and the
// block kernels — must answer TopK byte-identically to the BuildDatabase
// original, for full enumerations and prefixes, unsharded and at shard
// counts {1, 2, 4}, and /explain-level planning must agree too. Ties are
// covered by the k=5000 full drain: canonical order is part of the
// compared bytes.
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

// TestSnapshotAlgorithmsAgree pins the baselines (which materialize
// through the TableSource's column views, or load through the store) on
// a snapshot opened in every mode to the oracle's score sequence on the
// original database.
func TestSnapshotAlgorithmsAgree(t *testing.T) {
	db := randomDatabase(t, 70, 9)
	path := saveTestSnapshot(t, db)
	q, err := db.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	want := scoresOf(oracleTopK(db, q, 25))
	for _, mode := range allSnapshotModes {
		sdb, err := OpenSnapshot(path, SnapshotOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		sq, err := sdb.ParseQuery("a(b,c)")
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range baselines {
			if got := scoresOf(runBaseline(sdb, sq, 25, b)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%v: scores %v, want %v", mode, b, got, want)
			}
		}
		if got := sdb.CountMatches(sq); got != db.CountMatches(q) {
			t.Fatalf("%v: CountMatches %d, want %d", mode, got, db.CountMatches(q))
		}
		sdb.Close()
	}
}

// TestSnapshotV2AlgorithmsAgree pins each baseline on a snapshot to the
// same baseline on the original database, match for match: drained in
// full, reading the closure through the KTPMSNAP2 column views instead
// of the in-memory tables yields the same set of matches. (The baselines
// break ties in no fixed order, so the sets are compared sorted.)
func TestSnapshotV2AlgorithmsAgree(t *testing.T) {
	db := randomDatabase(t, 70, 9)
	path := saveTestSnapshot(t, db)
	for _, mode := range allSnapshotModes {
		sdb, err := OpenSnapshot(path, SnapshotOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		for _, qs := range []string{"a(b,c)", "a(b,c(d))", "c(d,e)"} {
			q, err := db.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			sq, err := sdb.ParseQuery(qs)
			if err != nil {
				t.Fatal(err)
			}
			all := int(db.CountMatches(q))
			if all == 0 {
				t.Fatalf("query %q has no matches", qs)
			}
			for _, b := range baselines {
				want := runBaseline(db, q, all, b)
				got := runBaseline(sdb, sq, all, b)
				if len(want) != all || !reflect.DeepEqual(sortedMatches(got), sortedMatches(want)) {
					t.Fatalf("%v/%v %q: snapshot matches differ from the original database's", mode, b, qs)
				}
			}
		}
		if st, _ := sdb.SnapshotStats(); st.Err != "" {
			t.Fatalf("%v: snapshot error: %s", mode, st.Err)
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

// TestSnapshotReencode pins that a snapshot-backed database re-saves to
// the byte-identical file it was opened from, in every mode: the closure
// is never recomputed and nothing is lost or reordered on the way
// through the reader.
func TestSnapshotReencode(t *testing.T) {
	db := randomDatabase(t, 60, 13)
	path := saveTestSnapshot(t, db)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allSnapshotModes {
		sdb, err := OpenSnapshot(path, SnapshotOptions{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := SaveSnapshot(&got, sdb); err != nil {
			t.Fatalf("%v: SaveSnapshot: %v", mode, err)
		}
		sdb.Close()
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%v: snapshot of a snapshot-backed database is not byte-identical", mode)
		}
	}
}

// TestSnapshotV2Reencode pins re-encoding as a chain of generations: each
// generation is saved from a database opened on the one before, in
// another mode and after a query, so the lazy and mmap writers read a mix
// of faulted and unfaulted tables. Every generation must answer like the
// original database and be byte-identical to the first file.
func TestSnapshotV2Reencode(t *testing.T) {
	db := randomDatabase(t, 60, 13)
	path := saveTestSnapshot(t, db)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.ParseQuery("a(b,c)")
	if err != nil {
		t.Fatal(err)
	}
	wantTop, err := db.TopK(q, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []SnapshotMode{SnapshotLazy, SnapshotMMap, SnapshotEager} {
		sdb, err := OpenSnapshot(path, SnapshotOptions{Mode: mode})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		sq, err := sdb.ParseQuery("a(b,c)")
		if err != nil {
			t.Fatal(err)
		}
		got, err := sdb.TopK(sq, 20)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !reflect.DeepEqual(got, wantTop) {
			t.Fatalf("%v: generation answers differ from the original database", mode)
		}
		path = saveTestSnapshot(t, sdb)
		sdb.Close()
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, want) {
			t.Fatalf("%v: generation re-saved from a partly faulted database is not byte-identical", mode)
		}
	}
}

// TestSaveSnapshotWritesV2 pins the deprecated format names to the one
// format: SnapshotV2 is SnapshotFormat's zero value, SaveSnapshotAs with
// it is SaveSnapshot byte for byte, and every other value is refused by
// SaveSnapshotAs and by LiveConfig.SnapshotFormat.
func TestSaveSnapshotWritesV2(t *testing.T) {
	db := randomDatabase(t, 40, 3)
	var def, v2 bytes.Buffer
	if err := SaveSnapshot(&def, db); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(def.Bytes(), []byte("KTPMSNAP2\n")) {
		t.Fatalf("SaveSnapshot wrote magic %q", def.Bytes()[:10])
	}
	if SnapshotV2 != SnapshotFormat(0) {
		t.Fatal("SnapshotV2 is not the zero value")
	}
	if err := SaveSnapshotAs(&v2, db, SnapshotV2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(def.Bytes(), v2.Bytes()) {
		t.Fatal("SaveSnapshot output differs from SaveSnapshotAs(SnapshotV2)")
	}
	if err := SaveSnapshotAs(&bytes.Buffer{}, db, SnapshotFormat(1)); err == nil {
		t.Fatal("SaveSnapshotAs accepted a format other than SnapshotV2")
	}
	if l, err := OpenLive(db, LiveConfig{Dir: t.TempDir(), SnapshotFormat: SnapshotFormat(1)}); err == nil {
		l.Close()
		t.Fatal("OpenLive accepted a generation format other than SnapshotV2")
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
