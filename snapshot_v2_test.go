package ktpm

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// saveTestSnapshotAs writes db's snapshot in the given format into a
// temp file.
func saveTestSnapshotAs(t testing.TB, db *Database, format SnapshotFormat) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db."+format.String()+".snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshotAs(f, db, format); err != nil {
		t.Fatalf("SaveSnapshotAs(%v): %v", format, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSnapshotV2MatchesV1 is the columnar result-identity property test:
// a database saved as columnar KTPMSNAP2 and reopened in every mode —
// which routes every query through the store's structure-of-arrays
// layout and the block kernels — must answer TopK byte-identically to
// the same database saved as row-major KTPMSNAP1, for full enumerations
// and prefixes, unsharded and at shard counts {1, 2, 4}, with agreeing
// explain plans. Ties are covered by the k=5000 full drain: canonical
// order is part of the compared bytes.
func TestSnapshotV2MatchesV1(t *testing.T) {
	queries := []string{"a(b)", "a(b,c(d))", "a(*,c)", "a(/b)", "c(d,e)", "e"}
	shardCounts := []int{1, 2, 4}
	for _, seed := range []int64{5, 23} {
		db := randomDatabase(t, 80, seed)
		v1Path := saveTestSnapshotAs(t, db, SnapshotV1)
		v2Path := saveTestSnapshotAs(t, db, SnapshotV2)
		for _, mode := range allSnapshotModes {
			v1, err := OpenSnapshot(v1Path, SnapshotOptions{Mode: mode, BlockSize: 4})
			if err != nil {
				t.Fatalf("seed %d mode %v: open v1: %v", seed, mode, err)
			}
			defer v1.Close()
			v2, err := OpenSnapshot(v2Path, SnapshotOptions{Mode: mode, BlockSize: 4})
			if err != nil {
				t.Fatalf("seed %d mode %v: open v2: %v", seed, mode, err)
			}
			defer v2.Close()
			if ss, _ := v1.SnapshotStats(); ss.Format != "v1" {
				t.Fatalf("v1 snapshot reports format %q", ss.Format)
			}
			if ss, _ := v2.SnapshotStats(); ss.Format != "v2" {
				t.Fatalf("v2 snapshot reports format %q", ss.Format)
			}
			sharded := make(map[int]*ShardedDatabase, len(shardCounts))
			for _, n := range shardCounts {
				sh, err := v2.Shard(n, PartitionByLabel())
				if err != nil {
					t.Fatal(err)
				}
				sharded[n] = sh
			}
			for _, qs := range queries {
				q1, err := v1.ParseQuery(qs)
				if err != nil {
					t.Fatal(err)
				}
				q2, err := v2.ParseQuery(qs)
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{1, 7, 5000} {
					want, err := v1.TopK(q1, k)
					if err != nil {
						t.Fatal(err)
					}
					got, err := v2.TopK(q2, k)
					if err != nil {
						t.Fatalf("seed %d mode %v query %q: %v", seed, mode, qs, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d mode %v query %q k=%d: columnar snapshot differs from row-major", seed, mode, qs, k)
					}
					for n, sh := range sharded {
						gotSh, err := sh.TopK(q2, k)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(gotSh, want) {
							t.Fatalf("seed %d mode %v query %q k=%d shards=%d: differs from row-major", seed, mode, qs, k, n)
						}
					}
				}
				wantPlan, err := v1.Explain(q1)
				if err != nil {
					t.Fatal(err)
				}
				gotPlan, err := v2.Explain(q2)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotPlan, wantPlan) {
					t.Fatalf("seed %d mode %v query %q: explain plans differ", seed, mode, qs)
				}
			}
			for _, sdb := range []*Database{v1, v2} {
				if st, _ := sdb.SnapshotStats(); st.Err != "" {
					t.Fatalf("seed %d mode %v: snapshot error: %s", seed, mode, st.Err)
				}
			}
		}
	}
}

// TestSnapshotV2AlgorithmsAgree pins the non-default algorithms — which
// materialize through the TableSource (the rtg column fast path on v2)
// rather than the store — on a columnar snapshot in every mode.
func TestSnapshotV2AlgorithmsAgree(t *testing.T) {
	db := randomDatabase(t, 70, 9)
	path := saveTestSnapshotAs(t, db, SnapshotV2)
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

// TestSnapshotV2Reencode pins cross-format interoperability: a database
// opened from a v2 snapshot re-encodes to a byte-identical v2 snapshot
// and to a v1 snapshot byte-identical to the one saved from the
// original in-memory database — the closure is never recomputed and the
// formats convert losslessly in both directions.
func TestSnapshotV2Reencode(t *testing.T) {
	db := randomDatabase(t, 60, 13)
	v1Path := saveTestSnapshotAs(t, db, SnapshotV1)
	v2Path := saveTestSnapshotAs(t, db, SnapshotV2)
	sdb, err := OpenSnapshot(v2Path, SnapshotOptions{Mode: SnapshotLazy})
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.Close()
	again2 := saveTestSnapshotAs(t, sdb, SnapshotV2)
	again1 := saveTestSnapshotAs(t, sdb, SnapshotV1)
	for _, pair := range [][2]string{{v2Path, again2}, {v1Path, again1}} {
		a, err := os.ReadFile(pair[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("re-encoding %s from a v2-backed database is not byte-identical", pair[1])
		}
	}
}

// TestSaveSnapshotWritesV2 pins the default written format: SaveSnapshot
// is SaveSnapshotAs(SnapshotV2), byte for byte.
func TestSaveSnapshotWritesV2(t *testing.T) {
	db := randomDatabase(t, 40, 3)
	var def, v2 bytes.Buffer
	if err := SaveSnapshot(&def, db); err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshotAs(&v2, db, SnapshotV2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(def.Bytes(), v2.Bytes()) {
		t.Fatal("SaveSnapshot output differs from SaveSnapshotAs(SnapshotV2)")
	}
}

// TestParseSnapshotFormat covers the CLI spelling round trip.
func TestParseSnapshotFormat(t *testing.T) {
	for _, format := range []SnapshotFormat{SnapshotV1, SnapshotV2} {
		got, ok := ParseSnapshotFormat(format.String())
		if !ok || got != format {
			t.Fatalf("ParseSnapshotFormat(%q) = %v, %v", format.String(), got, ok)
		}
	}
	if _, ok := ParseSnapshotFormat(""); ok {
		t.Fatal("empty format accepted")
	}
	if _, ok := ParseSnapshotFormat("v3"); ok {
		t.Fatal("unknown format accepted")
	}
}
