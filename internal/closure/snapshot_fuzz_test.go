package closure

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ktpm/internal/gen"
)

// addSnapshotSeeds seeds a fuzz target with a valid snapshot of a small
// closure plus targeted damage: truncations at structural boundaries
// (mid-column cuts included), field-level header mutations, and directory
// rows pointing past EOF or off the column alignment grid.
func addSnapshotSeeds(f *testing.F) {
	g := gen.ErdosRenyi(12, 30, 3, 7)
	c := Compute(g, Options{})
	var valid bytes.Buffer
	if err := WriteSnapshot(&valid, c); err != nil {
		f.Fatal(err)
	}
	v := valid.Bytes()
	f.Add(v)
	for _, n := range []int{0, 5, snapHeaderSize - 1, snapHeaderSize, len(v) / 2, len(v) - 3, len(v) - 8} {
		f.Add(v[:n])
	}
	// Field-level mutations: magic, version, counts, offsets.
	for _, off := range []int{0, 8, 10, 18, 26, 34, 42, 50} {
		b := append([]byte(nil), v...)
		binary.LittleEndian.PutUint32(b[off:], 0xfeedface)
		f.Add(b)
	}
	// Directory mutations: offset past EOF, count past EOF, misaligned
	// column start (off+4 breaks the 16-byte alignment rule).
	dirOff := int(snapDirOff(v))
	for _, m := range []struct {
		field int
		val   uint64
	}{
		{8, uint64(len(v)) + snapPageSize},
		{16, 1 << 40},
		{8, binary.LittleEndian.Uint64(v[dirOff+8:]) + 4},
	} {
		b := append([]byte(nil), v...)
		binary.LittleEndian.PutUint64(b[dirOff+m.field:], m.val)
		f.Add(b)
	}
}

// writeFuzzFile stores one fuzz input as a file to open.
func writeFuzzFile(t *testing.T, data []byte) string {
	path := filepath.Join(t.TempDir(), "fuzz.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Skip()
	}
	return path
}

// FuzzOpenSnapshot pins the decoder against hostile files: no byte
// sequence may panic OpenSnapshotFile or the fault path behind it.
// Accepted files must serve their directory and every table, through rows
// and columns, without crashing — corruption the open-time validation
// cannot see (payload bytes in lazy mode) surfaces through the sticky
// Err, never a panic. A file carrying the magic of a format earlier
// builds wrote (the committed corpus under testdata/fuzz holds such
// files) never opens.
func FuzzOpenSnapshot(f *testing.F) {
	addSnapshotSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeFuzzFile(t, data)
		legacy := false
		for _, l := range legacyMagics {
			legacy = legacy || bytes.HasPrefix(data, []byte(l.magic))
		}
		for _, mode := range []SnapMode{SnapLazy, SnapEager} {
			s, err := OpenSnapshotFile(path, mode)
			if err != nil {
				continue // rejected files just need to not panic
			}
			if legacy {
				t.Fatalf("%v: opened a file with a legacy magic", mode)
			}
			s.Tables(func(alpha, beta int32, entries []Entry) bool { return true })
			s.TableLens(func(alpha, beta int32, count int) bool {
				_ = s.TableCols(alpha, beta)
				return true
			})
			_ = s.Err()
			_ = s.ComputeStats()
			if err := s.Close(); err != nil {
				t.Fatalf("Close after full fault: %v", err)
			}
		}
	})
}

// FuzzOpenSnapshotV2 fuzzes the acceptance contract across modes over
// the same seeds: VerifySnapshotFile accepts a file exactly when an eager
// open does, and exactly when a lazy or mmap open succeeds and then
// faults every table without a sticky error. An accepted file serves the
// same columns in every mode.
func FuzzOpenSnapshotV2(f *testing.F) {
	addSnapshotSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := writeFuzzFile(t, data)
		_, verr := VerifySnapshotFile(path)
		var ref [][]Entry
		for _, mode := range allSnapModes {
			s, err := OpenSnapshotFile(path, mode)
			if err != nil {
				if verr == nil {
					t.Fatalf("%v: verified file fails to open: %v", mode, err)
				}
				if mode != SnapEager {
					return // lazy and mmap reject structural damage alike
				}
				continue
			}
			var got [][]Entry
			s.TableLens(func(alpha, beta int32, count int) bool {
				got = append(got, s.TableCols(alpha, beta).AppendEntries(nil))
				return true
			})
			ok := s.Err() == nil
			if ok != (verr == nil) {
				t.Fatalf("%v: serves with err %v, verifier says %v", mode, s.Err(), verr)
			}
			if ok && ref == nil {
				ref = got
			} else if ok && !reflect.DeepEqual(got, ref) {
				t.Fatalf("%v: tables differ from the eager open", mode)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("%v: Close: %v", mode, err)
			}
		}
	})
}
