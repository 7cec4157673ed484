package closure

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"ktpm/internal/gen"
)

var allSnapModes = []SnapMode{SnapEager, SnapLazy, SnapMMap}

// writeTestSnapshot computes a closure and writes its snapshot to a temp
// file, returning the closure and the path.
func writeTestSnapshot(t *testing.T) (*Closure, string) {
	t.Helper()
	g := gen.ErdosRenyi(60, 220, 6, 11)
	c := Compute(g, Options{})
	path := filepath.Join(t.TempDir(), "c.snap")
	if err := writeSnapshotFile(path, c); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return c, path
}

func sameTables(t *testing.T, want TableSource, got TableSource, mode string) {
	t.Helper()
	if got.NumEntries() != want.NumEntries() {
		t.Fatalf("%s: entries %d, want %d", mode, got.NumEntries(), want.NumEntries())
	}
	if got.NumTables() != want.NumTables() {
		t.Fatalf("%s: tables %d, want %d", mode, got.NumTables(), want.NumTables())
	}
	want.Tables(func(alpha, beta int32, entries []Entry) bool {
		if n := got.TableLen(alpha, beta); n != len(entries) {
			t.Fatalf("%s: TableLen(%d,%d) = %d, want %d", mode, alpha, beta, n, len(entries))
		}
		tab := got.Table(alpha, beta)
		if len(tab) != len(entries) {
			t.Fatalf("%s: table (%d,%d): %d entries, want %d", mode, alpha, beta, len(tab), len(entries))
		}
		for i := range entries {
			if tab[i] != entries[i] {
				t.Fatalf("%s: table (%d,%d)[%d]: %v, want %v", mode, alpha, beta, i, tab[i], entries[i])
			}
		}
		return true
	})
}

// TestSnapshotRoundTripAllModes pins the snapshot against the in-memory
// closure it was written from, in every mode: row-major Table views
// (reassembled from columns) must agree entry for entry, and the
// directory-level stats must match.
func TestSnapshotRoundTripAllModes(t *testing.T) {
	c, path := writeTestSnapshot(t)
	for _, mode := range allSnapModes {
		s, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatalf("%v: OpenSnapshotFile: %v", mode, err)
		}
		sameTables(t, c, s, mode.String())
		if err := s.Err(); err != nil {
			t.Fatalf("%v: Err: %v", mode, err)
		}
		if gs, ws := s.ComputeStats(), c.ComputeStats(); gs != ws {
			t.Fatalf("%v: stats %+v, want %+v", mode, gs, ws)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%v: Close: %v", mode, err)
		}
	}
}

// TestSnapshotV2RoundTripAllModes pins the KTPMSNAP2 column views against
// the in-memory closure in every mode: TableColsOf must hand out the
// snapshot's own views (no transpose), agreeing lane for lane.
func TestSnapshotV2RoundTripAllModes(t *testing.T) {
	c, path := writeTestSnapshot(t)
	for _, mode := range allSnapModes {
		s, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatalf("%v: OpenSnapshotFile: %v", mode, err)
		}
		c.Tables(func(alpha, beta int32, entries []Entry) bool {
			cols, shared := TableColsOf(s, alpha, beta)
			if !shared {
				t.Fatalf("%v: cols (%d,%d) transposed, want the snapshot's own views", mode, alpha, beta)
			}
			if cols.Len() != len(entries) {
				t.Fatalf("%v: cols (%d,%d): %d lanes, want %d", mode, alpha, beta, cols.Len(), len(entries))
			}
			for i, e := range entries {
				if cols.At(i) != e {
					t.Fatalf("%v: cols (%d,%d)[%d]: %v, want %v", mode, alpha, beta, i, cols.At(i), e)
				}
			}
			return true
		})
		if err := s.Err(); err != nil {
			t.Fatalf("%v: Err: %v", mode, err)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("%v: Close: %v", mode, err)
		}
	}
}

func TestSnapshotOpenDoesNoTableWork(t *testing.T) {
	c, path := writeTestSnapshot(t)
	for _, mode := range []SnapMode{SnapLazy, SnapMMap} {
		s, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if n := s.TablesLoaded(); n != 0 {
			t.Fatalf("%v: %d tables loaded at open, want 0", mode, n)
		}
		// Directory-only queries stay fault-free.
		s.TableLens(func(alpha, beta int32, count int) bool { return true })
		_ = s.ComputeStats()
		if n := s.TablesLoaded(); n != 0 {
			t.Fatalf("%v: directory reads faulted %d tables", mode, n)
		}
		var alpha, beta int32 = -1, -1
		s.TableLens(func(a, b int32, count int) bool { alpha, beta = a, b; return false })
		if len(s.Table(alpha, beta)) == 0 {
			t.Fatalf("%v: first table empty", mode)
		}
		if n := s.TablesLoaded(); n != 1 {
			t.Fatalf("%v: %d tables loaded after one fault, want 1", mode, n)
		}
		s.Close()
	}
	// Eager pre-faults everything.
	s, err := OpenSnapshotFile(path, SnapEager)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := s.TablesLoaded(); n != int64(c.NumTables()) {
		t.Fatalf("eager: %d tables loaded at open, want %d", n, c.NumTables())
	}
}

// mappedColumn is one non-empty column view of an mmap-mode table.
type mappedColumn struct {
	alpha, beta int32
	col         []int32
}

// openMappedColumns opens the test snapshot in mmap mode, skipping where
// mmap degrades to lazy, and collects every column view it serves.
func openMappedColumns(t *testing.T) (*Snapshot, []mappedColumn) {
	t.Helper()
	_, path := writeTestSnapshot(t)
	s, err := OpenSnapshotFile(path, SnapMMap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if s.Mode() != SnapMMap {
		t.Skipf("mmap degraded to %v on this platform", s.Mode())
	}
	var out []mappedColumn
	s.TableLens(func(alpha, beta int32, count int) bool {
		cols := s.TableCols(alpha, beta)
		for _, col := range [][]int32{cols.To, cols.Dist, cols.From} {
			if len(col) > 0 {
				out = append(out, mappedColumn{alpha, beta, col})
			}
		}
		return true
	})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no columns served")
	}
	return s, out
}

// TestSnapshotMMapZeroCopy pins that in mmap mode every column of every
// table is a view inside the mapping: no payload is copied onto the heap.
func TestSnapshotMMapZeroCopy(t *testing.T) {
	s, cols := openMappedColumns(t)
	if s.BytesMapped() == 0 {
		t.Fatal("BytesMapped = 0 in mmap mode")
	}
	base := uintptr(unsafe.Pointer(&s.data[0]))
	end := base + uintptr(len(s.data))
	for _, c := range cols {
		p := uintptr(unsafe.Pointer(&c.col[0]))
		if p < base || p+uintptr(len(c.col))*4 > end {
			t.Fatalf("table (%d,%d): column [%#x,%#x) escapes the mapping [%#x,%#x) — not zero-copy", c.alpha, c.beta, p, p+uintptr(len(c.col))*4, base, end)
		}
	}
}

// TestSnapshotV2MMapColumnAlignment pins the KTPMSNAP2 layout property the
// zero-copy views rely on: every column of every table starts 16-byte
// aligned, so reinterpreting the mapped bytes as []int32 is always
// aligned.
func TestSnapshotV2MMapColumnAlignment(t *testing.T) {
	_, cols := openMappedColumns(t)
	for _, c := range cols {
		if p := uintptr(unsafe.Pointer(&c.col[0])); p%snapTableAlign != 0 {
			t.Fatalf("table (%d,%d): column start %#x not %d-aligned", c.alpha, c.beta, p, snapTableAlign)
		}
	}
}

// corrupt writes a mutated copy of the snapshot and returns its path.
func corrupt(t *testing.T, path string, mutate func(b []byte) []byte) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b = mutate(append([]byte(nil), b...))
	out := filepath.Join(t.TempDir(), "corrupt.snap")
	if err := os.WriteFile(out, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return out
}

// snapDirOff reads the directory offset from a snapshot image.
func snapDirOff(b []byte) int64 {
	return int64(binary.LittleEndian.Uint64(b[50:58]))
}

// resealSnapshot recomputes every CRC of an edited snapshot image that
// kept its trailer and footer in place: header, graph, directory, each
// table whose directory row still names a span before the trailer, and
// the footer's trailer CRC. The edit then reaches structural validation,
// the check behind the checksum, instead of failing a CRC.
func resealSnapshot(t *testing.T, b []byte) {
	t.Helper()
	le := binary.LittleEndian
	footer := b[len(b)-snapFooterSize:]
	trailerOff := int64(le.Uint64(footer[8:16]))
	trailer := b[trailerOff : int64(len(b))-snapFooterSize]
	numTables := int64(len(trailer)-snapTrailerFix) / 4
	graphOff, graphLen := int64(le.Uint64(b[34:42])), int64(le.Uint64(b[42:50]))
	dirOff := snapDirOff(b)
	dir := b[dirOff : dirOff+numTables*snapDirEntSize]
	le.PutUint32(trailer[0:4], crc32.Checksum(b[:snapHeaderSize], snapCRC))
	le.PutUint32(trailer[4:8], crc32.Checksum(b[graphOff:graphOff+graphLen], snapCRC))
	le.PutUint32(trailer[8:12], crc32.Checksum(dir, snapCRC))
	for i := range numTables {
		row := dir[i*snapDirEntSize:]
		off, count := int64(le.Uint64(row[8:16])), int64(le.Uint64(row[16:24]))
		if count < 0 || count > trailerOff/EntrySize {
			continue
		}
		if _, _, span := colsSpan(count); off >= 0 && off <= trailerOff-span {
			le.PutUint32(trailer[snapTrailerFix+4*i:], crc32.Checksum(b[off:off+span], snapCRC))
		}
	}
	le.PutUint32(footer[20:24], crc32.Checksum(trailer, snapCRC))
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	_, path := writeTestSnapshot(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, trailerBytes := snapLayout(t, raw)
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		errHas string // required substring of the open error, if any
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad snapshot magic"},
		// Formats earlier builds wrote are named, with the conversion.
		{"legacy KTPMSNAP1 magic", func(b []byte) []byte { b[8] = '1'; return b }, "KTPMSNAP1 snapshot, a format this build no longer reads; rewrite it as KTPMSNAP2"},
		{"legacy KTPMDB1 magic", func(b []byte) []byte { copy(b, "KTPMDB1 1234\n"); return b }, "KTPMDB1 database file (ktpm -save, ktpmd -db), a format this build no longer reads; rewrite it as KTPMSNAP2"},
		{"legacy KTPMTC1 magic", func(b []byte) []byte { return []byte("KTPMTC1\n\x00") }, "KTPMTC1 closure stream, a format this build no longer reads; rewrite it as KTPMSNAP2"},
		{"bad version", func(b []byte) []byte { b[10] = 99; return b }, "snapshot version"},
		{"numTables overflow", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[18:26], 1<<60)
			return b
		}, ""},
		{"graph section overflow", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[34:42], 1<<62)
			binary.LittleEndian.PutUint64(b[42:50], 1<<62)
			return b
		}, ""},
		{"truncated header", func(b []byte) []byte { return b[:snapHeaderSize/2] }, ""},
		// Cut into the last table's columns (trailer gone with them).
		{"truncated payload", func(b []byte) []byte { return b[:int64(len(b))-trailerBytes-8] }, ""},
		{"truncated at directory", func(b []byte) []byte { return b[:snapDirOff(b)+4] }, ""},
		{"directory offset past EOF", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			binary.LittleEndian.PutUint64(row[8:16], uint64(len(b))+snapPageSize)
			return b
		}, ""},
		{"directory count past EOF", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			binary.LittleEndian.PutUint64(row[16:24], 1<<40)
			return b
		}, ""},
		{"directory count overflow", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			binary.LittleEndian.PutUint64(row[16:24], 1<<62)
			return b
		}, ""},
		{"unsorted directory", func(b []byte) []byte {
			d := snapDirOff(b)
			tmp := make([]byte, snapDirEntSize)
			copy(tmp, b[d:])
			copy(b[d:], b[d+snapDirEntSize:d+2*snapDirEntSize])
			copy(b[d+snapDirEntSize:], tmp)
			return b
		}, ""},
		{"label out of range", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			binary.LittleEndian.PutUint32(row[0:4], 1<<30)
			return b
		}, ""},
		// A column start off the 16-byte grid every zero-copy view
		// derives from.
		{"unaligned table offset", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			off := binary.LittleEndian.Uint64(row[8:16])
			binary.LittleEndian.PutUint64(row[8:16], off+4)
			return b
		}, ""},
		{"garbage graph section", func(b []byte) []byte {
			copy(b[snapHeaderSize:], "definitely not a graph")
			return b
		}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := corrupt(t, path, tc.mutate)
			for _, mode := range allSnapModes {
				s, err := OpenSnapshotFile(p, mode)
				if err == nil {
					s.Close()
					t.Fatalf("%v: corruption %q accepted at open", mode, tc.name)
				}
				if !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("%v: error %q does not say %q", mode, err, tc.errHas)
				}
			}
			if _, err := VerifySnapshotFile(p); err == nil {
				t.Fatalf("VerifySnapshotFile accepted %q", tc.name)
			}
		})
	}
	// Payload damage inside the directory's bounds is only detectable when
	// the table faults: eager rejects at open; lazy and mmap reject at the
	// first fault, through both the column and the row read paths, with a
	// sticky Err. The CRCs are resealed so the damage reaches structural
	// validation, the check behind the checksum.
	t.Run("out-of-range entry endpoint", func(t *testing.T) {
		first := int64(binary.LittleEndian.Uint64(raw[snapDirOff(raw)+8:]))
		p := corrupt(t, path, func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[first:], 1<<30) // to[0], far out of range
			resealSnapshot(t, b)
			return b
		})
		if s, err := OpenSnapshotFile(p, SnapEager); err == nil {
			s.Close()
			t.Fatal("eager open accepted an out-of-range entry endpoint")
		} else if !strings.Contains(err.Error(), "invalid entry") {
			t.Fatalf("eager open failed on %q, want structural validation", err)
		}
		for _, mode := range []SnapMode{SnapLazy, SnapMMap} {
			s, err := OpenSnapshotFile(p, mode)
			if err != nil {
				t.Fatalf("%v: open should defer payload validation, got %v", mode, err)
			}
			var alpha, beta int32
			s.TableLens(func(a, b int32, count int) bool { alpha, beta = a, b; return false })
			if cols := s.TableCols(alpha, beta); cols.Len() != 0 {
				t.Fatalf("%v: corrupt table served %d lanes", mode, cols.Len())
			}
			if tab := s.Table(alpha, beta); tab != nil {
				t.Fatalf("%v: corrupt table served %d entries via rows", mode, len(tab))
			}
			if s.Err() == nil {
				t.Fatalf("%v: no sticky error after corrupt fault", mode)
			}
			// Re-encoding the damaged source must fail loudly, not write
			// a file with the table missing.
			if err := WriteSnapshot(io.Discard, s); err == nil {
				t.Fatalf("%v: WriteSnapshot of a corrupt snapshot succeeded", mode)
			}
			s.Close()
		}
	})
}

func TestSnapshotWriteDeterministic(t *testing.T) {
	g := gen.ErdosRenyi(40, 150, 5, 3)
	c := Compute(g, Options{})
	var a, b bytes.Buffer
	if err := WriteSnapshot(&a, c); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two WriteSnapshot runs of one closure differ")
	}
}

// TestSnapshotV2WriteDeterministic pins that the writer's bytes depend on
// the closure only, not on the source it reads it from: a snapshot opened
// in any mode writes back the file it was opened from.
func TestSnapshotV2WriteDeterministic(t *testing.T) {
	_, path := writeTestSnapshot(t)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range allSnapModes {
		s, err := OpenSnapshotFile(path, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		var got bytes.Buffer
		if err := WriteSnapshot(&got, s); err != nil {
			t.Fatalf("%v: WriteSnapshot: %v", mode, err)
		}
		s.Close()
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%v: writing an opened snapshot differs from the file it was opened from", mode)
		}
	}
}

// TestSnapshotV2RejectsCorruption pins the diagnosis behind each KTPMSNAP2
// layout rule. Every damaged image that keeps its trailer is resealed, so
// no CRC can be what rejects it: each must fail, in every open mode and in
// the verifier, with the structural check named for the damage.
func TestSnapshotV2RejectsCorruption(t *testing.T) {
	_, path := writeTestSnapshot(t)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, trailerBytes := snapLayout(t, raw)
	resealed := append([]byte(nil), raw...)
	resealSnapshot(t, resealed)
	if !bytes.Equal(resealed, raw) {
		t.Fatal("resealing an undamaged snapshot changed its bytes")
	}
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		errHas string
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad snapshot magic"},
		{"v1 magic on v2 body", func(b []byte) []byte { b[8] = '1'; return b }, "KTPMSNAP1 snapshot"},
		{"version field disagrees with magic", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[10:14], 1)
			return b
		}, "snapshot version 1, want 2"},
		// Cut into the last table's columns (trailer gone with them).
		{"truncated columns", func(b []byte) []byte { return b[:int64(len(b))-trailerBytes-8] }, "outside file"},
		{"directory offset past EOF", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			binary.LittleEndian.PutUint64(row[8:16], uint64(len(b))+snapPageSize)
			return b
		}, "outside file"},
		{"directory count past EOF", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			binary.LittleEndian.PutUint64(row[16:24], 1<<40)
			return b
		}, "outside file"},
		{"misaligned column start", func(b []byte) []byte {
			row := b[snapDirOff(b):]
			off := binary.LittleEndian.Uint64(row[8:16])
			binary.LittleEndian.PutUint64(row[8:16], off+4)
			return b
		}, "not 16-byte aligned"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := corrupt(t, path, func(b []byte) []byte {
				b = tc.mutate(b)
				if len(b) == len(raw) {
					resealSnapshot(t, b)
				}
				return b
			})
			for _, mode := range allSnapModes {
				s, err := OpenSnapshotFile(p, mode)
				if err == nil {
					s.Close()
					t.Fatalf("%v: corruption %q accepted at open", mode, tc.name)
				}
				if !strings.Contains(err.Error(), tc.errHas) {
					t.Fatalf("%v: error %q does not say %q", mode, err, tc.errHas)
				}
			}
			if _, err := VerifySnapshotFile(p); err == nil || !strings.Contains(err.Error(), tc.errHas) {
				t.Fatalf("VerifySnapshotFile: error %v, want one saying %q", err, tc.errHas)
			}
		})
	}
	// A bad lane in the from column of the last table, resealed. The
	// damage stays confined to that table: lazy and mmap keep serving
	// every other table and fail only the damaged one, with a sticky Err;
	// eager and the verifier reject the file.
	t.Run("out-of-range lane", func(t *testing.T) {
		le := binary.LittleEndian
		numTables := int64(le.Uint64(raw[18:26]))
		row := raw[snapDirOff(raw)+(numTables-1)*snapDirEntSize:]
		alpha, beta := int32(le.Uint32(row[0:4])), int32(le.Uint32(row[4:8]))
		off, count := int64(le.Uint64(row[8:16])), int64(le.Uint64(row[16:24]))
		if count == 0 {
			t.Fatal("fixture's last table is empty")
		}
		_, fromRel, _ := colsSpan(count)
		p := corrupt(t, path, func(b []byte) []byte {
			le.PutUint32(b[off+fromRel:], 1<<30) // from[0], far out of range
			resealSnapshot(t, b)
			return b
		})
		if s, err := OpenSnapshotFile(p, SnapEager); err == nil {
			s.Close()
			t.Fatal("eager open accepted an out-of-range column lane")
		} else if !strings.Contains(err.Error(), "invalid entry") {
			t.Fatalf("eager open failed on %q, want structural validation", err)
		}
		if _, err := VerifySnapshotFile(p); err == nil || !strings.Contains(err.Error(), "invalid entry") {
			t.Fatalf("VerifySnapshotFile: error %v, want structural validation", err)
		}
		for _, mode := range []SnapMode{SnapLazy, SnapMMap} {
			s, err := OpenSnapshotFile(p, mode)
			if err != nil {
				t.Fatalf("%v: open should defer payload validation, got %v", mode, err)
			}
			s.TableLens(func(a, b int32, n int) bool {
				if a == alpha && b == beta {
					return true
				}
				if got := s.TableCols(a, b).Len(); got != n {
					t.Fatalf("%v: healthy table (%d,%d) served %d lanes, want %d", mode, a, b, got, n)
				}
				return true
			})
			if err := s.Err(); err != nil {
				t.Fatalf("%v: healthy tables set Err: %v", mode, err)
			}
			if cols := s.TableCols(alpha, beta); cols.Len() != 0 {
				t.Fatalf("%v: corrupt table served %d lanes", mode, cols.Len())
			}
			if err := s.Err(); err == nil || !strings.Contains(err.Error(), "invalid entry") {
				t.Fatalf("%v: sticky error %v after corrupt fault, want structural validation", mode, err)
			}
			s.Close()
		}
	})
}

// TestDecodeRejectsOutOfRangeEndpoint pins the payload decode every table
// fault takes outside mmap: columns streamed by writeCol decode back lane
// for lane through decodeInt32ColInto and pass validateCols, while one
// endpoint outside the graph's nodes, in either endpoint column, fails it.
func TestDecodeRejectsOutOfRangeEndpoint(t *testing.T) {
	g := gen.ErdosRenyi(30, 100, 4, 2)
	c := Compute(g, Options{})
	var alpha, beta int32
	var entries []Entry
	c.Tables(func(a, b int32, e []Entry) bool { alpha, beta, entries = a, b, e; return false })
	if len(entries) == 0 {
		t.Fatal("fixture's first table is empty")
	}
	decode := func(sel func(Entry) int32) []int32 {
		var buf bytes.Buffer
		if _, err := writeCol(&buf, entries, sel, nil); err != nil {
			t.Fatal(err)
		}
		col := make([]int32, len(entries))
		decodeInt32ColInto(buf.Bytes(), col)
		return col
	}
	cols := Cols{
		From: decode(func(e Entry) int32 { return e.From }),
		To:   decode(func(e Entry) int32 { return e.To }),
		Dist: decode(func(e Entry) int32 { return e.Dist }),
	}
	for i, e := range entries {
		if cols.At(i) != e {
			t.Fatalf("lane %d decoded as %v, want %v", i, cols.At(i), e)
		}
	}
	if err := validateCols(g, alpha, beta, cols); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	n := int32(g.NumNodes())
	for _, tc := range []struct {
		name string
		col  []int32
		v    int32
	}{
		{"from past the last node", cols.From, n},
		{"from far out of range", cols.From, 1 << 30},
		{"negative from", cols.From, -1},
		{"to past the last node", cols.To, n},
		{"negative to", cols.To, -1},
	} {
		old := tc.col[0]
		tc.col[0] = tc.v
		if err := validateCols(g, alpha, beta, cols); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
		tc.col[0] = old
	}
}

// TestSnapshotBytesPinned pins the KTPMSNAP2 bytes across builds: the
// digest below is what the writer produced for this seeded closure when
// the format was last changed on purpose. Files and compacted generations
// already on disk must keep opening, and snapshot sizes must keep meaning
// the same thing, so any change here is a format change and needs a new
// magic or version, not a new digest.
func TestSnapshotBytesPinned(t *testing.T) {
	const (
		wantLen    = 27584
		wantSHA256 = "3cfadd45d5cb428effc0ecc46c4ae673c60865832eb2a937f16d52e89865fee3"
	)
	c := Compute(gen.ErdosRenyi(40, 150, 5, 3), Options{})
	var b bytes.Buffer
	if err := WriteSnapshot(&b, c); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	if got := hex.EncodeToString(sum[:]); b.Len() != wantLen || got != wantSHA256 {
		t.Fatalf("snapshot is %d bytes with sha256 %s, want %d bytes with %s", b.Len(), got, wantLen, wantSHA256)
	}
}
