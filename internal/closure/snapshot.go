package closure

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"ktpm/internal/graph"
)

// KTPMSNAP2 is the page-aligned, offset-indexed, columnar snapshot format:
// a self-contained image of one graph plus its transitive closure that can
// be served straight off the file without parsing it at open time. All
// integers are little-endian.
//
//	[0,10)   magic "KTPMSNAP2\n"
//	[10,14)  uint32 version (2)
//	[14,18)  uint32 pageSize (alignment unit of the directory and payload
//	         sections; writers use snapPageSize)
//	[18,26)  int64 numTables
//	[26,34)  int64 numEntries
//	[34,42)  int64 graphOff   — graph text section (graph.Encode format)
//	[42,50)  int64 graphLen
//	[50,58)  int64 dirOff     — table directory, page-aligned
//	[58,64)  reserved (zero)
//	...      graph text
//	dirOff   numTables × 24-byte rows {int32 alpha, int32 beta,
//	         int64 off, int64 count}, sorted by (alpha, beta)
//	...      table payloads, the payload section starting page-aligned;
//	         each table stores its entries as three int32 columns:
//
//	             d.off            to[count]    — target nodes (the carve key)
//	             d.off + distRel  dist[count]  — δmin values
//	             d.off + fromRel  from[count]  — source nodes
//
//	...      checksum trailer and footer (checksum.go), required
//
// where distRel/fromRel round each preceding column up to snapTableAlign,
// so every column starts 16-byte aligned and an mmap of the file serves
// zero-copy []int32 views per column (colsSpan computes the offsets). Lane
// i across the three columns is entry i, in canonical (To, Dist, From)
// order. The directory up front lets a reader open the snapshot in
// O(directory) time and seek (or map) exactly the tables a workload
// touches; column payloads make the store's threshold scans, inList
// carving and D/E derivation tight per-column passes.

var snapMagic = []byte("KTPMSNAP2\n")

// legacyMagics are the file formats earlier builds wrote and this one no
// longer reads. Opening one fails with an error naming the format and how
// to convert it, rather than a generic bad-magic error.
var legacyMagics = []struct {
	magic, format, fix string
}{
	{"KTPMSNAP1\n", "a row-major KTPMSNAP1 snapshot", "ktpm -snapshot OLD -save-snapshot NEW -snapshot-format v2"},
	{"KTPMDB1 ", "a KTPMDB1 database file (ktpm -save, ktpmd -db)", "ktpm -db OLD -save-snapshot NEW -snapshot-format v2"},
	{"KTPMTC1\n", "a bare KTPMTC1 closure stream", "ktpm -db OLD -save-snapshot NEW -snapshot-format v2 on the KTPMDB1 file that holds it"},
}

const (
	snapVersion    = 2
	snapPageSize   = 4096
	snapHeaderSize = 64
	snapDirEntSize = 24
	snapTableAlign = 16

	// colChunk is the scratch granularity of writeCol: entries stream
	// through a buffer of at most this many lanes per column.
	colChunk = 1 << 16
)

// colsSpan returns the layout of one table payload holding count entries:
// the offsets of the dist and from columns relative to the table offset,
// and the total payload span. Every column starts snapTableAlign-aligned;
// total ≥ count×EntrySize always holds, which the open-time bounds checks
// rely on to stay overflow-safe.
func colsSpan(count int64) (distRel, fromRel, total int64) {
	col := alignUp(count*4, snapTableAlign)
	distRel = col
	fromRel = 2 * col
	total = fromRel + count*4
	return
}

// SnapMode selects how OpenSnapshotFile backs table reads.
type SnapMode int

const (
	// SnapEager decodes every table into memory at open, so serving never
	// touches the file again.
	SnapEager SnapMode = iota
	// SnapLazy reads only the header, graph, and directory at open; a
	// table's payload is seek-read and decoded the first time it is
	// asked for.
	SnapLazy
	// SnapMMap maps the file and serves zero-copy []int32 column views
	// over the mapping (no heap copy of payloads). On platforms without
	// mmap — or big-endian hosts, where the little-endian columns cannot
	// be reinterpreted in place — it degrades to SnapLazy; Snapshot.Mode
	// reports what actually happened.
	SnapMMap
)

// String returns the CLI spelling ("eager", "lazy", "mmap").
func (m SnapMode) String() string {
	switch m {
	case SnapEager:
		return "eager"
	case SnapLazy:
		return "lazy"
	case SnapMMap:
		return "mmap"
	}
	return fmt.Sprintf("SnapMode(%d)", int(m))
}

// hostLittleEndian reports whether on-disk little-endian int32 columns can
// be reinterpreted in place as []int32, the precondition of mmap views.
var hostLittleEndian = func() bool {
	var one uint16 = 1
	return *(*byte)(unsafe.Pointer(&one)) == 1
}()

// snapDirEnt is one decoded directory row.
type snapDirEnt struct {
	alpha, beta int32
	off         int64
	count       int64
}

// Snapshot is an open KTPMSNAP2 file: a ColumnSource whose tables fault
// in on first use (lazy, mmap) or are pre-faulted at open (eager). All
// methods are safe for concurrent use; a faulted table is decoded (or
// mapped and validated) exactly once and then served lock-free, so one
// Snapshot can back every shard replica of a database. Close releases
// the file and any mapping — only after all queries against the snapshot
// have stopped, since mmap-mode column views point into the mapping.
type Snapshot struct {
	g    *graph.Graph
	dir  []snapDirEnt
	mode SnapMode // effective mode, after any mmap fallback

	// cols[i] is the published column view of dir[i], nil until faulted:
	// zero-copy per column under mmap, a decoded heap copy otherwise.
	cols []atomic.Pointer[Cols]
	// tabs[i] is a row-major materialization of cols[i], built on demand
	// for the TableSource interface.
	tabs []atomic.Pointer[[]Entry]
	mu   sync.Mutex // serializes faults; reads stay lock-free

	f    *os.File    // lazy backing; nil once eager load completes
	r    io.ReaderAt // == f, kept as an interface for tests
	data []byte      // mmap backing; nil in other modes
	size int64       // file size

	numEntries   int64
	tablesLoaded atomic.Int64
	loadErr      atomic.Pointer[error] // sticky first fault-time failure

	// tableCRCs holds the per-table payload CRC32C values from the
	// checksum trailer (checksum.go), directory order. Verified as each
	// table faults.
	tableCRCs []uint32
}

var _ ColumnSource = (*Snapshot)(nil)

// WriteSnapshot writes src — graph and closure — as a KTPMSNAP2 snapshot.
// Any TableSource serves, so an existing database (in-memory or itself
// snapshot-backed) converts without recomputing the closure; on a lazy
// source this faults every table. The directory is sorted by (alpha,
// beta), making the output deterministic for a given closure.
func WriteSnapshot(w io.Writer, src TableSource) error {
	g := src.Graph()
	var gbuf bytes.Buffer
	if err := graph.Encode(&gbuf, g); err != nil {
		return err
	}

	dir := make([]snapDirEnt, 0, src.NumTables())
	src.TableLens(func(alpha, beta int32, count int) bool {
		dir = append(dir, snapDirEnt{alpha: alpha, beta: beta, count: int64(count)})
		return true
	})
	sort.Slice(dir, func(i, j int) bool {
		if dir[i].alpha != dir[j].alpha {
			return dir[i].alpha < dir[j].alpha
		}
		return dir[i].beta < dir[j].beta
	})

	graphOff := int64(snapHeaderSize)
	dirOff := alignUp(graphOff+int64(gbuf.Len()), snapPageSize)
	off := alignUp(dirOff+int64(len(dir))*snapDirEntSize, snapPageSize)
	var numEntries int64
	for i := range dir {
		dir[i].off = off
		_, _, total := colsSpan(dir[i].count)
		off = alignUp(off+total, snapTableAlign)
		numEntries += dir[i].count
	}

	bw := bufio.NewWriterSize(w, 1<<20)
	// Payload writes flow through cw so per-table CRCs for the checksum
	// trailer are computed as the bytes stream out, never buffered.
	cw := &crcWriter{w: bw}
	tableCRCs := make([]uint32, len(dir))
	hdr := make([]byte, snapHeaderSize)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint32(hdr[10:14], snapVersion)
	binary.LittleEndian.PutUint32(hdr[14:18], snapPageSize)
	binary.LittleEndian.PutUint64(hdr[18:26], uint64(len(dir)))
	binary.LittleEndian.PutUint64(hdr[26:34], uint64(numEntries))
	binary.LittleEndian.PutUint64(hdr[34:42], uint64(graphOff))
	binary.LittleEndian.PutUint64(hdr[42:50], uint64(gbuf.Len()))
	binary.LittleEndian.PutUint64(hdr[50:58], uint64(dirOff))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	headerCRC := crc32.Checksum(hdr, snapCRC)
	graphCRC := crc32.Checksum(gbuf.Bytes(), snapCRC)
	pos := int64(snapHeaderSize)
	pad := func(to int64) error {
		for pos < to {
			n := to - pos
			if n > int64(len(zeroPage)) {
				n = int64(len(zeroPage))
			}
			if _, err := cw.Write(zeroPage[:n]); err != nil {
				return err
			}
			pos += n
		}
		return nil
	}
	if _, err := bw.Write(gbuf.Bytes()); err != nil {
		return err
	}
	pos += int64(gbuf.Len())
	if err := pad(dirOff); err != nil {
		return err
	}
	row := make([]byte, snapDirEntSize)
	var dirCRC uint32
	for _, d := range dir {
		binary.LittleEndian.PutUint32(row[0:4], uint32(d.alpha))
		binary.LittleEndian.PutUint32(row[4:8], uint32(d.beta))
		binary.LittleEndian.PutUint64(row[8:16], uint64(d.off))
		binary.LittleEndian.PutUint64(row[16:24], uint64(d.count))
		dirCRC = crc32.Update(dirCRC, snapCRC, row)
		if _, err := bw.Write(row); err != nil {
			return err
		}
	}
	pos += int64(len(dir)) * snapDirEntSize
	var buf []byte
	for i, d := range dir {
		if err := pad(d.off); err != nil {
			return err
		}
		entries := src.Table(d.alpha, d.beta)
		if int64(len(entries)) != d.count {
			return fmt.Errorf("closure: table (%d,%d) has %d entries, directory says %d (changed or failed to load during snapshot write)", d.alpha, d.beta, len(entries), d.count)
		}
		// The table's whole payload span — inter-column padding included —
		// feeds its trailer CRC. Columns are streamed straight from the
		// row-major entries so the writer never materializes a second
		// copy of the table.
		cw.begin()
		distRel, fromRel, _ := colsSpan(d.count)
		for _, c := range []struct {
			rel int64
			sel func(Entry) int32
		}{
			{0, func(e Entry) int32 { return e.To }},
			{distRel, func(e Entry) int32 { return e.Dist }},
			{fromRel, func(e Entry) int32 { return e.From }},
		} {
			if err := pad(d.off + c.rel); err != nil {
				return err
			}
			var err error
			if buf, err = writeCol(cw, entries, c.sel, buf); err != nil {
				return err
			}
			pos += d.count * 4
		}
		tableCRCs[i] = cw.end()
	}
	if err := writeSnapshotTrailer(bw, pos, headerCRC, graphCRC, dirCRC, tableCRCs); err != nil {
		return err
	}
	return bw.Flush()
}

var zeroPage [snapPageSize]byte

func alignUp(n, align int64) int64 { return (n + align - 1) / align * align }

// writeCol streams one int32 field of entries — selected by sel — as a
// contiguous little-endian column through buf (grown to at most colChunk
// lanes), returning the possibly-grown buffer. The writer uses it to
// transpose on the fly without holding a second copy of the table.
func writeCol(w io.Writer, entries []Entry, sel func(Entry) int32, buf []byte) ([]byte, error) {
	for len(entries) > 0 {
		n := min(len(entries), colChunk)
		if cap(buf) < n*4 {
			buf = make([]byte, n*4)
		}
		buf = buf[:n*4]
		for i, e := range entries[:n] {
			binary.LittleEndian.PutUint32(buf[i*4:], uint32(sel(e)))
		}
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
		entries = entries[n:]
	}
	return buf, nil
}

// decodeInt32ColInto decodes len(dst) little-endian int32s from src.
func decodeInt32ColInto(src []byte, dst []int32) {
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(src[i*4:]))
	}
}

// validateCols checks every lane of one table against the graph: in-range
// endpoints, positive distance, and labels agreeing with the table's
// (alpha, beta) directory key. It runs as per-column passes (each a tight
// scan over one contiguous []int32) before a faulted view is published.
func validateCols(g *graph.Graph, alpha, beta int32, c Cols) error {
	if len(c.From) != len(c.To) || len(c.Dist) != len(c.To) {
		return fmt.Errorf("column lengths disagree: from %d to %d dist %d", len(c.From), len(c.To), len(c.Dist))
	}
	n := int32(g.NumNodes())
	for i, v := range c.From {
		if v < 0 || v >= n || g.Label(v) != alpha {
			return fmt.Errorf("invalid entry %+v", c.At(i))
		}
	}
	for i, v := range c.To {
		if v < 0 || v >= n || g.Label(v) != beta {
			return fmt.Errorf("invalid entry %+v", c.At(i))
		}
	}
	for i, d := range c.Dist {
		if d <= 0 {
			return fmt.Errorf("invalid entry %+v", c.At(i))
		}
	}
	return nil
}

// OpenSnapshotFile opens a KTPMSNAP2 snapshot written by WriteSnapshot.
// In SnapLazy and SnapMMap modes the work done here is O(header + graph +
// directory): no table payload is read, decoded, or validated until its
// first fault. The directory itself is fully validated — bad magic,
// implausible counts, unsorted rows, offsets pointing past EOF, and a
// missing or damaged checksum trailer all fail here rather than at query
// time.
func OpenSnapshotFile(path string, mode SnapMode) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	s, err := openSnapshot(f, mode)
	if err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// checkMagic accepts the KTPMSNAP2 magic and names the format and the
// conversion of any file an earlier build wrote.
func checkMagic(hdr []byte) error {
	if bytes.HasPrefix(hdr, snapMagic) {
		return nil
	}
	for _, l := range legacyMagics {
		if bytes.HasPrefix(hdr, []byte(l.magic)) {
			return fmt.Errorf("closure: file is %s, a format this build no longer reads; rewrite it as KTPMSNAP2 with an older ktpm that still reads it: %s", l.format, l.fix)
		}
	}
	return fmt.Errorf("closure: bad snapshot magic %q", hdr[:min(len(hdr), len(snapMagic))])
}

func openSnapshot(f *os.File, mode SnapMode) (*Snapshot, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := fi.Size()
	hdr := make([]byte, snapHeaderSize)
	n, err := f.ReadAt(hdr, 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("closure: snapshot header: %w", err)
	}
	if err := checkMagic(hdr[:n]); err != nil {
		return nil, err
	}
	if n < snapHeaderSize {
		return nil, fmt.Errorf("closure: snapshot header: %w", io.ErrUnexpectedEOF)
	}
	if v := binary.LittleEndian.Uint32(hdr[10:14]); v != snapVersion {
		return nil, fmt.Errorf("closure: snapshot version %d, want %d", v, snapVersion)
	}
	numTables := int64(binary.LittleEndian.Uint64(hdr[18:26]))
	numEntries := int64(binary.LittleEndian.Uint64(hdr[26:34]))
	graphOff := int64(binary.LittleEndian.Uint64(hdr[34:42]))
	graphLen := int64(binary.LittleEndian.Uint64(hdr[42:50]))
	dirOff := int64(binary.LittleEndian.Uint64(hdr[50:58]))
	// Each field is bounded against the file size before it is used in
	// arithmetic, so corrupt headers with huge values cannot overflow a
	// later sum or product into passing a check.
	if graphOff < snapHeaderSize || graphOff > size ||
		graphLen < 0 || graphLen > size-graphOff ||
		dirOff < graphOff+graphLen || dirOff > size ||
		numTables < 0 || numTables > (size-dirOff)/snapDirEntSize ||
		numEntries < 0 {
		return nil, fmt.Errorf("closure: snapshot header out of bounds (size %d)", size)
	}

	g, err := graph.Decode(bufio.NewReader(io.NewSectionReader(f, graphOff, graphLen)))
	if err != nil {
		return nil, fmt.Errorf("closure: snapshot graph section: %w", err)
	}

	dirRaw := make([]byte, numTables*snapDirEntSize)
	if _, err := f.ReadAt(dirRaw, dirOff); err != nil {
		return nil, fmt.Errorf("closure: snapshot directory: %w", err)
	}
	dir := make([]snapDirEnt, numTables)
	payloadStart := dirOff + numTables*snapDirEntSize
	payloadEnd := payloadStart // end of the last table payload
	var total int64
	numLabels := int32(g.NumLabels())
	for i := range dir {
		row := dirRaw[i*snapDirEntSize:]
		d := snapDirEnt{
			alpha: int32(binary.LittleEndian.Uint32(row[0:4])),
			beta:  int32(binary.LittleEndian.Uint32(row[4:8])),
			off:   int64(binary.LittleEndian.Uint64(row[8:16])),
			count: int64(binary.LittleEndian.Uint64(row[16:24])),
		}
		if d.alpha < 0 || d.alpha >= numLabels || d.beta < 0 || d.beta >= numLabels {
			return nil, fmt.Errorf("closure: snapshot directory row %d: label pair (%d,%d) outside graph's %d labels", i, d.alpha, d.beta, numLabels)
		}
		if i > 0 && !(dir[i-1].alpha < d.alpha || (dir[i-1].alpha == d.alpha && dir[i-1].beta < d.beta)) {
			return nil, fmt.Errorf("closure: snapshot directory not sorted at row %d", i)
		}
		// Bounding count by the remaining file size first makes colsSpan
		// overflow-safe (its span is at least count×EntrySize); the second
		// check makes the bound exact.
		if d.off < payloadStart || d.off > size || d.count < 0 || d.count > (size-d.off)/EntrySize {
			return nil, fmt.Errorf("closure: snapshot directory row %d: table (%d,%d) at [%d, +%d entries) outside file of %d bytes", i, d.alpha, d.beta, d.off, d.count, size)
		}
		_, _, span := colsSpan(d.count)
		if span > size-d.off {
			return nil, fmt.Errorf("closure: snapshot directory row %d: table (%d,%d) at [%d, +%d bytes) outside file of %d bytes", i, d.alpha, d.beta, d.off, span, size)
		}
		payloadEnd = max(payloadEnd, d.off+span)
		if d.off%snapTableAlign != 0 {
			// The format guarantees 16-byte-aligned tables; an unaligned
			// offset would misalign the mmap mode's in-place column views,
			// so it is structural corruption caught at open.
			return nil, fmt.Errorf("closure: snapshot directory row %d: table (%d,%d) offset %d not %d-byte aligned", i, d.alpha, d.beta, d.off, snapTableAlign)
		}
		dir[i] = d
		total += d.count
	}
	if total != numEntries {
		return nil, fmt.Errorf("closure: snapshot directory counts sum to %d, header says %d", total, numEntries)
	}

	// Checksum trailer (checksum.go): header/graph/directory CRCs verify
	// here; per-table CRCs are kept for fault-time verification.
	tableCRCs, err := readSnapshotTrailer(f, size, payloadEnd, hdr, dirRaw, graphOff, graphLen, int(numTables))
	if err != nil {
		return nil, err
	}

	s := &Snapshot{
		g:          g,
		dir:        dir,
		mode:       mode,
		cols:       make([]atomic.Pointer[Cols], numTables),
		tabs:       make([]atomic.Pointer[[]Entry], numTables),
		f:          f,
		r:          f,
		size:       size,
		numEntries: numEntries,
		tableCRCs:  tableCRCs,
	}
	if mode == SnapMMap {
		// The byte order is checked before mapping: a mapping that cannot
		// be reinterpreted in place would only leak address space.
		if !hostLittleEndian {
			s.mode = SnapLazy
		} else if data, err := mmapFile(f, size); err != nil {
			// Portable fallback: same lazy faulting, through ReadAt.
			s.mode = SnapLazy
		} else {
			s.data = data
			// The mapping outlives the descriptor; close it so lazy-mode
			// resources and mmap-mode resources never mix.
			s.f.Close()
			s.f, s.r = nil, nil
		}
	}
	if mode == SnapEager {
		for i := range s.dir {
			if _, err := s.loadCols(i); err != nil {
				s.Close()
				return nil, err
			}
		}
		s.f.Close()
		s.f, s.r = nil, nil
	}
	return s, nil
}

// find binary-searches the directory; -1 when the pair has no table.
func (s *Snapshot) find(alpha, beta int32) int {
	i := sort.Search(len(s.dir), func(i int) bool {
		d := &s.dir[i]
		return d.alpha > alpha || (d.alpha == alpha && d.beta >= beta)
	})
	if i < len(s.dir) && s.dir[i].alpha == alpha && s.dir[i].beta == beta {
		return i
	}
	return -1
}

// load returns directory entry i as a row-major table, transposed from
// its (already validated) column view and cached, so Table keeps working
// for TableSource consumers. Later calls are a single atomic load.
func (s *Snapshot) load(i int) ([]Entry, error) {
	if p := s.tabs[i].Load(); p != nil {
		return *p, nil
	}
	c, err := s.loadCols(i)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.tabs[i].Load(); p != nil {
		return *p, nil
	}
	entries := c.AppendEntries(make([]Entry, 0, c.Len()))
	s.tabs[i].Store(&entries)
	return entries, nil
}

// loadCols faults directory entry i as a column view: under mmap each
// column is a zero-copy []int32 view over the mapping (column starts are
// snapTableAlign-aligned by construction, so the reinterpretation is
// always aligned); in lazy mode the three columns are read and decoded in
// one ReadAt. The payload's trailer CRC and then validateCols run before
// the view is published; later calls are a single atomic load.
func (s *Snapshot) loadCols(i int) (Cols, error) {
	if p := s.cols[i].Load(); p != nil {
		return *p, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if p := s.cols[i].Load(); p != nil {
		return *p, nil
	}
	d := &s.dir[i]
	distRel, fromRel, total := colsSpan(d.count)
	var c Cols
	switch {
	case s.data != nil:
		// The trailer CRC covers the full columnar span, padding included,
		// straight off the mapping before the views are published.
		if err := s.verifyTableCRC(i, s.data[d.off:d.off+total]); err != nil {
			return Cols{}, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
		}
		if d.count > 0 {
			c.To = unsafe.Slice((*int32)(unsafe.Pointer(&s.data[d.off])), d.count)
			c.Dist = unsafe.Slice((*int32)(unsafe.Pointer(&s.data[d.off+distRel])), d.count)
			c.From = unsafe.Slice((*int32)(unsafe.Pointer(&s.data[d.off+fromRel])), d.count)
		}
	case s.r != nil:
		raw := make([]byte, total)
		if _, err := s.r.ReadAt(raw, d.off); err != nil {
			return Cols{}, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
		}
		if err := s.verifyTableCRC(i, raw); err != nil {
			return Cols{}, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
		}
		c.To = make([]int32, d.count)
		c.Dist = make([]int32, d.count)
		c.From = make([]int32, d.count)
		decodeInt32ColInto(raw[0:], c.To)
		decodeInt32ColInto(raw[distRel:], c.Dist)
		decodeInt32ColInto(raw[fromRel:], c.From)
	default:
		return Cols{}, fmt.Errorf("closure: snapshot is closed")
	}
	if err := validateCols(s.g, d.alpha, d.beta, c); err != nil {
		return Cols{}, fmt.Errorf("closure: snapshot table (%d,%d): %w", d.alpha, d.beta, err)
	}
	s.cols[i].Store(&c)
	s.tablesLoaded.Add(1)
	return c, nil
}

// table is the error-swallowing load used behind TableSource: the
// interface has no error channel, so a fault-time failure (I/O error or
// payload corruption, both impossible once a table is resident) records a
// sticky error readable via Err and serves the table as empty.
func (s *Snapshot) table(i int) []Entry {
	entries, err := s.load(i)
	if err != nil {
		s.loadErr.CompareAndSwap(nil, &err)
		return nil
	}
	return entries
}

// tableCols is the error-swallowing column fault used behind
// ColumnSource, mirroring table: a fault-time failure records a sticky
// error readable via Err and serves the table as empty.
func (s *Snapshot) tableCols(i int) Cols {
	c, err := s.loadCols(i)
	if err != nil {
		s.loadErr.CompareAndSwap(nil, &err)
		return Cols{}
	}
	return c
}

// Err returns the first fault-time load failure, or nil. Open-time
// validation catches structural corruption, so a non-nil Err means the
// file changed or failed underneath an open lazy/mmap snapshot.
func (s *Snapshot) Err() error {
	if p := s.loadErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Graph returns the graph decoded from the snapshot's graph section.
func (s *Snapshot) Graph() *graph.Graph { return s.g }

// NumEntries returns the total closure size recorded in the header.
func (s *Snapshot) NumEntries() int64 { return s.numEntries }

// NumTables returns the directory size.
func (s *Snapshot) NumTables() int { return len(s.dir) }

// TableLen answers from the directory without faulting the table.
func (s *Snapshot) TableLen(alpha, beta int32) int {
	if i := s.find(alpha, beta); i >= 0 {
		return int(s.dir[i].count)
	}
	return 0
}

// TableLens iterates the directory without faulting any table.
func (s *Snapshot) TableLens(fn func(alpha, beta int32, count int) bool) {
	for i := range s.dir {
		if !fn(s.dir[i].alpha, s.dir[i].beta, int(s.dir[i].count)) {
			return
		}
	}
}

// Table returns the L^α_β entries, faulting them on first use.
func (s *Snapshot) Table(alpha, beta int32) []Entry {
	i := s.find(alpha, beta)
	if i < 0 {
		return nil
	}
	return s.table(i)
}

// TableCols returns the L^α_β table as a column view, faulting it on
// first use; in mmap mode the columns are zero-copy views over the
// mapping.
func (s *Snapshot) TableCols(alpha, beta int32) Cols {
	i := s.find(alpha, beta)
	if i < 0 {
		return Cols{}
	}
	return s.tableCols(i)
}

// Tables calls fn for every table in directory order, faulting each.
func (s *Snapshot) Tables(fn func(alpha, beta int32, entries []Entry) bool) {
	for i := range s.dir {
		if !fn(s.dir[i].alpha, s.dir[i].beta, s.table(i)) {
			return
		}
	}
}

// ComputeStats summarizes the snapshot from its directory alone.
func (s *Snapshot) ComputeStats() Stats {
	st := Stats{
		Entries:   s.numEntries,
		Tables:    len(s.dir),
		SizeBytes: s.numEntries * EntrySize,
	}
	if len(s.dir) > 0 {
		st.Theta = float64(s.numEntries) / float64(len(s.dir))
	}
	for i := range s.dir {
		if int(s.dir[i].count) > st.MaxTable {
			st.MaxTable = int(s.dir[i].count)
		}
	}
	if n := s.g.NumNodes(); n > 0 {
		st.AvgPerNode = float64(s.numEntries) / float64(n)
	}
	return st
}

// Mode returns the effective backing mode: what SnapMMap degraded to when
// the platform cannot map or reinterpret the file in place.
func (s *Snapshot) Mode() SnapMode { return s.mode }

// TablesLoaded returns how many tables have been faulted so far — the
// counter behind IOStats.SnapshotTablesLoaded. Right after a lazy or
// mmap open it is 0; eager open reports the full directory.
func (s *Snapshot) TablesLoaded() int64 { return s.tablesLoaded.Load() }

// BytesMapped returns the size of the live memory mapping (0 unless the
// effective mode is SnapMMap).
func (s *Snapshot) BytesMapped() int64 { return int64(len(s.data)) }

// Close releases the file handle and any mapping. It must only be called
// after every query against the snapshot has finished: mmap-mode column
// views point into the mapping and become invalid here. Idempotent.
func (s *Snapshot) Close() error {
	var err error
	if s.data != nil {
		err = munmap(s.data)
		s.data = nil
		// Published zero-copy views now dangle; drop them so a
		// (disallowed but cheap to defend) post-Close fault observes the
		// closed state instead of reading unmapped memory. Row-major
		// tables are heap copies and stay valid.
		for i := range s.cols {
			s.cols[i].Store(nil)
		}
	}
	if s.f != nil {
		if cerr := s.f.Close(); err == nil {
			err = cerr
		}
		s.f, s.r = nil, nil
	}
	return err
}
