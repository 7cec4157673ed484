package closure

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Every snapshot carries a CRC32C trailer after the last table payload,
// located by a fixed-size footer at EOF:
//
//	trailer  uint32 headerCRC          — over the 64-byte header
//	         uint32 graphCRC           — over the graph text section
//	         uint32 dirCRC             — over the raw directory rows
//	         numTables × uint32        — per-table payload CRC, directory
//	                                     order, over the table's full
//	                                     span (inter-column alignment
//	                                     padding included)
//	footer   [8]  magic "KTPMCRC1"     — last 32 bytes of the file
//	         [8]  int64 trailerOff
//	         [4]  uint32 trailerLen
//	         [4]  uint32 trailerCRC    — over the trailer bytes
//	         [8]  reserved (zero)
//
// The trailer is required: a file that ends at its last payload is torn
// (or had its trailer stripped) and fails to open, because without the
// CRCs payload bit rot inside a structurally plausible table would be
// served as an answer. Header, graph, directory, and trailer CRCs are
// verified at open (preserving the O(directory) lazy open); each table's
// CRC is verified when the table faults, before validation and
// publication.

const (
	snapFooterSize = 32
	snapTrailerFix = 12 // headerCRC + graphCRC + dirCRC
)

var snapFooterMagic = []byte("KTPMCRC1")

var snapCRC = crc32.MakeTable(crc32.Castagnoli)

// crcWriter forwards writes to w, hashing them into crc while a
// section is active. The snapshot writer activates it around each
// table payload span to compute per-table CRCs without buffering.
type crcWriter struct {
	w      io.Writer
	crc    uint32
	active bool
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	if cw.active {
		cw.crc = crc32.Update(cw.crc, snapCRC, p)
	}
	return cw.w.Write(p)
}

func (cw *crcWriter) begin()      { cw.crc, cw.active = 0, true }
func (cw *crcWriter) end() uint32 { cw.active = false; return cw.crc }

// writeSnapshotTrailer appends the trailer and footer; pos is the
// current file offset (end of the last payload).
func writeSnapshotTrailer(w io.Writer, pos int64, headerCRC, graphCRC, dirCRC uint32, tableCRCs []uint32) error {
	trailer := make([]byte, snapTrailerFix+4*len(tableCRCs))
	binary.LittleEndian.PutUint32(trailer[0:4], headerCRC)
	binary.LittleEndian.PutUint32(trailer[4:8], graphCRC)
	binary.LittleEndian.PutUint32(trailer[8:12], dirCRC)
	for i, c := range tableCRCs {
		binary.LittleEndian.PutUint32(trailer[snapTrailerFix+4*i:], c)
	}
	if _, err := w.Write(trailer); err != nil {
		return err
	}
	footer := make([]byte, snapFooterSize)
	copy(footer, snapFooterMagic)
	binary.LittleEndian.PutUint64(footer[8:16], uint64(pos))
	binary.LittleEndian.PutUint32(footer[16:20], uint32(len(trailer)))
	binary.LittleEndian.PutUint32(footer[20:24], crc32.Checksum(trailer, snapCRC))
	_, err := w.Write(footer)
	return err
}

// readSnapshotTrailer locates and validates the checksum trailer and
// returns the per-table CRCs. payloadEnd is the end of the last table
// payload computed from the directory — the position the trailer must
// start at. Any other trailing length (none at all included), a bad
// footer magic, or a CRC mismatch is corruption, typically a torn write:
// nothing but a complete, valid trailer may follow the payloads.
func readSnapshotTrailer(r io.ReaderAt, size, payloadEnd int64, hdr, dirRaw []byte, graphOff, graphLen int64, numTables int) ([]uint32, error) {
	trailerLen := int64(snapTrailerFix + 4*numTables)
	if size != payloadEnd+trailerLen+snapFooterSize {
		return nil, fmt.Errorf("closure: snapshot has %d bytes after the last payload, want %d (checksum trailer) — torn or corrupt file", size-payloadEnd, trailerLen+snapFooterSize)
	}
	footer := make([]byte, snapFooterSize)
	if _, err := r.ReadAt(footer, size-snapFooterSize); err != nil {
		return nil, fmt.Errorf("closure: snapshot footer: %w", err)
	}
	if !bytes.Equal(footer[:8], snapFooterMagic) {
		return nil, fmt.Errorf("closure: snapshot footer magic %q invalid — torn or corrupt file", footer[:8])
	}
	trailerOff := int64(binary.LittleEndian.Uint64(footer[8:16]))
	if got := int64(binary.LittleEndian.Uint32(footer[16:20])); got != trailerLen || trailerOff != payloadEnd {
		return nil, fmt.Errorf("closure: snapshot checksum trailer out of bounds (off %d len %d size %d)", trailerOff, got, size)
	}
	trailer := make([]byte, trailerLen)
	if _, err := r.ReadAt(trailer, trailerOff); err != nil {
		return nil, fmt.Errorf("closure: snapshot checksum trailer: %w", err)
	}
	if got := crc32.Checksum(trailer, snapCRC); got != binary.LittleEndian.Uint32(footer[20:24]) {
		return nil, fmt.Errorf("closure: snapshot checksum trailer corrupt (crc %08x, footer says %08x)", got, binary.LittleEndian.Uint32(footer[20:24]))
	}
	if got, want := crc32.Checksum(hdr, snapCRC), binary.LittleEndian.Uint32(trailer[0:4]); got != want {
		return nil, fmt.Errorf("closure: snapshot header corrupt (crc %08x, trailer says %08x)", got, want)
	}
	graphRaw := make([]byte, graphLen)
	if _, err := r.ReadAt(graphRaw, graphOff); err != nil {
		return nil, fmt.Errorf("closure: snapshot graph section: %w", err)
	}
	if got, want := crc32.Checksum(graphRaw, snapCRC), binary.LittleEndian.Uint32(trailer[4:8]); got != want {
		return nil, fmt.Errorf("closure: snapshot graph section corrupt (crc %08x, trailer says %08x)", got, want)
	}
	if got, want := crc32.Checksum(dirRaw, snapCRC), binary.LittleEndian.Uint32(trailer[8:12]); got != want {
		return nil, fmt.Errorf("closure: snapshot directory corrupt (crc %08x, trailer says %08x)", got, want)
	}
	tableCRCs := make([]uint32, numTables)
	for i := range tableCRCs {
		tableCRCs[i] = binary.LittleEndian.Uint32(trailer[snapTrailerFix+4*i:])
	}
	return tableCRCs, nil
}

// verifyTableCRC checks raw (the full payload span of dir[i]) against
// the trailer CRC.
func (s *Snapshot) verifyTableCRC(i int, raw []byte) error {
	if got := crc32.Checksum(raw, snapCRC); got != s.tableCRCs[i] {
		return fmt.Errorf("payload corrupt: crc %08x, trailer says %08x", got, s.tableCRCs[i])
	}
	return nil
}

// VerifyReport is VerifySnapshotFile's summary of a healthy snapshot.
type VerifyReport struct {
	Mode      string // backing mode used for verification
	Tables    int
	Entries   int64
	SizeBytes int64
}

// VerifySnapshotFile validates every byte of a snapshot that matters:
// magic and version, header bounds, directory ordering/bounds/alignment,
// the checksum trailer (header, graph, directory, and every table payload
// CRC), and full structural validation of every table's columns against
// the graph. It faults every table, so cost is proportional to file size.
func VerifySnapshotFile(path string) (VerifyReport, error) {
	s, err := OpenSnapshotFile(path, SnapLazy)
	if err != nil {
		return VerifyReport{}, err
	}
	defer s.Close()
	rep := VerifyReport{
		Mode:      s.Mode().String(),
		Tables:    s.NumTables(),
		Entries:   s.NumEntries(),
		SizeBytes: s.size,
	}
	for i := range s.dir {
		if _, err := s.loadCols(i); err != nil {
			return rep, err
		}
	}
	return rep, nil
}
