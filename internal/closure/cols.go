package closure

// Cols is a structure-of-arrays view of one label-pair table: lane i of the
// view is the entry {From[i], To[i], Dist[i]}, and lanes appear in the same
// canonical (To, Dist, From) order Table returns. The three slices always
// have equal length and are shared with the source — callers must not
// modify them. A zero Cols (all slices nil) is the empty table.
//
// The point of the type is that the enumeration hot loops only need one or
// two of the three fields at a time (dist-threshold scans, inList carving,
// D/E derivation); serving each field as its own contiguous column turns
// those loops into tight per-column passes instead of 12-byte strided
// struct walks. Snapshots store tables in exactly this layout, so on an
// mmap-mode snapshot a Cols is served zero-copy from the mapping.
type Cols struct {
	From, To, Dist []int32
}

// Len returns the number of lanes (entries) in the view.
func (c Cols) Len() int { return len(c.To) }

// At reassembles lane i as a row-major Entry.
func (c Cols) At(i int) Entry {
	return Entry{From: c.From[i], To: c.To[i], Dist: c.Dist[i]}
}

// AppendEntries appends every lane to dst in order as row-major entries.
func (c Cols) AppendEntries(dst []Entry) []Entry {
	for i := range c.To {
		dst = append(dst, Entry{From: c.From[i], To: c.To[i], Dist: c.Dist[i]})
	}
	return dst
}

// EntriesToCols transposes a row-major table into freshly allocated
// columns, preserving order.
func EntriesToCols(entries []Entry) Cols {
	if len(entries) == 0 {
		return Cols{}
	}
	c := Cols{
		From: make([]int32, len(entries)),
		To:   make([]int32, len(entries)),
		Dist: make([]int32, len(entries)),
	}
	for i, e := range entries {
		c.From[i] = e.From
		c.To[i] = e.To
		c.Dist[i] = e.Dist
	}
	return c
}

// ColumnSource is a TableSource whose stored form is column views: a
// Snapshot, which serves its on-disk columns (zero-copy under mmap).
// TableCols returns the L^α_β table as columns in canonical (To, Dist,
// From) lane order; the zero Cols means the table is empty or absent.
// Iteration helpers prefer TableCols on such a source: Table would
// materialize and cache a row-major copy of every table touched.
type ColumnSource interface {
	TableSource
	TableCols(alpha, beta int32) Cols
}

// TableColsOf serves src's L^α_β table as columns: a ColumnSource's own
// views (shared is true: they alias the source's storage, a mapping
// under mmap, and must not be modified or outlive it), otherwise a fresh
// transpose of the row-major table that the caller owns. The transpose
// allocates per call and is not retained, so callers carve once and keep
// the result (the store layout does).
func TableColsOf(src TableSource, alpha, beta int32) (cols Cols, shared bool) {
	if cs, ok := src.(ColumnSource); ok {
		return cs.TableCols(alpha, beta), true
	}
	return EntriesToCols(src.Table(alpha, beta)), false
}
