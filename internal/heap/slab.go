package heap

import "unsafe"

// Slab hands out storage for values that live and die together — one
// enumeration's nodes, child lists and matches — in chunks, so carving
// costs no allocation once the chunks exist. A carve never moves, and
// nothing is freed one carve at a time: Reset zeroes what was carved,
// lets go of the chunks this use never reached and rewinds, and the next
// user carves the same chunks again. So a slab holds what its last use
// needed, not the most any use ever did. The zero value is an empty
// slab. A Slab is not safe for concurrent use.
type Slab[T any] struct {
	chunks [][]T
	cur    int // the chunk carves come from
	off    int // next free element of chunks[cur]
}

// Chunk sizes double from slabMinChunk up to slabMaxChunk bytes; a carve
// larger than that gets a chunk of its own.
const (
	slabMinChunk = 512
	slabMaxChunk = 64 << 10
)

// Carve returns n zeroed elements with capacity n.
func (s *Slab[T]) Carve(n int) []T {
	for ; s.cur < len(s.chunks); s.cur, s.off = s.cur+1, 0 {
		if c := s.chunks[s.cur]; s.off+n <= len(c) {
			out := c[s.off : s.off+n : s.off+n]
			s.off += n
			return out
		}
	}
	size := slabMinChunk / s.elemSize()
	if k := len(s.chunks); k > 0 {
		size = min(2*len(s.chunks[k-1]), slabMaxChunk/s.elemSize())
	}
	s.chunks = append(s.chunks, make([]T, max(size, n, 1)))
	s.off = n
	return s.chunks[s.cur][:n:n]
}

// Reset zeroes every element carved since the last Reset, so carved
// values pin nothing, drops the chunks past the last one carved from and
// rewinds to the first chunk. It costs what was carved, not what the
// chunks hold.
func (s *Slab[T]) Reset() {
	for i := 0; i < s.cur && i < len(s.chunks); i++ {
		clear(s.chunks[i])
	}
	if s.cur < len(s.chunks) {
		clear(s.chunks[s.cur][:s.off])
		clear(s.chunks[s.cur+1:])
		s.chunks = s.chunks[:s.cur+1]
	}
	s.cur, s.off = 0, 0
}

// Bytes returns the memory the slab's chunks hold.
func (s *Slab[T]) Bytes() int {
	n := 0
	for _, c := range s.chunks {
		n += len(c)
	}
	return n * s.elemSize()
}

func (s *Slab[T]) elemSize() int {
	var zero T
	return max(int(unsafe.Sizeof(zero)), 1)
}

// Append appends x to dst, a slice carved from s (or nil): when dst is
// full it moves to a carve twice its size, and the carve it leaves is
// reclaimed only when s resets. A nil s appends as the built-in does.
func Append[T any](s *Slab[T], dst []T, x T) []T {
	if s != nil && len(dst) == cap(dst) {
		grown := s.Carve(max(2*cap(dst), 4))
		dst = grown[:copy(grown, dst)]
	}
	return append(dst, x)
}
