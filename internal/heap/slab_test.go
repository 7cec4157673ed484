package heap

import "testing"

// TestSlabCarvesDisjointAndResets checks that carves never overlap, that
// a reset slab hands out zeroed memory from the chunks it already holds,
// that a reset after a smaller use lets go of the chunks it did not
// reach, and that Append moves a full carve to a doubled one.
func TestSlabCarvesDisjointAndResets(t *testing.T) {
	var s Slab[int32]
	var carves [][]int32
	for i := 1; i <= 300; i++ {
		c := s.Carve(i % 37)
		if len(c) != i%37 || cap(c) != len(c) {
			t.Fatalf("carve %d: len %d cap %d", i, len(c), cap(c))
		}
		for j := range c {
			if c[j] != 0 {
				t.Fatalf("carve %d holds %d", i, c[j])
			}
			c[j] = int32(i)
		}
		carves = append(carves, c)
	}
	for i, c := range carves {
		for _, x := range c {
			if x != int32(i+1) {
				t.Fatalf("carve %d overwritten with %d", i+1, x)
			}
		}
	}
	held := s.Bytes()
	s.Reset()
	for i := 1; i <= 300; i++ {
		for _, x := range s.Carve(i % 37) {
			if x != 0 {
				t.Fatalf("carve %d after Reset holds %d", i, x)
			}
		}
	}
	if s.Bytes() != held {
		t.Fatalf("the same carves after Reset grew the slab from %d to %d bytes", held, s.Bytes())
	}
	s.Reset()
	s.Carve(1)
	s.Reset()
	if first := slabMinChunk; s.Bytes() != first {
		t.Fatalf("a reset after one small carve holds %d bytes, want the first chunk's %d", s.Bytes(), first)
	}
	var xs []int32
	for i := int32(0); i < 100; i++ {
		xs = Append(&s, xs, i)
	}
	for i, x := range xs {
		if x != int32(i) {
			t.Fatalf("Append lost element %d: %d", i, x)
		}
	}
	if cap(xs) != 128 {
		t.Fatalf("cap %d after 100 appends, want the doubled carve 128", cap(xs))
	}
}
