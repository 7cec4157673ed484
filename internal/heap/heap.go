// Package heap provides the priority-queue machinery of Sections 3.3 and
// 4.4 of the paper:
//
//   - Min: a plain binary min-heap with int64 keys and an arbitrary payload,
//     used for the global candidate queue Q and the per-round queues Q_l.
//   - Indexed: a binary min-heap with decrease-key and membership testing,
//     used for the active-node queue Qg of Algorithm 2.
//   - ChildList: the L/H structure of Section 3.3 — a sorted extracted
//     prefix H plus a min-heap L of the remainder, supporting Kth(i), the
//     i-th smallest element, in amortized O(log n) (O(1) once extracted).
//
// All heaps are hand-rolled rather than built on container/heap: the
// enumeration inner loop calls these operations O(k·n_T) times and the
// interface-based container/heap costs measurably more; the paper's
// complexity argument also leans on the exact operation mix (build in
// linear time, pop in O(log), peek in O(1)).
package heap

import "unsafe"

// Item is a keyed heap element. Payload identity is opaque to the heap.
type Item struct {
	Key int64
	// Val is the payload. Heaps never inspect it.
	Val any
}

// Min is a binary min-heap over Items. The zero value is an empty heap.
type Min struct {
	a []Item
}

// NewMin builds a heap from items in O(len(items)) time (bottom-up
// heapify), the linear-time construction the paper relies on for Q_l.
func NewMin(items []Item) *Min {
	h := &Min{a: items}
	for i := len(h.a)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// Len returns the number of elements.
func (h *Min) Len() int { return len(h.a) }

// Push inserts an item in O(log n).
func (h *Min) Push(it Item) {
	h.a = append(h.a, it)
	h.up(len(h.a) - 1)
}

// Peek returns the minimum item without removing it. It panics on an empty
// heap; callers are expected to check Len.
func (h *Min) Peek() Item { return h.a[0] }

// Reset empties the heap, keeping its storage; it costs the items left.
func (h *Min) Reset() {
	clear(h.a)
	h.a = h.a[:0]
}

// Bytes returns the memory the heap's storage holds.
func (h *Min) Bytes() int { return cap(h.a) * int(unsafe.Sizeof(Item{})) }

// Pop removes and returns the minimum item in O(log n).
func (h *Min) Pop() Item {
	top := h.a[0]
	last := len(h.a) - 1
	h.a[0] = h.a[last]
	h.a = h.a[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *Min) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].Key <= h.a[i].Key {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *Min) down(i int) {
	n := len(h.a)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.a[l].Key < h.a[small].Key {
			small = l
		}
		if r < n && h.a[r].Key < h.a[small].Key {
			small = r
		}
		if small == i {
			return
		}
		h.a[i], h.a[small] = h.a[small], h.a[i]
		i = small
	}
}

// Indexed is a binary min-heap over externally identified elements
// (non-negative int handles) supporting DecreaseKey, arbitrary Update, and
// membership tests — the operation set Algorithm 2 needs for Qg, where a
// node's lb may drop while it waits in the queue (Line 13).
//
// Handles must be small non-negative integers; the heap allocates position
// slots up to the largest handle seen.
type Indexed struct {
	a   []indexedItem
	pos []int // pos[handle] = index into a, or -1
}

type indexedItem struct {
	key    int64
	handle int
}

// NewIndexed returns an empty indexed heap with capacity hint n handles.
func NewIndexed(n int) *Indexed {
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	return &Indexed{pos: pos}
}

// Len returns the number of queued elements.
func (h *Indexed) Len() int { return len(h.a) }

// Contains reports whether handle is currently queued.
func (h *Indexed) Contains(handle int) bool {
	return handle < len(h.pos) && h.pos[handle] >= 0
}

// Key returns the current key of handle. It panics if handle is absent.
func (h *Indexed) Key(handle int) int64 {
	return h.a[h.pos[handle]].key
}

func (h *Indexed) grow(handle int) {
	for len(h.pos) <= handle {
		h.pos = append(h.pos, -1)
	}
}

// Push inserts handle with key. It panics if handle is already present.
func (h *Indexed) Push(handle int, key int64) {
	h.grow(handle)
	if h.pos[handle] >= 0 {
		panic("heap: Push of queued handle")
	}
	h.a = append(h.a, indexedItem{key, handle})
	h.pos[handle] = len(h.a) - 1
	h.up(len(h.a) - 1)
}

// Update sets the key of a queued handle, restoring heap order whichever
// way the key moved. It panics if handle is absent.
func (h *Indexed) Update(handle int, key int64) {
	i := h.pos[handle]
	if i < 0 {
		panic("heap: Update of absent handle")
	}
	old := h.a[i].key
	h.a[i].key = key
	if key < old {
		h.up(i)
	} else if key > old {
		h.down(i)
	}
}

// PeekKey returns the minimum key without removing it. Panics when empty.
func (h *Indexed) PeekKey() int64 { return h.a[0].key }

// Peek returns the minimum element's handle and key. Panics when empty.
func (h *Indexed) Peek() (handle int, key int64) {
	return h.a[0].handle, h.a[0].key
}

// Pop removes and returns the minimum element.
func (h *Indexed) Pop() (handle int, key int64) {
	top := h.a[0]
	h.swapOut(0)
	return top.handle, top.key
}

// Reset empties the heap, keeping its storage for handles already
// seen; it costs the elements left, not the handles.
func (h *Indexed) Reset() {
	for _, it := range h.a {
		h.pos[it.handle] = -1
	}
	h.a = h.a[:0]
}

// Bytes returns the memory the heap's storage holds.
func (h *Indexed) Bytes() int {
	return cap(h.a)*int(unsafe.Sizeof(indexedItem{})) + cap(h.pos)*int(unsafe.Sizeof(int(0)))
}

// Remove deletes handle from the heap if present.
func (h *Indexed) Remove(handle int) {
	if handle >= len(h.pos) || h.pos[handle] < 0 {
		return
	}
	h.swapOut(h.pos[handle])
}

func (h *Indexed) swapOut(i int) {
	last := len(h.a) - 1
	h.pos[h.a[i].handle] = -1
	if i != last {
		h.a[i] = h.a[last]
		h.pos[h.a[i].handle] = i
	}
	h.a = h.a[:last]
	if i < last {
		// The moved element may need to travel either way.
		h.down(i)
		h.up(h.pos[h.a[i].handle])
	}
}

func (h *Indexed) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.a[p].key <= h.a[i].key {
			break
		}
		h.swap(p, i)
		i = p
	}
}

func (h *Indexed) down(i int) {
	n := len(h.a)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.a[l].key < h.a[small].key {
			small = l
		}
		if r < n && h.a[r].key < h.a[small].key {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *Indexed) swap(i, j int) {
	h.a[i], h.a[j] = h.a[j], h.a[i]
	h.pos[h.a[i].handle] = i
	h.pos[h.a[j].handle] = j
}
