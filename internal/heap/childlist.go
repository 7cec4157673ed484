package heap

// Entry is an element of a ChildList: a child node (of the run-time graph)
// together with its replacement key bs(v') + δmin(v, v').
type Entry struct {
	Key int64
	// Node identifies the child; run-time-graph node index in practice.
	Node int32
}

// ChildList is the Section 3.3 structure maintained per (node, child-label)
// pair: the union H ∪ L of all children with that label, where H is the
// sorted prefix of smallest keys extracted so far and L is a binary
// min-heap of the rest. Building it costs O(n); asking for the i-th
// smallest (Kth) extends H from L as needed, so a sequence of Kth calls
// with non-decreasing i — exactly the access pattern Lawler division
// produces (Theorems 3.1 and 3.2) — costs O(log n) amortized per call and
// O(1) when the answer is already extracted.
//
// The paper maintains the |U_j|=1 special case separately (Section 3.3,
// "Implementing Replacement"); the sorted-prefix formulation here subsumes
// it with the same amortized cost.
type ChildList struct {
	h []Entry // sorted ascending by Key
	l []Entry // binary min-heap by Key
	// slab, when set, backs h and l: a side that outgrows its carve
	// moves to a doubled carve from it instead of the allocator.
	slab *Slab[Entry]
	// Group is a slot the list's owner may key its own per-list state
	// by; the list never reads or writes it. The lazy enumerator keeps
	// the index of the parked-candidate group governed by this list here,
	// so an Insert finds that group without a map lookup.
	Group int32
}

// SetSlab makes an empty list carve its storage from s, so the lists of
// one owner share one slab and a reset of the slab reclaims them all.
func (cl *ChildList) SetSlab(s *Slab[Entry]) { cl.slab = s }

// NewChildList builds a ChildList over entries in O(len(entries)). The
// minimum element is extracted into H immediately, matching the paper's
// initialization ("we scan L once ... put it into H"). The entries slice is
// taken over by the list.
func NewChildList(entries []Entry) *ChildList {
	cl := &ChildList{l: entries}
	for i := len(cl.l)/2 - 1; i >= 0; i-- {
		cl.down(i)
	}
	if len(cl.l) > 0 {
		cl.extract()
	}
	return cl
}

// Len returns the total number of entries (extracted plus heaped). The
// zero ChildList is empty, ready for incremental construction by the
// lazy loader (Algorithm 2 inserts as edges arrive).
func (cl *ChildList) Len() int { return len(cl.h) + len(cl.l) }

// Insert adds an entry. If the sorted prefix would be violated (the new key
// is smaller than an already-extracted key) the prefix is repaired by
// spilling displaced entries back into the heap; under Algorithm 2's
// discipline (children pop from Qg in non-decreasing lb order before their
// edges are inserted) this is rare, but correctness must not depend on it.
func (cl *ChildList) Insert(e Entry) {
	if n := len(cl.h); n > 0 && e.Key < cl.h[n-1].Key {
		// Binary search for the insertion point in H.
		lo, hi := 0, n
		for lo < hi {
			mid := (lo + hi) / 2
			if cl.h[mid].Key <= e.Key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		// Displace the tail of H back into L and place e.
		cl.pushHeap(cl.h[n-1])
		copy(cl.h[lo+1:], cl.h[lo:n-1])
		cl.h[lo] = e
		return
	}
	cl.pushHeap(e)
}

// Min returns the smallest entry. ok is false when the list is empty.
func (cl *ChildList) Min() (Entry, bool) {
	return cl.Kth(0)
}

// Kth returns the entry with the i-th smallest key (0-based), extending the
// sorted prefix from the heap as required. ok is false when fewer than i+1
// entries exist. Theorem 3.2 is Kth(1); Theorem 3.1 with |U_j| exclusions
// is Kth(|U_j|+1).
func (cl *ChildList) Kth(i int) (Entry, bool) {
	for len(cl.h) <= i {
		if len(cl.l) == 0 {
			return Entry{}, false
		}
		cl.extract()
	}
	return cl.h[i], true
}

// All appends every entry (extracted and heaped, in no particular order)
// to dst and returns it. Consumers that need order should use Kth.
func (cl *ChildList) All(dst []Entry) []Entry {
	dst = append(dst, cl.h...)
	return append(dst, cl.l...)
}

func (cl *ChildList) extract() {
	top := cl.l[0]
	last := len(cl.l) - 1
	cl.l[0] = cl.l[last]
	cl.l = cl.l[:last]
	if last > 0 {
		cl.down(0)
	}
	cl.h = Append(cl.slab, cl.h, top)
}

func (cl *ChildList) pushHeap(e Entry) {
	cl.l = Append(cl.slab, cl.l, e)
	i := len(cl.l) - 1
	for i > 0 {
		p := (i - 1) / 2
		if cl.l[p].Key <= cl.l[i].Key {
			break
		}
		cl.l[p], cl.l[i] = cl.l[i], cl.l[p]
		i = p
	}
}

func (cl *ChildList) down(i int) {
	n := len(cl.l)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && cl.l[l].Key < cl.l[small].Key {
			small = l
		}
		if r < n && cl.l[r].Key < cl.l[small].Key {
			small = r
		}
		if small == i {
			return
		}
		cl.l[i], cl.l[small] = cl.l[small], cl.l[i]
		i = small
	}
}
