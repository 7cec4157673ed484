package closure

// tableIndex maps label pairs to the tables a MergedSource has
// materialized. It is persistent: with returns a new index that shares
// every node off the root-to-leaf paths it rewrites, so an epoch pays
// for the tables it changes and not for every table merged since the
// chain started.
//
// Pair (a, b) is slot a·labels + b of a radix trie with indexFan-way
// nodes, deep enough for labels² slots. labels is fixed when the chain
// starts; every pair stored comes from node labels, which are below it
// because ingest adds no nodes.
type tableIndex struct {
	labels int64
	shift  uint // bit offset of the root's digit; 0 when the root is a leaf
	root   *indexNode
}

const (
	indexBits = 4
	indexFan  = 1 << indexBits
	indexMask = indexFan - 1
)

// indexNode is one trie level: interior nodes use kids, leaves tabs.
type indexNode struct {
	kids [indexFan]*indexNode
	tabs [indexFan][]Entry
}

func newTableIndex(labels int) tableIndex {
	x := tableIndex{labels: int64(labels)}
	for slots := x.labels * x.labels; slots > int64(1)<<(x.shift+indexBits); {
		x.shift += indexBits
	}
	return x
}

// slot numbers (a, b), or returns false for a pair outside the index.
func (x tableIndex) slot(a, b int32) (uint64, bool) {
	if a < 0 || b < 0 || int64(a) >= x.labels || int64(b) >= x.labels {
		return 0, false
	}
	return uint64(int64(a)*x.labels + int64(b)), true
}

// get returns the table stored for (a, b), nil if there is none.
func (x tableIndex) get(a, b int32) []Entry {
	i, ok := x.slot(a, b)
	if !ok {
		return nil
	}
	n := x.root
	for s := x.shift; n != nil && s > 0; s -= indexBits {
		n = n.kids[i>>s&indexMask]
	}
	if n == nil {
		return nil
	}
	return n.tabs[i&indexMask]
}

// indexUpdate is one table for tableIndex.with to store.
type indexUpdate struct {
	a, b int32
	tab  []Entry
}

// with returns x with every update stored; x itself is unchanged. The
// updates must be in (a, b) order: each node on their paths is copied
// once.
func (x tableIndex) with(ups []indexUpdate) tableIndex {
	if len(ups) > 0 {
		x.root = x.root.with(x, x.shift, ups)
	}
	return x
}

func (n *indexNode) with(x tableIndex, shift uint, ups []indexUpdate) *indexNode {
	c := new(indexNode)
	if n != nil {
		*c = *n
	}
	for len(ups) > 0 {
		i, ok := x.slot(ups[0].a, ups[0].b)
		if !ok {
			panic("closure: label pair outside the merged-table index")
		}
		d := i >> shift & indexMask
		if shift == 0 {
			c.tabs[d] = ups[0].tab
			ups = ups[1:]
			continue
		}
		j := 1
		for ; j < len(ups); j++ {
			if k, _ := x.slot(ups[j].a, ups[j].b); k>>shift&indexMask != d {
				break
			}
		}
		c.kids[d] = c.kids[d].with(x, shift-indexBits, ups[:j])
		ups = ups[j:]
	}
	return c
}

// each calls fn for every stored table in slot order until fn returns
// false, and reports whether it ran to the end.
func (x tableIndex) each(fn func(a, b int32, tab []Entry) bool) bool {
	return x.root.each(0, x.shift, func(i uint64, tab []Entry) bool {
		return fn(int32(int64(i)/x.labels), int32(int64(i)%x.labels), tab)
	})
}

func (n *indexNode) each(prefix uint64, shift uint, fn func(i uint64, tab []Entry) bool) bool {
	if n == nil {
		return true
	}
	for d := uint64(0); d < indexFan; d++ {
		i := prefix | d<<shift
		if shift == 0 {
			if n.tabs[d] != nil && !fn(i, n.tabs[d]) {
				return false
			}
		} else if !n.kids[d].each(i, shift-indexBits, fn) {
			return false
		}
	}
	return true
}
