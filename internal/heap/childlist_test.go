package heap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func entriesOf(keys ...int64) []Entry {
	es := make([]Entry, len(keys))
	for i, k := range keys {
		es[i] = Entry{Key: k, Node: int32(i)}
	}
	return es
}

func TestChildListKthOrder(t *testing.T) {
	cl := NewChildList(entriesOf(5, 1, 4, 2, 3))
	for i, want := range []int64{1, 2, 3, 4, 5} {
		e, ok := cl.Kth(i)
		if !ok || e.Key != want {
			t.Fatalf("Kth(%d) = %v,%v, want key %d", i, e, ok, want)
		}
	}
	if _, ok := cl.Kth(5); ok {
		t.Fatal("Kth past end reported ok")
	}
}

func TestChildListMinExtractedAtBuild(t *testing.T) {
	cl := NewChildList(entriesOf(9, 7, 8))
	if len(cl.h) != 1 {
		t.Fatalf("%d extracted at build, want 1 (paper init)", len(cl.h))
	}
	if e, _ := cl.Min(); e.Key != 7 {
		t.Fatalf("Min = %d, want 7", e.Key)
	}
}

func TestChildListEmpty(t *testing.T) {
	var cl ChildList
	if cl.Len() != 0 {
		t.Fatalf("Len = %d", cl.Len())
	}
	if _, ok := cl.Min(); ok {
		t.Fatal("Min on empty reported ok")
	}
}

func TestChildListInsertAfterExtraction(t *testing.T) {
	cl := NewChildList(entriesOf(10, 20, 30))
	if _, ok := cl.Kth(2); !ok {
		t.Fatal("setup")
	}
	// Insert a key smaller than the whole extracted prefix.
	cl.Insert(Entry{Key: 5, Node: 99})
	e, ok := cl.Kth(0)
	if !ok || e.Key != 5 || e.Node != 99 {
		t.Fatalf("Kth(0) = %v after small insert", e)
	}
	// The displaced order must survive.
	var got []int64
	for i := 0; i < cl.Len(); i++ {
		e, _ := cl.Kth(i)
		got = append(got, e.Key)
	}
	want := []int64{5, 10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestChildListInsertMiddleOfPrefix(t *testing.T) {
	cl := NewChildList(entriesOf(1, 3, 5))
	cl.Kth(2) // extract everything
	cl.Insert(Entry{Key: 2, Node: 50})
	cl.Insert(Entry{Key: 4, Node: 51})
	want := []int64{1, 2, 3, 4, 5}
	for i, w := range want {
		e, ok := cl.Kth(i)
		if !ok || e.Key != w {
			t.Fatalf("Kth(%d) = %v, want %d", i, e, w)
		}
	}
}

// TestChildListModel compares against sorting under random interleaved
// Insert/Kth operations, on heap-grown lists and, every other trial, on
// lists carved from one slab that is reset and reused between trials.
func TestChildListModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var slab Slab[Entry]
	for trial := 0; trial < 200; trial++ {
		cl := new(ChildList)
		if trial%2 == 1 {
			slab.Reset()
			cl.SetSlab(&slab)
		}
		var model []int64
		for step := 0; step < 60; step++ {
			if rng.Intn(2) == 0 || len(model) == 0 {
				k := int64(rng.Intn(50))
				cl.Insert(Entry{Key: k})
				model = append(model, k)
			} else {
				i := rng.Intn(len(model))
				sorted := append([]int64(nil), model...)
				sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
				e, ok := cl.Kth(i)
				if !ok {
					t.Fatalf("trial %d step %d: Kth(%d) !ok with %d entries", trial, step, i, len(model))
				}
				if e.Key != sorted[i] {
					t.Fatalf("trial %d step %d: Kth(%d) = %d, want %d", trial, step, i, e.Key, sorted[i])
				}
			}
		}
	}
}

func TestChildListQuickSortedDrain(t *testing.T) {
	f := func(keys []int64) bool {
		es := make([]Entry, len(keys))
		for i, k := range keys {
			es[i] = Entry{Key: k}
		}
		cl := NewChildList(es)
		sorted := append([]int64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for i, w := range sorted {
			e, ok := cl.Kth(i)
			if !ok || e.Key != w {
				return false
			}
		}
		_, ok := cl.Kth(len(keys))
		return !ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkChildListKthSequential(b *testing.B) {
	const n = 1024
	base := make([]Entry, n)
	rng := rand.New(rand.NewSource(1))
	for i := range base {
		base[i] = Entry{Key: int64(rng.Intn(1 << 20)), Node: int32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl := NewChildList(append([]Entry(nil), base...))
		for j := 0; j < 32; j++ {
			cl.Kth(j)
		}
	}
}

// BenchmarkFullSortBaseline is the A1 ablation partner: what the paper
// argues against (sorting every child list up front).
func BenchmarkFullSortBaseline(b *testing.B) {
	const n = 1024
	base := make([]Entry, n)
	rng := rand.New(rand.NewSource(1))
	for i := range base {
		base[i] = Entry{Key: int64(rng.Intn(1 << 20)), Node: int32(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]Entry(nil), base...)
		sort.Slice(cp, func(x, y int) bool { return cp[x].Key < cp[y].Key })
		var sink int64
		for j := 0; j < 32; j++ {
			sink += cp[j].Key
		}
		_ = sink
	}
}
