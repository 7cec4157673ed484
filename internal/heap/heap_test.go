package heap

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestMinBasic(t *testing.T) {
	h := &Min{}
	for _, k := range []int64{5, 3, 8, 1, 9, 2} {
		h.Push(Item{Key: k})
	}
	want := []int64{1, 2, 3, 5, 8, 9}
	for _, w := range want {
		if got := h.Pop().Key; got != w {
			t.Fatalf("Pop = %d, want %d", got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("Len = %d after draining", h.Len())
	}
}

func TestNewMinHeapifies(t *testing.T) {
	items := []Item{{Key: 4}, {Key: 1}, {Key: 7}, {Key: 0}, {Key: 3}}
	h := NewMin(items)
	var got []int64
	for h.Len() > 0 {
		got = append(got, h.Pop().Key)
	}
	want := []int64{0, 1, 3, 4, 7}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
}

func TestMinPeek(t *testing.T) {
	h := NewMin([]Item{{Key: 2}, {Key: 1}})
	if h.Peek().Key != 1 {
		t.Fatalf("Peek = %d, want 1", h.Peek().Key)
	}
	if h.Len() != 2 {
		t.Fatal("Peek must not remove")
	}
}

func TestMinSortsRandom(t *testing.T) {
	f := func(keys []int64) bool {
		h := &Min{}
		for _, k := range keys {
			h.Push(Item{Key: k})
		}
		sorted := append([]int64(nil), keys...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, w := range sorted {
			if h.Pop().Key != w {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinPayloadPreserved(t *testing.T) {
	h := &Min{}
	h.Push(Item{Key: 2, Val: "two"})
	h.Push(Item{Key: 1, Val: "one"})
	if got := h.Pop(); got.Val.(string) != "one" {
		t.Fatalf("payload = %v, want one", got.Val)
	}
}

func TestIndexedBasic(t *testing.T) {
	h := NewIndexed(8)
	h.Push(3, 30)
	h.Push(1, 10)
	h.Push(2, 20)
	if hd, k := h.Peek(); hd != 1 || k != 10 {
		t.Fatalf("Peek = %d,%d", hd, k)
	}
	h.Update(3, 5) // decrease
	if hd, k := h.Pop(); hd != 3 || k != 5 {
		t.Fatalf("Pop = %d,%d, want 3,5", hd, k)
	}
	if h.Contains(3) {
		t.Fatal("popped handle still contained")
	}
	h.Update(2, 1) // decrease below handle 1
	if hd, _ := h.Pop(); hd != 2 {
		t.Fatalf("after decrease Pop = %d, want 2", hd)
	}
}

func TestIndexedIncreaseKey(t *testing.T) {
	h := NewIndexed(4)
	h.Push(0, 1)
	h.Push(1, 2)
	h.Update(0, 10)
	if hd, k := h.Pop(); hd != 1 || k != 2 {
		t.Fatalf("Pop = %d,%d after increase, want 1,2", hd, k)
	}
}

func TestIndexedRemove(t *testing.T) {
	h := NewIndexed(4)
	for i := 0; i < 4; i++ {
		h.Push(i, int64(10-i))
	}
	h.Remove(3) // current min (key 7)
	h.Remove(3) // double remove is a no-op
	hd, k := h.Pop()
	if hd != 2 || k != 8 {
		t.Fatalf("Pop = %d,%d after Remove, want 2,8", hd, k)
	}
	if h.Len() != 2 {
		t.Fatalf("Len = %d, want 2", h.Len())
	}
}

func TestIndexedPushGrows(t *testing.T) {
	h := NewIndexed(1)
	h.Push(100, 7) // beyond initial capacity
	h.Update(100, 3)
	if k := h.Key(100); k != 3 {
		t.Fatalf("Key = %d, want 3", k)
	}
	if hd, k := h.Pop(); hd != 100 || k != 3 {
		t.Fatalf("Pop = %d,%d", hd, k)
	}
}

// TestResetKeepsNothing checks that a reset Indexed and Min hold no
// element and accept every handle again.
func TestResetKeepsNothing(t *testing.T) {
	h := NewIndexed(4)
	for i := 0; i < 10; i++ {
		h.Push(i, int64(10-i))
	}
	h.Pop()
	h.Reset()
	if h.Len() != 0 || h.Contains(3) {
		t.Fatalf("Len %d, Contains(3) %v after Reset", h.Len(), h.Contains(3))
	}
	for i := 0; i < 10; i++ {
		h.Push(i, int64(i)) // panics if a position survived
	}
	if hd, _ := h.Pop(); hd != 0 {
		t.Fatalf("Pop = %d after re-push, want 0", hd)
	}
	var m Min
	m.Push(Item{Key: 2, Val: "x"})
	m.Reset()
	m.Push(Item{Key: 5})
	if m.Len() != 1 || m.Pop().Key != 5 {
		t.Fatal("Min holds an item from before Reset")
	}
}

func TestIndexedPushDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Push did not panic")
		}
	}()
	h := NewIndexed(2)
	h.Push(0, 1)
	h.Push(0, 2)
}

// TestIndexedAgainstModel drives Indexed with random operations and checks
// every observation against a flat-map model.
func TestIndexedAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewIndexed(16)
	model := map[int]int64{}
	modelMin := func() (int, int64) {
		best, bk := -1, int64(0)
		for hd, k := range model {
			if best == -1 || k < bk || (k == bk && hd < best) {
				best, bk = hd, k
			}
		}
		return best, bk
	}
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(4); {
		case op == 0 || len(model) == 0: // push
			hd := rng.Intn(64)
			if _, ok := model[hd]; ok {
				continue
			}
			k := int64(rng.Intn(1000))
			h.Push(hd, k)
			model[hd] = k
		case op == 1: // update random present handle
			for hd := range model {
				k := int64(rng.Intn(1000))
				h.Update(hd, k)
				model[hd] = k
				break
			}
		case op == 2: // pop
			hd, k := h.Pop()
			mk, ok := model[hd]
			if !ok || mk != k {
				t.Fatalf("step %d: Pop (%d,%d) not in model (%d,%v)", step, hd, k, mk, ok)
			}
			_, wantK := modelMin()
			if k != wantK {
				t.Fatalf("step %d: Pop key %d, model min %d", step, k, wantK)
			}
			delete(model, hd)
		case op == 3: // remove random handle (possibly absent)
			hd := rng.Intn(64)
			h.Remove(hd)
			delete(model, hd)
		}
		if h.Len() != len(model) {
			t.Fatalf("step %d: Len %d vs model %d", step, h.Len(), len(model))
		}
	}
}
