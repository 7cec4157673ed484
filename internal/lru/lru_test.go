package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPutEvictionOrder(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v; want 1, true", v, ok)
	}
	// "b" is now least recently used; inserting "c" must evict it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; LRU order not respected")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("a evicted instead of b (got %d, %v)", v, ok)
	}
	if v, ok := c.Get("c"); !ok || v != 3 {
		t.Fatalf("Get(c) = %d, %v; want 3, true", v, ok)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Entries != 2 || s.Capacity != 2 {
		t.Fatalf("stats = %+v; want 1 eviction, 2 entries, capacity 2", s)
	}
	if s.Hits != 3 || s.Misses != 2 {
		t.Fatalf("stats = %+v; want 3 hits, 2 misses", s)
	}
}

func TestPutExistingRefreshes(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // refresh: "b" becomes LRU
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("refresh did not update recency: b should have been evicted")
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) = %d, %v; want refreshed value 10", v, ok)
	}
}

func TestDisabledCache(t *testing.T) {
	c := New[int](0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatalf("disabled cache has %d entries", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%64)
				if v, ok := c.Get(k); ok && v != len(k) {
					t.Errorf("Get(%s) = %d; want %d", k, v, len(k))
					return
				}
				c.Put(k, len(k))
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 32 {
		t.Fatalf("cache grew past capacity: %d", n)
	}
	s := c.Stats()
	if s.Hits+s.Misses == 0 {
		t.Fatal("no counter activity recorded")
	}
}

func TestPeekDoesNotTouchCountersOrRecency(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if _, ok := c.Peek("zz"); ok {
		t.Fatal("Peek(zz) hit")
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("Peek moved counters: %+v", st)
	}
	// Peek must not refresh recency: "a" is still the oldest and gets
	// evicted by the next insert.
	c.Put("c", 3)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek refreshed recency; 'a' survived eviction")
	}
	if _, ok := c.Peek("b"); !ok {
		t.Fatal("'b' evicted instead of 'a'")
	}
}

func TestPeekDisabled(t *testing.T) {
	c := New[int](0)
	c.Put("a", 1)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("disabled cache Peek hit")
	}
}
