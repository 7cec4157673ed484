package lru

import (
	"container/list"
	"sync"
)

// Cache is a string-keyed LRU cache over values of type V. A capacity of
// zero or less disables the cache: Get always misses and Put is a no-op,
// which keeps call sites free of nil checks (and gives benchmarks a
// cold-cache mode).
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *entry[V]
	items map[string]*list.Element

	hits, misses, evictions int64
}

type entry[V any] struct {
	key string
	val V
}

// New returns a cache holding at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

// Get returns the value cached under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	c.mu.Lock()
	defer c.mu.Unlock()
	// The disabled check runs under the lock: Resize can shrink cap to 0
	// concurrently, and an unlocked read would race with that write.
	if c.cap <= 0 {
		return zero, false
	}
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Peek returns the value cached under key without touching recency or
// the hit/miss counters. It exists for internal double-checks (the
// server's flight-leader recheck) that must not skew the cache-
// effectiveness statistics a paired Get already recorded.
func (c *Cache[V]) Peek(key string) (V, bool) {
	var zero V
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return zero, false
	}
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	return el.Value.(*entry[V]).val, true
}

// Put stores val under key, evicting the least recently used entry when
// the cache is full. Storing an existing key refreshes its value and
// recency.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap <= 0 {
		return
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
	c.items[key] = c.order.PushFront(&entry[V]{key: key, val: val})
}

// Resize changes the capacity in place, evicting least-recently-used
// entries when shrinking below the current length. The memory
// backpressure watcher uses it to trade hit rate for heap headroom
// without dropping the whole cache. Resizing a disabled cache (built
// with capacity <= 0) stays a no-op — re-enabling would surprise the
// Put sites that saw it disabled — and resizing to <= 0 purges and
// disables. Evictions forced by a shrink count in Stats.Evictions.
func (c *Cache[V]) Resize(capacity int) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if capacity <= 0 {
		c.evictions += int64(c.order.Len())
		c.order.Init()
		c.items = make(map[string]*list.Element)
		c.cap = 0
		return
	}
	for c.order.Len() > capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		c.evictions++
	}
	c.cap = capacity
}

// Capacity returns the current capacity (0 when disabled).
func (c *Cache[V]) Capacity() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cap
}

// Len returns the current number of entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats is a counter snapshot.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// Stats returns a consistent snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.order.Len(),
		Capacity:  c.cap,
	}
}
