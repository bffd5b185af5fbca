package quant

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies one cached dequantized row. Snap distinguishes
// snapshots (incumbent vs canary, successive publications) so a
// promoted snapshot never serves rows decoded from its predecessor.
type Key struct {
	Snap   uint64
	Domain int
	Param  int
	Row    int
}

// RowCache is a bounded LRU over dequantized embedding rows — the hot
// head of the Zipf access distribution stays decoded while the cold
// tail pays the int8 decode on each touch. Returned slices are shared
// and read-only: entries are never rewritten in place, so a reader
// holding a row while it is evicted still sees correct values.
//
// Serving does not use it: its global mutex, map and list cost more on
// a hit than Table.Row costs to decode (package doc). Its one user is
// cmd/mamdr-bench's quant.row_hit_ns/row_miss_ns probe; the type goes
// when that probe does.
type RowCache struct {
	hits, misses atomic.Int64

	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[Key]*list.Element
}

type cacheEntry struct {
	key Key
	row []float64
}

// NewRowCache builds a cache holding at most capRows rows (minimum 1).
func NewRowCache(capRows int) *RowCache {
	if capRows < 1 {
		capRows = 1
	}
	return &RowCache{cap: capRows, ll: list.New(), m: make(map[Key]*list.Element, capRows)}
}

// Get returns the dequantized row for k, calling fill(dst) to decode
// it on a miss. The returned slice is owned by the cache: read, don't
// write.
func (c *RowCache) Get(k Key, cols int, fill func(dst []float64)) []float64 {
	c.mu.Lock()
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		row := el.Value.(*cacheEntry).row
		c.mu.Unlock()
		c.hits.Add(1)
		return row
	}
	c.mu.Unlock()
	// Decode outside the lock: concurrent misses on distinct rows decode
	// in parallel; a racing double-decode of the same row is benign (the
	// codec is deterministic) and the second insert wins the map slot.
	row := make([]float64, cols)
	fill(row)
	c.misses.Add(1)
	c.mu.Lock()
	if el, ok := c.m[k]; ok {
		// Raced: keep the incumbent entry so its slice stays live.
		c.ll.MoveToFront(el)
		row = el.Value.(*cacheEntry).row
	} else {
		c.m[k] = c.ll.PushFront(&cacheEntry{key: k, row: row})
		for c.ll.Len() > c.cap {
			old := c.ll.Back()
			c.ll.Remove(old)
			delete(c.m, old.Value.(*cacheEntry).key)
		}
	}
	c.mu.Unlock()
	return row
}

// Len reports the number of cached rows.
func (c *RowCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats reports cumulative hits and misses.
func (c *RowCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
