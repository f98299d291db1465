package api

import (
	"sync"
	"sync/atomic"
	"time"
)

// cacheEntry is one materialized response: status and body stored
// together, so a cached 404 replays as a 404. at is the entry's index
// in the cache's expiry heap.
type cacheEntry struct {
	key     string
	status  int
	body    []byte
	expires time.Time
	at      int
}

// ttlCache is the per-query response cache: bounded, TTL-expired, with
// atomic hit/miss counters. Expiry compares against the clock the
// Server injects, so simulated time works end to end. Every entry sits
// in the map and in a binary min-heap on its expiry, so a put first
// pops every expired entry off the heap head, O(log n) each. It never
// evicts a live entry: when the cache is still full of live entries a
// new key is simply served uncached — evicting a hot entry to admit a
// cold one would be strictly worse under the load-test's skewed key
// popularity.
type ttlCache struct {
	hits, misses atomic.Int64

	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	heap    []*cacheEntry // min-heap on expires
}

func newTTLCache(max int) *ttlCache {
	return &ttlCache{max: max, entries: make(map[string]*cacheEntry)}
}

func (c *ttlCache) get(key string, now time.Time) (status int, body []byte, ok bool) {
	c.mu.Lock()
	e, found := c.entries[key]
	if found && now.After(e.expires) {
		c.remove(e)
		found = false
	}
	if found {
		status, body = e.status, e.body
	}
	c.mu.Unlock()
	if !found {
		c.misses.Add(1)
		return 0, nil, false
	}
	c.hits.Add(1)
	return status, body, true
}

func (c *ttlCache) put(key string, status int, body []byte, now, expires time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.heap) > 0 && now.After(c.heap[0].expires) {
		c.remove(c.heap[0])
	}
	if e, ok := c.entries[key]; ok {
		e.status, e.body, e.expires = status, body, expires
		c.fix(e.at)
		return
	}
	if len(c.entries) >= c.max {
		return
	}
	e := &cacheEntry{key: key, status: status, body: body, expires: expires, at: len(c.heap)}
	c.entries[key] = e
	c.heap = append(c.heap, e)
	c.fix(e.at)
}

func (c *ttlCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// remove drops e from the map and the heap.
func (c *ttlCache) remove(e *cacheEntry) {
	delete(c.entries, e.key)
	i, last := e.at, len(c.heap)-1
	c.swap(i, last)
	c.heap[last] = nil
	c.heap = c.heap[:last]
	if i < last {
		c.fix(i)
	}
}

// fix restores heap order after the entry at index i changed its
// expiry or arrived there: it sifts the entry up, then down.
func (c *ttlCache) fix(i int) {
	h := c.heap
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].expires.Before(h[parent].expires) {
			break
		}
		c.swap(i, parent)
		i = parent
	}
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && h[r].expires.Before(h[child].expires) {
			child = r
		}
		if !h[child].expires.Before(h[i].expires) {
			return
		}
		c.swap(i, child)
		i = child
	}
}

func (c *ttlCache) swap(i, j int) {
	h := c.heap
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}
