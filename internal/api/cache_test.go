package api

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheKeepsLiveEntries: a cache full of live entries refuses a new
// key and keeps every entry it holds — evicting a hot entry to admit a
// cold one is what the cache promises not to do.
func TestCacheKeepsLiveEntries(t *testing.T) {
	c := newTTLCache(8)
	for i := 0; i < 8; i++ {
		c.put(fmt.Sprint("k", i), 200, []byte{byte(i)}, apiBase, apiBase.Add(time.Second))
	}
	now := apiBase.Add(time.Millisecond)
	c.put("new", 200, []byte("x"), now, now.Add(time.Second))
	if _, _, ok := c.get("new", now); ok {
		t.Error("a full cache of live entries admitted a new key")
	}
	for i := 0; i < 8; i++ {
		if _, body, ok := c.get(fmt.Sprint("k", i), now); !ok || body[0] != byte(i) {
			t.Errorf("live entry k%d lost to a new key", i)
		}
	}
}

// TestCacheShedsExpired: once the clock has passed every entry's TTL,
// the next put clears them all, not just the one slot it needs.
func TestCacheShedsExpired(t *testing.T) {
	c := newTTLCache(8)
	for i := 0; i < 8; i++ {
		c.put(fmt.Sprint("k", i), 200, nil, apiBase, apiBase.Add(time.Duration(i+1)*time.Millisecond))
	}
	now := apiBase.Add(time.Second)
	c.put("new", 200, nil, now, now.Add(time.Second))
	if n := c.len(); n != 1 {
		t.Fatalf("cache holds %d entries after its TTLs passed and one put, want 1", n)
	}
}

// TestCacheConcurrent shares one small cache between goroutines whose
// clock moves, so gets, in-place updates, admissions and heap pops all
// race each other; run under -race. The heap must be intact afterwards.
func TestCacheConcurrent(t *testing.T) {
	c := newTTLCache(32)
	var ticks atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 20_000; i++ {
				now := apiBase.Add(time.Duration(ticks.Add(1)) * time.Millisecond)
				key := strconv.Itoa(rng.Intn(100))
				if _, body, ok := c.get(key, now); ok && len(body) == 0 {
					t.Error("hit with an empty body")
					return
				}
				c.put(key, 200, []byte(key), now, now.Add(DefaultParkingTTL))
			}
		}(g)
	}
	wg.Wait()
	if n := c.len(); n > 32 {
		t.Fatalf("cache grew to %d entries past its bound of 32", n)
	}
	checkHeap(t, c)
}

// BenchmarkCachePutFull puts a new key per iteration into a full
// DefaultCacheSize cache that starts half expired. The clock advances one
// step per put and each key lives size-1 steps, so in the steady state
// every put finds the cache full with exactly one entry expired.
func BenchmarkCachePutFull(b *testing.B) {
	const size, step = DefaultCacheSize, time.Microsecond
	keys := make([]string, 1<<16) // a key comes round long after it expired
	for i := range keys {
		keys[i] = "/car/" + strconv.Itoa(i)
	}
	c := newTTLCache(size)
	for i := 0; i < size; i++ {
		c.put(keys[len(keys)-1-i], 200, nil, apiBase, apiBase.Add(time.Duration(i)*step))
	}
	now := apiBase.Add(size / 2 * step)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(step)
		c.put(keys[i%len(keys)], 200, nil, now, now.Add((size-1)*step))
	}
}

// modelCache is the cache's rule written as plainly as it can be: a map,
// and a put that first scans it for expired entries.
type modelCache struct {
	max     int
	entries map[string]cacheEntry
}

func (m *modelCache) get(key string, now time.Time) (int, []byte, bool) {
	e, ok := m.entries[key]
	if !ok || now.After(e.expires) {
		delete(m.entries, key)
		return 0, nil, false
	}
	return e.status, e.body, true
}

func (m *modelCache) put(key string, status int, body []byte, now, expires time.Time) {
	for k, e := range m.entries {
		if now.After(e.expires) {
			delete(m.entries, k)
		}
	}
	if _, ok := m.entries[key]; !ok && len(m.entries) >= m.max {
		return
	}
	m.entries[key] = cacheEntry{status: status, body: body, expires: expires}
}

// checkHeap fails unless c's heap is ordered on expiry, every entry's
// index is where it sits, and heap and map hold the same entries.
func checkHeap(t *testing.T, c *ttlCache) {
	t.Helper()
	if len(c.heap) != len(c.entries) {
		t.Fatalf("heap holds %d entries, map %d", len(c.heap), len(c.entries))
	}
	for i, e := range c.heap {
		if e.at != i {
			t.Fatalf("entry %q sits at %d but records %d", e.key, i, e.at)
		}
		if c.entries[e.key] != e {
			t.Fatalf("heap entry %q is not the map's", e.key)
		}
		if i > 0 && e.expires.Before(c.heap[(i-1)/2].expires) {
			t.Fatalf("heap entry %d expires before its parent", i)
		}
	}
}

// TestCacheMatchesModel drives the cache and the model with the same
// seeded gets and puts — a clock that moves every few calls, mostly
// forward by 0–50 ms and sometimes back, the three route TTLs, a key
// space several times the capacity — and requires every hit, every body
// and every length to agree, with the heap intact after each call.
func TestCacheMatchesModel(t *testing.T) {
	const max, keys, steps = 64, 300, 100_000
	ttls := []time.Duration{DefaultCarTTL, DefaultSpeedTTL, DefaultParkingTTL}
	c := newTTLCache(max)
	m := &modelCache{max: max, entries: map[string]cacheEntry{}}
	rng := rand.New(rand.NewSource(25))
	now := apiBase
	hits, full := 0, 0
	for step := 0; step < steps; step++ {
		switch r := rng.Intn(100); {
		case r < 2:
			now = now.Add(-time.Duration(rng.Intn(200)) * time.Millisecond)
		case r < 12:
			now = now.Add(time.Duration(rng.Intn(51)) * time.Millisecond)
		}
		key := "/car/" + strconv.Itoa(rng.Intn(keys))
		if rng.Intn(2) == 0 {
			status, body, ok := c.get(key, now)
			wantStatus, wantBody, wantOK := m.get(key, now)
			if ok != wantOK || status != wantStatus || !bytes.Equal(body, wantBody) {
				t.Fatalf("step %d: get(%s) = %d %q %v, model %d %q %v", step, key, status, body, ok, wantStatus, wantBody, wantOK)
			}
			if ok {
				hits++
			}
		} else {
			body := []byte(strconv.Itoa(step))
			expires := now.Add(ttls[rng.Intn(len(ttls))])
			c.put(key, 200+step%2, body, now, expires)
			m.put(key, 200+step%2, body, now, expires)
		}
		if n, want := c.len(), len(m.entries); n != want {
			t.Fatalf("step %d: len %d, model %d", step, n, want)
		}
		if len(m.entries) == max {
			full++
		}
		checkHeap(t, c)
	}
	// The walk must have spent real time on a warm cache and on a full one.
	if hits < steps/20 || full < steps/20 {
		t.Fatalf("%d hits and %d calls on a full cache in %d steps: the walk missed a regime", hits, full, steps)
	}
}
