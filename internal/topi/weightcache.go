package topi

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Bounded per-weight packed-panel cache. Convolution and dense weights are
// module constants, so their register-tile panels (gemm.go) are packed once
// and reused for every inference — but the PR 7 sync.Map grew without limit
// across models and shapes: a long-lived npserve process cycling many
// models would pin every panel it ever packed. The cache is now bounded by
// an entry cap with coarse LRU-ish eviction: each hit stamps the entry with
// a monotone clock, and an insert past the cap evicts the stalest eighth in
// one scan. Keys are tensor identities, so entries for live modules are
// re-stamped on every run and only retired models' panels age out.

// weightCacheCap is the per-dtype entry cap. A packed panel set is the same
// size as its weight tensor, so the cap also bounds cache bytes to roughly
// one model zoo's worth of weights. Variable (not const) so tests can
// exercise eviction without packing hundreds of tensors.
var weightCacheCap atomic.Int64

func init() { weightCacheCap.Store(256) }

// SetWeightCacheCap overrides the packed-panel cache entry cap (tests);
// returns the previous cap. n < 1 is treated as 1.
func SetWeightCacheCap(n int) int {
	if n < 1 {
		n = 1
	}
	return int(weightCacheCap.Swap(int64(n)))
}

type weightCacheEntry struct {
	stamp atomic.Int64
	val   interface{} // *packedWeight[float32] or *packedWeight[int32]
}

// weightCache is one bounded cache instance (there is one for f32 panels
// and one for i32). The read path takes only the RLock plus one atomic
// stamp store, so steady-state inference stays contention-free.
type weightCache struct {
	name    string // metrics label
	mu      sync.RWMutex
	entries map[interface{}]*weightCacheEntry
	clock   atomic.Int64
	// Local counters, always maintained (WeightCacheStats, tests).
	hits, misses, evictions atomic.Int64
}

func newWeightCache(name string) *weightCache {
	return &weightCache{name: name, entries: map[interface{}]*weightCacheEntry{}}
}

func (c *weightCache) get(key interface{}) (interface{}, bool) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok {
		c.misses.Add(1)
		if m := kernelObs.Load(); m != nil {
			m.cacheCounters(c.name).misses.Inc()
		}
		return nil, false
	}
	e.stamp.Store(c.clock.Add(1))
	c.hits.Add(1)
	if m := kernelObs.Load(); m != nil {
		m.cacheCounters(c.name).hits.Inc()
	}
	return e.val, true
}

func (c *weightCache) put(key, val interface{}) {
	cap := int(weightCacheCap.Load())
	c.mu.Lock()
	if _, exists := c.entries[key]; !exists && len(c.entries) >= cap {
		c.evictLocked(cap)
	}
	e := &weightCacheEntry{val: val}
	e.stamp.Store(c.clock.Add(1))
	c.entries[key] = e
	size := len(c.entries)
	c.mu.Unlock()
	if m := kernelObs.Load(); m != nil {
		m.cacheCounters(c.name).entries.Set(float64(size))
	}
}

// evictLocked retires the stalest eighth of the cache (at least one entry)
// so inserts past the cap amortize to O(1) evictions each. "LRU-ish": the
// stamps are read racily against concurrent gets, which can at worst spare
// an entry that was about to become stale — fine for a capacity bound.
func (c *weightCache) evictLocked(cap int) {
	drop := cap / 8
	if drop < 1 {
		drop = 1
	}
	type aged struct {
		key   interface{}
		stamp int64
	}
	all := make([]aged, 0, len(c.entries))
	for k, e := range c.entries {
		all = append(all, aged{key: k, stamp: e.stamp.Load()})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].stamp < all[j].stamp })
	if drop > len(all) {
		drop = len(all)
	}
	for _, a := range all[:drop] {
		delete(c.entries, a.key)
	}
	c.evictions.Add(int64(drop))
	if m := kernelObs.Load(); m != nil {
		m.cacheCounters(c.name).evictions.Add(float64(drop))
	}
}

// len returns the current entry count.
func (c *weightCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// reset drops every entry and zeroes the counters (tests).
func (c *weightCache) reset() {
	c.mu.Lock()
	c.entries = map[interface{}]*weightCacheEntry{}
	c.mu.Unlock()
	c.hits.Store(0)
	c.misses.Store(0)
	c.evictions.Store(0)
}

var (
	gemmWeightF32 = newWeightCache("f32")
	gemmWeightI32 = newWeightCache("i32")
)

// WeightCacheStats reports one packed-panel cache's occupancy and traffic.
type WeightCacheStats struct {
	Entries, Hits, Misses, Evictions int64
}

// WeightCacheSnapshot returns the f32 and i32 packed-panel cache stats.
func WeightCacheSnapshot() (f32, i32 WeightCacheStats) {
	read := func(c *weightCache) WeightCacheStats {
		return WeightCacheStats{
			Entries:   int64(c.len()),
			Hits:      c.hits.Load(),
			Misses:    c.misses.Load(),
			Evictions: c.evictions.Load(),
		}
	}
	return read(gemmWeightF32), read(gemmWeightI32)
}

// ResetWeightCaches clears both packed-panel caches (tests).
func ResetWeightCaches() {
	gemmWeightF32.reset()
	gemmWeightI32.reset()
}

// panelCacheCounters is the obs instrument set of one cache, resolved once
// per cache per registry installation (same pattern as kernelCounters).
type panelCacheCounters struct {
	entries      *obs.Gauge
	hits, misses *obs.Counter
	evictions    *obs.Counter
}

func (m *kernelMetrics) cacheCounters(dtype string) *panelCacheCounters {
	key := "panel-cache/" + dtype
	if c, ok := m.cache.Load(key); ok {
		return c.(*panelCacheCounters)
	}
	labels := obs.L("dtype", dtype)
	pc := &panelCacheCounters{
		entries: m.reg.Gauge("np_gemm_panel_cache_entries",
			"Packed GEMM weight panels currently cached.", labels),
		hits: m.reg.Counter("np_gemm_panel_cache_hits_total",
			"Packed-panel cache lookups served from cache.", labels),
		misses: m.reg.Counter("np_gemm_panel_cache_misses_total",
			"Packed-panel cache lookups that had to pack.", labels),
		evictions: m.reg.Counter("np_gemm_panel_cache_evictions_total",
			"Packed-panel cache entries evicted by the capacity bound.", labels),
	}
	c, _ := m.cache.LoadOrStore(key, pc)
	return c.(*panelCacheCounters)
}
