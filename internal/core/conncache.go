package core

import (
	"container/list"
	"sort"
	"sync"

	"rpcoib/internal/metrics"
)

// Metric family names, as package-level consts for the rpcoiblint
// metricnames analyzer's golden-file enumeration.
const (
	mConnCacheSize      = "rpc_conn_cache_size"
	mConnCacheCap       = "rpc_conn_cache_capacity"
	mConnCacheHits      = "rpc_conn_cache_hits_total"
	mConnCacheMisses    = "rpc_conn_cache_misses_total"
	mConnCacheEvictions = "rpc_conn_cache_evictions_total"
)

// ConnCache is the bounded LRU under Runtime's client cache (and, in the
// scale scenarios, the server-side session table): at most capacity entries,
// least-recently-used evicted first, every operation O(1). A million logical
// clients can come and go while the cache — and whatever QP/credit state
// hangs off its values — stays O(capacity), which is the connection-scale-out
// invariant (DESIGN.md S23).
//
// Evictions run the onEvict hook outside the cache lock, in LRU order, so
// hooks may close clients (which takes connection locks of their own)
// without lock-ordering hazards.
type ConnCache struct {
	mu      sync.Mutex
	cap     int        // 0 = unbounded
	order   *list.List // front = most recently used; elements hold *cacheEntry
	index   map[RuntimeKey]*list.Element
	onEvict func(RuntimeKey, any)

	evictions int64
	gSize     *metrics.Gauge
	gCap      *metrics.Gauge
	cHits     *metrics.Counter
	cMisses   *metrics.Counter
	cEvict    *metrics.Counter
}

type cacheEntry struct {
	key   RuntimeKey
	value any
}

// NewConnCache creates a cache holding at most capacity entries (0 or
// negative = unbounded).
func NewConnCache(capacity int) *ConnCache {
	if capacity < 0 {
		capacity = 0
	}
	return &ConnCache{cap: capacity, order: list.New(), index: map[RuntimeKey]*list.Element{}}
}

// SetOnEvict installs the eviction hook, called once per evicted entry,
// outside the cache lock, in eviction (LRU) order.
func (c *ConnCache) SetOnEvict(fn func(RuntimeKey, any)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onEvict = fn
}

// Instrument mirrors the cache into r (rpc_conn_cache_* family).
func (c *ConnCache) Instrument(r *metrics.Registry) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gSize = r.Gauge(mConnCacheSize)
	c.gCap = r.Gauge(mConnCacheCap)
	c.cHits = r.Counter(mConnCacheHits)
	c.cMisses = r.Counter(mConnCacheMisses)
	c.cEvict = r.Counter(mConnCacheEvictions)
	c.gSize.Set(int64(c.order.Len()))
	c.gCap.Set(int64(c.cap))
}

// Len returns the live entry count.
func (c *ConnCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Evictions returns the total entries evicted by capacity pressure.
func (c *ConnCache) Evictions() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictions
}

// Get returns the cached value for key, marking it most recently used.
func (c *ConnCache) Get(key RuntimeKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.cMisses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.cHits.Inc()
	return el.Value.(*cacheEntry).value, true
}

// Peek returns the cached value for key without touching LRU order or the
// hit/miss counters — the observer's accessor.
func (c *ConnCache) Peek(key RuntimeKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).value, true
}

// GetOrCreate returns the cached value for key, invoking build (under the
// cache lock, so exactly one value exists per key) on miss. The new entry is
// most recently used; anything evicted to make room is handed to the onEvict
// hook after the lock is released.
func (c *ConnCache) GetOrCreate(key RuntimeKey, build func() any) (v any, hit bool) {
	c.mu.Lock()
	if el, ok := c.index[key]; ok {
		c.order.MoveToFront(el)
		c.cHits.Inc()
		v = el.Value.(*cacheEntry).value
		c.mu.Unlock()
		return v, true
	}
	c.cMisses.Inc()
	v = build()
	c.index[key] = c.order.PushFront(&cacheEntry{key: key, value: v})
	victims := c.evictOverCapLocked()
	c.gSize.Set(int64(c.order.Len()))
	hook := c.onEvict
	c.mu.Unlock()
	runEvictions(hook, victims)
	return v, false
}

// Remove deletes key without treating it as an eviction (no hook, no
// eviction counter): the caller owns whatever teardown the value needs.
func (c *ConnCache) Remove(key RuntimeKey) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		return nil, false
	}
	c.order.Remove(el)
	delete(c.index, key)
	c.gSize.Set(int64(c.order.Len()))
	return el.Value.(*cacheEntry).value, true
}

// SetCapacity changes the bound (0 = unbounded), evicting LRU entries that
// no longer fit.
func (c *ConnCache) SetCapacity(capacity int) {
	if capacity < 0 {
		capacity = 0
	}
	c.mu.Lock()
	c.cap = capacity
	c.gCap.Set(int64(c.cap))
	victims := c.evictOverCapLocked()
	c.gSize.Set(int64(c.order.Len()))
	hook := c.onEvict
	c.mu.Unlock()
	runEvictions(hook, victims)
}

// Keys returns the live keys in deterministic sorted order.
func (c *ConnCache) Keys() []RuntimeKey {
	c.mu.Lock()
	keys := make([]RuntimeKey, 0, len(c.index))
	for k := range c.index {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sortRuntimeKeys(keys)
	return keys
}

// Drain empties the cache and returns every entry in sorted key order,
// without invoking the eviction hook — the shutdown path, where the caller
// closes values itself in deterministic order.
func (c *ConnCache) Drain() []any {
	c.mu.Lock()
	keys := make([]RuntimeKey, 0, len(c.index))
	for k := range c.index {
		keys = append(keys, k)
	}
	sortRuntimeKeys(keys)
	out := make([]any, 0, len(keys))
	for _, k := range keys {
		out = append(out, c.index[k].Value.(*cacheEntry).value)
	}
	c.order.Init()
	c.index = map[RuntimeKey]*list.Element{}
	c.gSize.Set(0)
	c.mu.Unlock()
	return out
}

// evictOverCapLocked pops LRU entries until the cache fits, returning the
// victims oldest-first.
func (c *ConnCache) evictOverCapLocked() []*cacheEntry {
	if c.cap <= 0 {
		return nil
	}
	var victims []*cacheEntry
	for c.order.Len() > c.cap {
		el := c.order.Back()
		e := el.Value.(*cacheEntry)
		c.order.Remove(el)
		delete(c.index, e.key)
		c.evictions++
		c.cEvict.Inc()
		victims = append(victims, e)
	}
	return victims
}

func runEvictions(hook func(RuntimeKey, any), victims []*cacheEntry) {
	if hook == nil {
		return
	}
	for _, e := range victims {
		hook(e.key, e.value)
	}
}

func sortRuntimeKeys(keys []RuntimeKey) {
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Config < keys[j].Config
	})
}
