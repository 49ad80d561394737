package engine

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/policy"
)

// DefaultCacheBudget is the default cache capacity in (estimated) bytes.
const DefaultCacheBudget = 256 << 20

// Cache memoizes the expensive artifacts shared across experiment cells:
// in an engine's process cache, DPMakespan tables, DPNextFailure planners
// and pristine survival grids; in a scope's, failure-trace sets and
// post-failure survival grids (see Engine.Scope). Every entry is built at
// most once (concurrent requests for the same key block on the first
// builder), and entries are evicted least-recently-used once the
// estimated byte footprint exceeds the budget. All cached artifacts are
// deterministic pure functions of their key, so cache hits never change
// experiment output — they only skip recomputation.
type Cache struct {
	mu        sync.Mutex
	budget    int64
	used      int64
	entries   map[string]*cacheEntry
	lru       *list.List // front = most recently used
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key    string
	ready  chan struct{} // closed once val/err are set
	val    any
	weight int64
	err    error
	elem   *list.Element
	// accounted records that weight was added to Cache.used; set under
	// Cache.mu by the builder, read under Cache.mu by the evictor. An
	// entry can be ready but not yet accounted (the builder closes ready
	// before re-acquiring the lock).
	accounted bool
}

// NewCache returns a cache with the given byte budget (non-positive means
// DefaultCacheBudget).
func NewCache(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultCacheBudget
	}
	return &Cache{
		budget:  budgetBytes,
		entries: map[string]*cacheEntry{},
		lru:     list.New(),
	}
}

// CacheStats is a point-in-time cache summary.
type CacheStats struct {
	Hits      uint64 // lookups served from an existing entry
	Misses    uint64 // lookups that had to build the artifact
	Evictions uint64 // entries dropped by the LRU sweep
	Entries   int    // live entries
	Bytes     int64  // estimated live footprint
	Budget    int64  // eviction threshold
}

// Stats returns the current counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.used,
		Budget:    c.budget,
	}
}

// Keys returns the keys of the live entries, sorted: what the cache holds,
// for inspection.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// artifactKind returns the cache key's type tag (the segment before the
// first '|'): the bounded span attribute identifying what kind of
// artifact was resolved without leaking the full parameter vector.
func artifactKind(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}

// do returns the memoized value for key like lookup, recording the
// resolution as an "engine.cache" span (attrs: artifact kind, hit|miss)
// when the context carries a tracer. A hit's span duration is the time
// spent waiting on the entry (zero for ready entries, the residual build
// time for in-flight ones); a miss's is the build itself.
func (c *Cache) do(ctx context.Context, key string, build func() (any, int64, error)) (any, error) {
	_, sp := obs.StartSpan(ctx, "engine.cache")
	sp.SetAttr("artifact", artifactKind(key))
	v, hit, err := c.lookup(key, build)
	if hit {
		sp.SetAttr("cache", "hit")
	} else {
		sp.SetAttr("cache", "miss")
	}
	sp.End()
	return v, err
}

// lookup returns the memoized value for key, invoking build at most once
// per live entry, and reports whether the lookup hit an existing entry. A
// lookup that finds an in-flight entry counts as a hit and blocks until
// the builder finishes. Build errors are returned but not cached, so a
// later retry rebuilds.
func (c *Cache) lookup(key string, build func() (any, int64, error)) (any, bool, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		return e.val, true, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()

	e.val, e.weight, e.err = build()
	close(e.ready)

	c.mu.Lock()
	if c.entries[e.key] == e {
		// Still live. A concurrent evictLocked may have dropped the entry
		// between close and this lock — in that case its weight was never
		// accounted and must not be, or `used` would inflate forever.
		if e.err != nil {
			c.removeLocked(e)
		} else {
			c.used += e.weight
			e.accounted = true
			c.evictLocked()
		}
	}
	c.mu.Unlock()
	return e.val, false, e.err
}

// Do is the exported build-once lookup with the same semantics as
// lookup: one build per live key, concurrent requesters block on the
// first builder, errors are not cached. It satisfies policy.SharedCache
// so DPNextFailure planners and instances can share survival grids
// through the engine's caches (see Engine.SharedGridOptions and
// Engine.DPNextFailure). Unlike the engine's own getters it records no
// span: its callers run deep inside an instrumented cell.
func (c *Cache) Do(key string, build func() (artifact any, weight int64, err error)) (any, error) {
	v, _, err := c.lookup(key, build)
	return v, err
}

// removeLocked unlinks an entry; the caller holds c.mu.
func (c *Cache) removeLocked(e *cacheEntry) {
	delete(c.entries, e.key)
	c.lru.Remove(e.elem)
}

// evictLocked drops ready entries from the LRU tail until the footprint
// fits the budget. In-flight entries stop the sweep: they are by
// construction recent, so reaching one means everything older is gone.
func (c *Cache) evictLocked() {
	for c.used > c.budget && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*cacheEntry)
		select {
		case <-e.ready:
		default:
			return
		}
		if e.accounted {
			c.used -= e.weight
		}
		c.removeLocked(e)
		c.evictions++
	}
}

// DPMakespanTable returns the memoized Algorithm 1 table for the given
// macro-processor law and job geometry, building it on the first request.
// Without a cache it builds directly. The context carries observability
// only (the cache resolution span); building is not cancellable — a
// cached artifact is built to completion or not at all.
func (e *Engine) DPMakespanTable(ctx context.Context, d dist.Distribution, work, cost, rec, down, tau0 float64, quanta int) (*policy.DPMakespanTable, error) {
	e = or(e)
	if e.cache == nil {
		return policy.BuildDPMakespanTable(d, work, cost, rec, down, tau0, quanta)
	}
	key := fmt.Sprintf("dpm|%s|%x|%x|%x|%x|%x|%d",
		distKey(d), math.Float64bits(work), math.Float64bits(cost),
		math.Float64bits(rec), math.Float64bits(down), math.Float64bits(tau0), quanta)
	v, err := e.cache.do(ctx, key, func() (any, int64, error) {
		t, err := policy.BuildDPMakespanTable(d, work, cost, rec, down, tau0, quanta)
		if err != nil {
			return nil, 0, err
		}
		return t, t.SizeBytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*policy.DPMakespanTable), nil
}

// DPNextFailurePlanner returns the memoized immutable Algorithm 2 planner
// for the given per-unit law, MTBF and resolution. Sharing the planner
// across evaluations shares its pristine-state plan memo, so the expensive
// first planning pass of a scenario is computed once and reused by every
// trace (and every repeat of the scenario). The context carries
// observability only (the cache resolution span).
func (e *Engine) DPNextFailurePlanner(ctx context.Context, d dist.Distribution, unitMean float64, quanta int) *policy.DPNextFailurePlanner {
	e = or(e)
	build := func() *policy.DPNextFailurePlanner {
		opts := append([]policy.DPNextFailureOption{policy.WithQuanta(quanta)}, e.SharedGridOptions(d)...)
		return policy.NewDPNextFailurePlanner(d, unitMean, opts...)
	}
	if e.cache == nil {
		return build()
	}
	key := fmt.Sprintf("dpnf|%s|%x|%d", distKey(d), math.Float64bits(unitMean), quanta)
	v, _ := e.cache.do(ctx, key, func() (any, int64, error) {
		return build(), 1 << 10, nil
	})
	return v.(*policy.DPNextFailurePlanner)
}
