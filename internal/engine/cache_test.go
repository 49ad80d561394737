package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
)

func TestCacheBuildsOncePerKey(t *testing.T) {
	c := NewCache(0)
	var builds atomic.Int64
	for i := 0; i < 5; i++ {
		v, err := c.do(context.Background(), "k", func() (any, int64, error) {
			builds.Add(1)
			return 42, 8, nil
		})
		if err != nil || v.(int) != 42 {
			t.Fatalf("lookup %d: %v, %v", i, v, err)
		}
	}
	if builds.Load() != 1 {
		t.Fatalf("built %d times, want 1", builds.Load())
	}
	st := c.Stats()
	if st.Hits != 4 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 4 hits / 1 miss / 1 entry", st)
	}
}

func TestCacheConcurrentLookupsShareOneBuild(t *testing.T) {
	c := NewCache(0)
	var builds atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.do(context.Background(), "shared", func() (any, int64, error) {
				builds.Add(1)
				return "v", 8, nil
			})
			if err != nil || v.(string) != "v" {
				t.Errorf("got %v, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Fatalf("built %d times, want 1", builds.Load())
	}
	st := c.Stats()
	if st.Hits+st.Misses != 32 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 31 hits / 1 miss", st)
	}
}

func TestCacheDoesNotCacheErrors(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	calls := 0
	build := func() (any, int64, error) {
		calls++
		if calls == 1 {
			return nil, 0, boom
		}
		return 7, 8, nil
	}
	if _, err := c.do(context.Background(), "k", build); err != boom {
		t.Fatalf("first lookup err = %v, want %v", err, boom)
	}
	v, err := c.do(context.Background(), "k", build)
	if err != nil || v.(int) != 7 {
		t.Fatalf("retry got %v, %v; want rebuilt value", v, err)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (error entry must not persist)", st.Entries)
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewCache(100) // room for two 40-byte entries
	mk := func(k string) {
		if _, err := c.do(context.Background(), k, func() (any, int64, error) { return k, 40, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mk("a")
	mk("b")
	mk("a") // touch a: b becomes the eviction victim
	mk("c") // 120 bytes > 100: evicts b
	st := c.Stats()
	if st.Entries != 2 || st.Bytes != 80 {
		t.Fatalf("stats = %+v, want 2 entries / 80 bytes", st)
	}
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1 (b dropped)", st.Evictions)
	}
	before := st.Misses
	mk("a")
	mk("c")
	if st := c.Stats(); st.Misses != before {
		t.Fatal("a or c was evicted; want b evicted as LRU")
	}
	mk("b")
	st = c.Stats()
	if st.Misses != before+1 {
		t.Fatal("b should have been evicted and rebuilt")
	}
	if st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2 after re-adding b", st.Evictions)
	}
}

// TestEngineCacheStatsSnapshot: the engine-level accessor reports the
// cache's counters, and degrades to (zero, false) without a cache.
func TestEngineCacheStatsSnapshot(t *testing.T) {
	eng := New(Config{Workers: 1, Cache: NewCache(0)})
	if _, err := eng.Cache().do(context.Background(), "k", func() (any, int64, error) { return 1, 8, nil }); err != nil {
		t.Fatal(err)
	}
	st, ok := eng.CacheStats()
	if !ok || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("CacheStats = %+v, %v; want 1 miss / 1 entry", st, ok)
	}
	if _, ok := eng.WithoutCache().CacheStats(); ok {
		t.Error("cacheless engine reported ok stats")
	}
}

func TestCacheAccountingSurvivesConcurrentChurn(t *testing.T) {
	// Hammer a tiny cache from many goroutines so builds, hits and
	// evictions interleave, then assert the byte accounting matches the
	// live entries exactly: a build/evict race that double-counts or
	// drops a weight would leave `used` permanently skewed.
	const weight = 10
	c := NewCache(5 * weight)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%40)
				if _, err := c.do(context.Background(), key, func() (any, int64, error) {
					return key, weight, nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if got, want := st.Bytes, int64(st.Entries)*weight; got != want {
		t.Fatalf("accounting drifted: %d bytes for %d entries (want %d)", got, st.Entries, want)
	}
	if st.Bytes > st.Budget {
		t.Fatalf("cache over budget after churn: %+v", st)
	}
}

func TestDPMakespanTableCached(t *testing.T) {
	law := dist.WeibullFromMeanShape(86400, 0.7)
	e := New(Config{Workers: 2, Cache: NewCache(0)})
	t1, err := e.DPMakespanTable(context.Background(), law, 20*86400, 600, 600, 60, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.DPMakespanTable(context.Background(), law, 20*86400, 600, 600, 60, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Fatal("same key built two tables")
	}
	if st := e.Cache().Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	// Different quanta is a different table.
	t3, err := e.DPMakespanTable(context.Background(), law, 20*86400, 600, 600, 60, 0, 41)
	if err != nil {
		t.Fatal(err)
	}
	if t3 == t1 {
		t.Fatal("distinct quanta shared a table")
	}
	// A build error is reported and not cached.
	if _, err := e.DPMakespanTable(context.Background(), law, -1, 600, 600, 60, 0, 40); err == nil {
		t.Fatal("want error for negative work")
	}
}

func TestDPNextFailurePlannerCached(t *testing.T) {
	law := dist.WeibullFromMeanShape(3.942e9, 0.7)
	e := New(Config{Workers: 2, Cache: NewCache(0)})
	p1 := e.DPNextFailurePlanner(context.Background(), law, law.Mean(), 120)
	p2 := e.DPNextFailurePlanner(context.Background(), law, law.Mean(), 120)
	if p1 != p2 {
		t.Fatal("same key built two planners")
	}
	if p3 := e.DPNextFailurePlanner(context.Background(), law, law.Mean(), 150); p3 == p1 {
		t.Fatal("distinct quanta shared a planner")
	}
	// Without a cache the engine still hands out working planners.
	bare := New(Config{Workers: 1})
	if p := bare.DPNextFailurePlanner(context.Background(), law, law.Mean(), 120); p == nil {
		t.Fatal("nil planner from cacheless engine")
	}
}

func TestDistKeyDistinguishesParameters(t *testing.T) {
	a := distKey(dist.NewExponentialMean(100))
	b := distKey(dist.NewExponentialMean(101))
	if a == b {
		t.Fatalf("distinct means share key %q", a)
	}
	e1 := dist.NewEmpirical([]float64{1, 2, 3})
	e2 := dist.NewEmpirical([]float64{1, 2, 3})
	if distKey(e1) != distKey(e2) {
		t.Fatal("structurally identical empirical laws must share a key (content fingerprint)")
	}
	e3 := dist.NewEmpirical([]float64{1, 2, 4})
	if distKey(e1) == distKey(e3) {
		t.Fatal("different samples share a key")
	}
	e4 := dist.NewEmpirical([]float64{1, 2, 3, 3})
	if distKey(e1) == distKey(e4) {
		t.Fatal("different sample sizes share a key")
	}
	w := dist.WeibullFromMeanShape(1e6, 0.7)
	if distKey(w) != fmt.Sprint(w) {
		t.Fatal("parametric laws should key by their String")
	}
}

// TestDPNextFailureSharedGrids pins the survival-grid sharing path: two
// instances of the engine-cached planner created in one scope and
// replanning the same failure state must serve the second grid from the
// scope's cache (hits increase, no second miss for the grid key) and
// decide bit-identically — a cached grid is a pure function of its key,
// so sharing never changes decisions.
func TestDPNextFailureSharedGrids(t *testing.T) {
	law := dist.WeibullFromMeanShape(2e6, 0.7)
	e := New(Config{Workers: 1, Cache: NewCache(0)}).Scope()
	planner := e.DPNextFailurePlanner(context.Background(), law, 2e6, 20)

	job := &sim.Job{Work: 1e12, C: 400, R: 400, D: 60, Units: 8}
	// Two failed units + the never-failed group: 3 age groups, inside the
	// shared-grid eligibility bound.
	state := func() *sim.State {
		return &sim.State{Job: job, Now: 1e6, Remaining: job.Work,
			Renewals: []float64{6e5, 3e5}, FailedUnits: []int32{1, 4}, Failures: 2}
	}

	p1 := e.DPNextFailure(planner)
	if err := p1.Start(job); err != nil {
		t.Fatal(err)
	}
	before := e.scope.Stats()
	c1 := p1.NextChunk(state())
	mid := e.scope.Stats()
	if mid.Misses != before.Misses+1 {
		t.Fatalf("first replan should miss once for the shared grid: misses %d -> %d", before.Misses, mid.Misses)
	}

	p2 := e.DPNextFailure(planner)
	if err := p2.Start(job); err != nil {
		t.Fatal(err)
	}
	c2 := p2.NextChunk(state())
	after := e.scope.Stats()
	if after.Misses != mid.Misses {
		t.Fatalf("second replan rebuilt the shared grid: misses %d -> %d", mid.Misses, after.Misses)
	}
	if after.Hits <= mid.Hits {
		t.Fatalf("second replan should hit the shared grid: hits %d -> %d", mid.Hits, after.Hits)
	}
	if math.Float64bits(c1) != math.Float64bits(c2) {
		t.Fatalf("shared-grid decision diverged: %v vs %v", c1, c2)
	}

	// A cacheless engine hands out planners with sharing disabled; the
	// decision must still be bit-identical (the grid is the same pure
	// function either way).
	bare := New(Config{Workers: 1}).DPNextFailurePlanner(context.Background(), law, 2e6, 20)
	p3 := bare.NewPolicy()
	if err := p3.Start(job); err != nil {
		t.Fatal(err)
	}
	if c3 := p3.NextChunk(state()); math.Float64bits(c3) != math.Float64bits(c1) {
		t.Fatalf("unshared decision diverged: %v vs %v", c3, c1)
	}
}

// TestScopeSharedAcrossWorkers runs one scope's cells concurrently: every
// cell fetches the same trace set and re-plans the same post-failure
// state on its own DPNextFailure instance. Each artifact is built once
// and served to all cells, and every decision is bit-identical.
func TestScopeSharedAcrossWorkers(t *testing.T) {
	law := dist.WeibullFromMeanShape(2e6, 0.7)
	s := New(Config{Workers: 4, Cache: NewCache(0)}).Scope()
	planner := s.DPNextFailurePlanner(context.Background(), law, 2e6, 20)
	job := &sim.Job{Work: 1e12, C: 400, R: 400, D: 60, Units: 8}
	type out struct {
		set   any
		chunk float64
	}
	res, err := Run(context.Background(), s, 16, func(int) (out, error) {
		set := s.GenerateTraces(context.Background(), law, 8, 1e7, 60, 3)
		p := s.DPNextFailure(planner)
		if err := p.Start(job); err != nil {
			return out{}, err
		}
		chunk := p.NextChunk(&sim.State{Job: job, Now: 1e6, Remaining: job.Work,
			Renewals: []float64{6e5, 3e5}, FailedUnits: []int32{1, 4}, Failures: 2})
		return out{set, chunk}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.set != res[0].set || math.Float64bits(r.chunk) != math.Float64bits(res[0].chunk) {
			t.Fatalf("cell %d got another trace set or decision (%v vs %v)", i, r.chunk, res[0].chunk)
		}
	}
	if st := s.scope.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("scope stats %+v, want the trace set and one grid, each built once", st)
	}
}
