package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/trace"
)

// Config tunes an Engine.
type Config struct {
	// Workers bounds the number of cells executed concurrently by one
	// Run/Stream call. Non-positive means runtime.GOMAXPROCS(0).
	Workers int
	// Cache memoizes the expensive seed-free artifacts (DPMakespan
	// tables, DPNextFailure planners and their pristine survival grids)
	// for the whole process, and enables scopes (Engine.Scope) for the
	// seeded ones. Nil disables caching.
	Cache *Cache
}

// Engine is a bounded worker pool with deterministic result ordering and an
// optional shared artifact cache. It is immutable after construction and
// safe for concurrent use; nested Run/Stream calls are allowed (each call
// spawns its own worker set, so nesting cannot deadlock).
type Engine struct {
	workers int
	cache   *Cache // process tier: artifacts whose key carries no seed
	scope   *Cache // this scope's tier (Scope); nil outside a scope
}

// New builds an engine from the configuration.
func New(cfg Config) *Engine {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: w, cache: cfg.Cache}
}

var defaultEngine = sync.OnceValue(func() *Engine {
	return New(Config{Cache: NewCache(0)})
})

// Default returns the shared process-wide engine: GOMAXPROCS workers and a
// default-budget cache. Entry points that take an explicit *Engine fall
// back to it when handed nil.
func Default() *Engine { return defaultEngine() }

// or returns e, or the default engine when e is nil.
func or(e *Engine) *Engine {
	if e == nil {
		return Default()
	}
	return e
}

// Workers returns the concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's process-wide artifact cache (nil when
// caching is off); a scope returns its parent's.
func (e *Engine) Cache() *Cache { return e.cache }

// Scope returns a view of the engine for one request, sweep job or CLI
// invocation: the same workers and the same process cache for seed-free
// artifacts, plus a fresh cache with the process cache's byte budget for
// the artifacts whose key carries a seed or a post-failure age set —
// renewal trace sets (GenerateTraces) and the survival grids
// DPNextFailure instances build after the pristine state (DPNextFailure).
// The scope's cells share those, and they go with the scope: no later
// request could hit them, so the process cache never holds them. A scope,
// and an engine without a cache, is its own scope.
func (e *Engine) Scope() *Engine {
	e = or(e)
	if e.scope != nil || e.cache == nil {
		return e
	}
	return &Engine{workers: e.workers, cache: e.cache, scope: NewCache(e.cache.budget)}
}

// SharedGridOptions returns the DPNextFailure planner options that wire
// pristine survival-grid sharing to this engine's process cache, keyed by
// the canonical law identity. Empty when the engine runs without a cache.
// A cached grid is a pure function of its key, so sharing never changes
// decisions.
func (e *Engine) SharedGridOptions(d dist.Distribution) []policy.DPNextFailureOption {
	e = or(e)
	if e.cache == nil {
		return nil
	}
	return []policy.DPNextFailureOption{policy.WithSharedGrids(e.cache, distKey(d))}
}

// DPNextFailure returns a fresh per-run instance of the planner's policy.
// Inside a scope the instance shares the survival grids of its
// post-failure states with the scope's other instances; elsewhere it
// keeps them in its own scratch.
func (e *Engine) DPNextFailure(pl *policy.DPNextFailurePlanner) *policy.DPNextFailure {
	e = or(e)
	if e.scope == nil {
		return pl.NewPolicy()
	}
	return pl.NewScopedPolicy(e.scope)
}

// CacheStats returns a point-in-time snapshot of the process cache's
// counters (a scope reports its parent's). ok is false when the engine
// runs without a cache; the snapshot is then zero. It is the stable
// accessor behind operational surfaces (chkpt-sim -v, the serving layer's
// /metrics).
func (e *Engine) CacheStats() (stats CacheStats, ok bool) {
	e = or(e)
	if e.cache == nil {
		return CacheStats{}, false
	}
	return e.cache.Stats(), true
}

// WithoutCache returns a view of the engine with the same worker pool but
// no cache. Use it for artifacts that can never be requested twice (e.g.
// trace sets with run-unique seeds): inserting those into a scope only
// burns budget and evicts entries that are genuinely shared.
func (e *Engine) WithoutCache() *Engine {
	e = or(e)
	if e.cache == nil {
		return e
	}
	return &Engine{workers: e.workers}
}

// instrumentCell wraps a cell function so every invocation records an
// "engine.cell" span (attr: cell index) under the context's tracer. When
// the context carries no tracer the function is returned untouched, so
// uninstrumented runs pay nothing per cell.
func instrumentCell[T any](ctx context.Context, fn func(i int) (T, error)) func(i int) (T, error) {
	if obs.TracerFrom(ctx) == nil {
		return fn
	}
	return func(i int) (T, error) {
		_, sp := obs.StartSpan(ctx, "engine.cell")
		sp.SetAttr("cell", strconv.Itoa(i))
		v, err := fn(i)
		sp.End()
		return v, err
	}
}

// Run executes cells 0..n-1 on the engine's worker pool and returns their
// results indexed by cell: the output is identical for every worker count.
// Every cell runs even if another fails; the returned error is the
// lowest-indexed cell error, matching what a sequential loop would report.
//
// Cancelling the context stops workers from claiming further cells (cells
// already in flight finish, or abort themselves if fn observes the same
// context) and Run returns ctx.Err(). Cells that did complete keep their
// deterministic values in the returned slice, so any completed prefix is a
// prefix of the full uncancelled result.
func Run[T any](ctx context.Context, e *Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	e = or(e)
	if n <= 0 {
		return nil, ctx.Err()
	}
	fn = instrumentCell(ctx, fn)
	results := make([]T, n)
	errs := make([]error, n)
	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			results[i], errs[i] = fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					results[i], errs[i] = fn(i)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return results, err
	}
	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Stream executes cells concurrently like Run but delivers each result to
// emit in strictly increasing index order, as soon as the contiguous prefix
// of cells has completed: cell 0 is emitted the moment it finishes, even
// while cell n-1 is still running. Emission stops at the first cell error
// (which is returned) or the first emit error.
//
// Cancelling the context stops workers from claiming further cells and
// Stream returns ctx.Err(). Everything emitted before cancellation is a
// contiguous prefix of the deterministic full sequence — the same bytes at
// any worker count; cancellation only decides where the prefix ends.
func Stream[T any](ctx context.Context, e *Engine, n int, fn func(i int) (T, error), emit func(i int, v T) error) error {
	e = or(e)
	if n <= 0 {
		return ctx.Err()
	}
	fn = instrumentCell(ctx, fn)
	results := make([]T, n)
	errs := make([]error, n)
	done := make([]bool, n)

	var mu sync.Mutex
	nextEmit := 0
	var emitErr error

	// flush emits the completed prefix; called with mu held.
	flush := func() {
		for nextEmit < n && done[nextEmit] && emitErr == nil && errs[nextEmit] == nil {
			if err := emit(nextEmit, results[nextEmit]); err != nil {
				emitErr = err
				return
			}
			nextEmit++
		}
	}

	cell := func(i int) {
		v, err := fn(i)
		mu.Lock()
		results[i], errs[i], done[i] = v, err, true
		flush()
		mu.Unlock()
	}

	w := e.workers
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			cell(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					cell(i)
				}
			}()
		}
		wg.Wait()
	}
	// An emit error always precedes any cell error: flush never emits past
	// a failed cell, so an emit failure happened at a lower index.
	if emitErr != nil {
		return emitErr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// GenerateTraces returns the renewal failure-trace set for the given law,
// unit count, horizon, downtime and seed — through the scope's cache
// inside a scope, and generated block-parallel on the worker pool
// otherwise (a seeded set never enters the process cache). The per-unit
// rng substreams make the result bit-identical to trace.GenerateRenewal
// for every worker count. The context carries observability only (the
// cache resolution span and per-block generation spans); generation is
// not cancellable — a cached artifact is built to completion or not at
// all.
func (e *Engine) GenerateTraces(ctx context.Context, d dist.Distribution, units int, horizon, downtime float64, seed uint64) *trace.Set {
	e = or(e)
	if e.scope == nil {
		return e.generateTraces(ctx, d, units, horizon, downtime, seed)
	}
	key := fmt.Sprintf("trace|%s|%d|%x|%x|%d",
		distKey(d), units, math.Float64bits(horizon), math.Float64bits(downtime), seed)
	v, _ := e.scope.do(ctx, key, func() (any, int64, error) {
		s := e.generateTraces(ctx, d, units, horizon, downtime, seed)
		return s, traceSetWeight(s), nil
	})
	return v.(*trace.Set)
}

// generateTraces fills the per-unit traces in parallel blocks.
func (e *Engine) generateTraces(ctx context.Context, d dist.Distribution, units int, horizon, downtime float64, seed uint64) *trace.Set {
	const minParallelUnits = 512
	if e.workers <= 1 || units < minParallelUnits {
		return trace.GenerateRenewal(d, units, horizon, downtime, seed)
	}
	s := &trace.Set{Horizon: horizon, Units: make([]trace.Trace, units)}
	blocks := e.workers * 4
	size := (units + blocks - 1) / blocks
	nb := (units + size - 1) / size
	// Detached context: a trace set is an atomic cached artifact — a
	// partially generated set must never escape into the cache, so the
	// caller's cancellation is shed while its tracer and request id are
	// kept for the per-block generation spans.
	_, _ = Run(obs.Detach(ctx), e, nb, func(b int) (struct{}, error) {
		lo, hi := b*size, (b+1)*size
		if hi > units {
			hi = units
		}
		for u := lo; u < hi; u++ {
			s.Units[u] = trace.GenerateUnit(d, horizon, downtime, seed, u)
		}
		return struct{}{}, nil
	})
	return s
}

// traceSetWeight estimates a set's cache footprint in bytes.
func traceSetWeight(s *trace.Set) int64 {
	w := int64(len(s.Units)) * 24
	for i := range s.Units {
		w += int64(len(s.Units[i].Times)) * 8
	}
	return w + 64
}

// distKey returns a cache-key fragment that uniquely identifies a failure
// law. The parametric laws print their parameters with %g (shortest
// round-trip representation), so their String is collision-free; Empirical
// laws are identified by sample size plus content fingerprint, so
// structurally identical laws share cache entries and a reallocated law
// can never alias a dead one's.
func distKey(d dist.Distribution) string {
	if emp, ok := d.(*dist.Empirical); ok {
		return fmt.Sprintf("Empirical(n=%d,fp=%016x)", emp.Len(), emp.Fingerprint())
	}
	return d.String()
}
