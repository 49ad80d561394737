package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/trace"
)

func TestRunOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 32} {
		e := New(Config{Workers: workers})
		got, err := Run(context.Background(), e, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: cell %d = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	e := New(Config{Workers: 8})
	wantErr := errors.New("cell 3")
	var ran atomic.Int64
	_, err := Run(context.Background(), e, 10, func(i int) (int, error) {
		ran.Add(1)
		switch i {
		case 3:
			return 0, wantErr
		case 7:
			return 0, errors.New("cell 7")
		}
		return i, nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if ran.Load() != 10 {
		t.Fatalf("ran %d cells, want all 10", ran.Load())
	}
}

func TestRunZeroCells(t *testing.T) {
	got, err := Run(context.Background(), New(Config{}), 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestRunNilEngineUsesDefault(t *testing.T) {
	got, err := Run(context.Background(), nil, 3, func(i int) (int, error) { return i + 1, nil })
	if err != nil || len(got) != 3 || got[2] != 3 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestStreamEmitsInOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		e := New(Config{Workers: workers})
		var emitted []int
		err := Stream(context.Background(), e, 50,
			func(i int) (int, error) { return 2 * i, nil },
			func(i int, v int) error {
				if v != 2*i {
					return fmt.Errorf("cell %d carried %d", i, v)
				}
				emitted = append(emitted, i)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(emitted) != 50 {
			t.Fatalf("workers=%d: emitted %d cells", workers, len(emitted))
		}
		for i, v := range emitted {
			if v != i {
				t.Fatalf("workers=%d: emission %d was cell %d (out of order)", workers, i, v)
			}
		}
	}
}

func TestStreamStopsEmittingAtFirstCellError(t *testing.T) {
	e := New(Config{Workers: 4})
	boom := errors.New("boom")
	var emitted []int
	err := Stream(context.Background(), e, 20,
		func(i int) (int, error) {
			if i == 5 {
				return 0, boom
			}
			return i, nil
		},
		func(i int, v int) error {
			emitted = append(emitted, i)
			return nil
		})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if len(emitted) != 5 {
		t.Fatalf("emitted %v, want exactly cells 0..4", emitted)
	}
}

func TestNestedRunDoesNotDeadlock(t *testing.T) {
	e := New(Config{Workers: 2})
	got, err := Run(context.Background(), e, 4, func(i int) (int, error) {
		inner, err := Run(context.Background(), e, 4, func(j int) (int, error) { return i*10 + j, nil })
		if err != nil {
			return 0, err
		}
		sum := 0
		for _, v := range inner {
			sum += v
		}
		return sum, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		want := i*40 + 6
		if v != want {
			t.Fatalf("cell %d = %d, want %d", i, v, want)
		}
	}
}

func TestGenerateTracesMatchesSequentialGeneration(t *testing.T) {
	law := dist.WeibullFromMeanShape(3.0e6, 0.7)
	const units, horizon, down, seed = 1500, 1e8, 60.0, 99
	want := trace.GenerateRenewal(law, units, horizon, down, seed)
	for _, workers := range []int{1, 3, 8} {
		e := New(Config{Workers: workers})
		got := e.GenerateTraces(context.Background(), law, units, horizon, down, seed)
		if len(got.Units) != len(want.Units) {
			t.Fatalf("workers=%d: %d units, want %d", workers, len(got.Units), len(want.Units))
		}
		for u := range got.Units {
			g, w := got.Units[u].Times, want.Units[u].Times
			if len(g) != len(w) {
				t.Fatalf("workers=%d unit %d: %d failures, want %d", workers, u, len(g), len(w))
			}
			for k := range g {
				if g[k] != w[k] {
					t.Fatalf("workers=%d unit %d failure %d: %v != %v", workers, u, k, g[k], w[k])
				}
			}
		}
	}
}

func TestGenerateTracesCachesSets(t *testing.T) {
	law := dist.NewExponentialMean(1e5)
	e := New(Config{Workers: 2, Cache: NewCache(0)}).Scope()
	a := e.GenerateTraces(context.Background(), law, 16, 1e7, 60, 5)
	b := e.GenerateTraces(context.Background(), law, 16, 1e7, 60, 5)
	if a != b {
		t.Fatal("second generation did not hit the cache")
	}
	if st := e.scope.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	// A different seed is a different artifact.
	if c2 := e.GenerateTraces(context.Background(), law, 16, 1e7, 60, 6); c2 == a {
		t.Fatal("distinct seeds shared a cache entry")
	}
}

// TestScopeTiers pins where artifacts live: a scope runs on its
// parent's workers and process cache, which keeps the seed-free planners
// and tables, while trace sets go to the scope's own cache — shared
// inside the scope, never seen by another scope or by the process cache.
func TestScopeTiers(t *testing.T) {
	ctx := context.Background()
	law := dist.NewExponentialMean(1e5)
	c := NewCache(0)
	e := New(Config{Workers: 3, Cache: c})
	s := e.Scope()
	if s == e || s.Scope() != s || s.Workers() != 3 || s.Cache() != c {
		t.Fatal("a scope must be a new view over the same workers and process cache, and its own scope")
	}
	if bare := New(Config{Workers: 1}); bare.Scope() != bare {
		t.Fatal("a cacheless engine should be its own scope")
	}
	if e.GenerateTraces(ctx, law, 16, 1e7, 60, 5) == e.GenerateTraces(ctx, law, 16, 1e7, 60, 5) {
		t.Fatal("the process engine cached a trace set")
	}
	set := s.GenerateTraces(ctx, law, 16, 1e7, 60, 5)
	planner := s.DPNextFailurePlanner(ctx, law, 1e5, 10)
	if keys := c.Keys(); len(keys) != 1 || !strings.HasPrefix(keys[0], "dpnf|") {
		t.Fatalf("process cache holds %q, want only the planner", keys)
	}
	if st := s.scope.Stats(); st.Entries != 1 {
		t.Fatalf("scope holds %d entries, want the trace set", st.Entries)
	}
	other := e.Scope()
	if other.DPNextFailurePlanner(ctx, law, 1e5, 10) != planner {
		t.Fatal("a second scope rebuilt the planner")
	}
	if other.GenerateTraces(ctx, law, 16, 1e7, 60, 5) == set {
		t.Fatal("a second scope saw the first scope's trace set")
	}
	if st, ok := s.CacheStats(); !ok || st != c.Stats() {
		t.Fatalf("a scope's CacheStats = %+v, want the process cache's %+v", st, c.Stats())
	}
}

func TestWithoutCacheBypassesTheCache(t *testing.T) {
	law := dist.NewExponentialMean(1e5)
	c := NewCache(0)
	e := New(Config{Workers: 2, Cache: c})
	bare := e.WithoutCache()
	if bare.Workers() != e.Workers() {
		t.Fatal("WithoutCache changed the worker count")
	}
	if bare.Cache() != nil {
		t.Fatal("WithoutCache kept a cache")
	}
	before := c.Stats()
	a := bare.GenerateTraces(context.Background(), law, 16, 1e7, 60, 5)
	b := bare.GenerateTraces(context.Background(), law, 16, 1e7, 60, 5)
	if a == b {
		t.Fatal("uncached generations returned the same set")
	}
	if after := c.Stats(); after != before {
		t.Fatalf("uncached generation touched the cache: %+v -> %+v", before, after)
	}
	// A cacheless engine's WithoutCache is itself.
	if nc := New(Config{Workers: 1}); nc.WithoutCache() != nc {
		t.Fatal("cacheless engine should return itself")
	}
}

// TestRunCancellation: cancelling the context stops workers from
// claiming further cells and Run returns ctx.Err(); completed cells keep
// their deterministic values.
func TestRunCancellation(t *testing.T) {
	e := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	results, err := Run(ctx, e, 1000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i + 1, nil
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Errorf("cancellation did not stop the sweep: %d cells ran", n)
	}
	if len(results) != 1000 {
		t.Fatalf("result slice must keep full length, got %d", len(results))
	}
	if results[0] != 1 {
		t.Errorf("completed cell lost its value: %v", results[0])
	}
}

// TestStreamCancellation: the emitted prefix stays contiguous and
// deterministic under cancellation.
func TestStreamCancellation(t *testing.T) {
	e := New(Config{Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	var emitted []int
	err := Stream(ctx, e, 1000,
		func(i int) (int, error) {
			time.Sleep(time.Millisecond)
			return i * 2, nil
		},
		func(i int, v int) error {
			emitted = append(emitted, v)
			if len(emitted) == 3 {
				cancel()
			}
			return nil
		})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(emitted) >= 1000 || len(emitted) < 3 {
		t.Fatalf("unexpected emitted count %d", len(emitted))
	}
	for i, v := range emitted {
		if v != i*2 {
			t.Errorf("emitted[%d] = %d, want %d (prefix must stay contiguous)", i, v, i*2)
		}
	}
}
