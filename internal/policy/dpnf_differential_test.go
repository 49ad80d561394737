package policy

// Differential equivalence suite for the incremental DPNextFailure
// re-planner: the production replan (warm-start memo, slab-backed solve,
// devirtualized grid fill, candidate pruning) must produce bit-identical
// plans to the frozen from-scratch reference in
// dpnextfailure_reference.go, on randomized failure/recovery sequences
// across every distribution family. Coarse mode is approximate by design;
// its expected-work loss and simulated-makespan impact are bounded below
// instead.

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/theory"
	"repro/internal/trace"
)

// diffLaws returns one representative per distribution family, all with
// comparable means so one harness geometry exercises them all.
func diffLaws(mean float64) []dist.Distribution {
	// A deterministic empirical sample: quantiles of a Weibull with the
	// same mean, so the support is bounded (exercising the +Inf hazard
	// tail) but not degenerate.
	w := dist.WeibullFromMeanShape(mean, 0.9)
	samples := make([]float64, 257)
	for i := range samples {
		samples[i] = w.Quantile((float64(i) + 0.5) / float64(len(samples)))
	}
	return []dist.Distribution{
		dist.NewExponentialMean(mean),
		dist.WeibullFromMeanShape(mean, 0.7),
		dist.GammaFromMeanShape(mean, 2.0),
		dist.LogNormalFromMeanSigma(mean, 1.1),
		dist.NewEmpirical(samples),
	}
}

// diffEvolve drives one policy instance through `steps` randomized
// failure/recovery/progress mutations, comparing the production replan
// against the reference at every state (and re-asking some states twice
// to cover the warm-start memo path).
func diffEvolve(t *testing.T, d dist.Distribution, p *DPNextFailure, job *sim.Job, seed uint64, steps int) {
	t.Helper()
	if err := p.Start(job); err != nil {
		t.Fatal(err)
	}
	pl := p.planner
	r := rng.NewStream(seed, 7)
	s := &sim.State{Job: job, Now: 0, Remaining: job.Work, LastRenewal: make([]float64, job.Units)}
	seen := make([]bool, job.Units)
	scale := pl.unitMean / float64(job.Units) / 4

	for step := 0; step < steps; step++ {
		dt := (0.05 + r.Float64()) * scale
		s.Now += dt
		switch r.IntN(10) {
		case 0, 1, 2, 3, 4:
			// A unit fails and renews (possibly mid-downtime: its renewal
			// can sit slightly in the future, making its age negative).
			u := r.IntN(job.Units)
			if !seen[u] {
				seen[u] = true
				s.FailedUnits = append(s.FailedUnits, int32(u))
			}
			s.LastRenewal[u] = s.Now + job.D*r.Float64()
			s.Failures++
		case 5:
			// Work commits; occasionally drop Remaining below the horizon
			// so the untruncated full-plan path runs too.
			s.Remaining *= 0.5 + 0.5*r.Float64()
			if r.IntN(8) == 0 {
				s.Remaining = scale * (0.1 + r.Float64())
			}
			if s.Remaining < 1 {
				s.Remaining = 1
			}
		case 6:
			// Fresh attempt restores most of the work (keeps the long-plan
			// path in play after a shrinking streak).
			s.Remaining = job.Work * (0.2 + 0.8*r.Float64())
		case 7:
			// Long quiet stretch: ages grow, grid horizon unchanged.
			s.Now += 20 * dt
		default:
			// No mutation: the very same state is re-planned again below.
		}

		got := p.replan(s)
		want := pl.replanReference(s)
		diffComparePlans(t, step, got, want)
		if t.Failed() {
			t.Fatalf("law %s seed %d step %d: production diverged from reference", d.Name(), seed, step)
		}
		if r.IntN(4) == 0 {
			// Identical state again: must serve the memoized plan, still
			// bit-identical.
			diffComparePlans(t, step, p.replan(s), want)
			if t.Failed() {
				t.Fatalf("law %s seed %d step %d: memoized replan diverged", d.Name(), seed, step)
			}
		}
	}
}

func diffComparePlans(t *testing.T, step int, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("step %d: plan length %d, reference %d (got %v want %v)", step, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("step %d chunk %d: %x (%v) vs reference %x (%v)", step,
				i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
			return
		}
	}
}

// TestDPNextFailureReplanMatchesReferenceAllFamilies is the exactness
// contract: thousands of randomized states through both planners, every
// plan bit-identical, for every family and several platform shapes
// (single unit, few units, many-units all-exact, and an approximation
// collapse where distinct ages exceed nApprox).
func TestDPNextFailureReplanMatchesReferenceAllFamilies(t *testing.T) {
	const mean = 2e6
	configs := []struct {
		name  string
		units int
		steps int
		opts  []DPNextFailureOption
	}{
		{"single", 1, 130, []DPNextFailureOption{WithQuanta(12)}},
		{"few", 6, 150, []DPNextFailureOption{WithQuanta(10)}},
		{"manyExact", 24, 120, []DPNextFailureOption{WithQuanta(8)}},
		{"collapse", 40, 120, []DPNextFailureOption{WithQuanta(8), WithStateApprox(3, 6)}},
	}
	for _, d := range diffLaws(mean) {
		for ci, cfg := range configs {
			t.Run(d.Name()+"/"+cfg.name, func(t *testing.T) {
				t.Parallel()
				job := &sim.Job{Work: 1e12, C: 400, R: 400, D: 60, Units: cfg.units}
				p := NewDPNextFailure(d, mean, cfg.opts...)
				diffEvolve(t, d, p, job, uint64(100*ci+1), cfg.steps)
			})
		}
	}
}

// TestDPNextFailureBuildGroupsEdgeCases pins the age-group construction
// on the corners that production traffic rarely hits, against the
// reference implementation and against structural invariants.
func TestDPNextFailureBuildGroupsEdgeCases(t *testing.T) {
	w := dist.WeibullFromMeanShape(1e6, 0.7)

	t.Run("allNeverFailed", func(t *testing.T) {
		job := &sim.Job{Work: 1e9, C: 300, R: 300, D: 60, Units: 32}
		s := &sim.State{Job: job, Now: 5000, Remaining: job.Work, LastRenewal: make([]float64, 32)}
		p := NewDPNextFailure(w, 1e6)
		groups := p.planner.buildGroups(s)
		ref := p.planner.buildGroupsReference(s)
		diffCompareGroups(t, groups, ref)
		if len(groups) != 1 || groups[0].tau != 5000 || groups[0].weight != 32 {
			t.Errorf("all-never-failed state should be one group {5000, 32}, got %+v", groups)
		}
	})

	t.Run("nExactExceedsFailed", func(t *testing.T) {
		job := &sim.Job{Work: 1e9, C: 300, R: 300, D: 60, Units: 8}
		renew := make([]float64, 8)
		renew[2], renew[5] = 900, 400
		s := &sim.State{Job: job, Now: 1000, Remaining: job.Work, LastRenewal: renew,
			FailedUnits: []int32{2, 5}, Failures: 2}
		p := NewDPNextFailure(w, 1e6, WithStateApprox(10, 100))
		groups := p.planner.buildGroups(s)
		ref := p.planner.buildGroupsReference(s)
		diffCompareGroups(t, groups, ref)
		// 2 exact groups (ages 100 and 600) plus the never group (6 units
		// of age 1000).
		if len(groups) != 3 || groups[0].tau != 100 || groups[1].tau != 600 || groups[2].weight != 6 {
			t.Errorf("unexpected groups %+v", groups)
		}
	})

	t.Run("nApproxCollapse", func(t *testing.T) {
		job := &sim.Job{Work: 1e9, C: 300, R: 300, D: 60, Units: 64}
		renew := make([]float64, 64)
		s := &sim.State{Job: job, Now: 1e5, Remaining: job.Work, Failures: 40}
		for i := 0; i < 40; i++ {
			renew[i] = 1e5 * float64(i+1) / 50
			s.FailedUnits = append(s.FailedUnits, int32(i))
		}
		s.LastRenewal = renew
		p := NewDPNextFailure(w, 1e6, WithStateApprox(4, 9))
		groups := p.planner.buildGroups(s)
		ref := p.planner.buildGroupsReference(s)
		diffCompareGroups(t, groups, ref)
		if len(groups) > 4+9 {
			t.Errorf("collapse produced %d groups, want <= nExact+nApprox=13", len(groups))
		}
		var total float64
		for _, g := range groups {
			total += g.weight
		}
		if math.Abs(total-64) > 1e-9 {
			t.Errorf("group weights sum to %v, want 64", total)
		}
	})
}

func diffCompareGroups(t *testing.T, got, want []taugroup) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("groups %d vs reference %d: %+v vs %+v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("group %d: %+v vs reference %+v", i, got[i], want[i])
		}
	}
}

// TestDPNextFailureCoarseValueBound asserts the coarse mode's
// approximation contract: rounding the exact plan down onto the coarse
// quantum grid loses at most one coarse quantum of work per chunk (and
// only raises every survival factor), so the coarse DP — which searches a
// superset of those rounded plans — must achieve
//
//	V(coarse) >= V(exact) - len(exactPlan)*u_coarse - gridSlack
//
// with V evaluated by the independent closed-form oracle of
// Proposition 3, not by either DP's own value table. gridSlack covers the
// coarse 256-point hazard interpolation.
func TestDPNextFailureCoarseValueBound(t *testing.T) {
	const mean = 2e6
	const quanta, coarse = 30, 8
	for _, d := range diffLaws(mean) {
		t.Run(d.Name(), func(t *testing.T) {
			t.Parallel()
			job := &sim.Job{Work: 1e12, C: 500, R: 500, D: 60, Units: 3}
			exact := NewDPNextFailure(d, mean, WithQuanta(quanta), WithFullPlan())
			co := NewDPNextFailure(d, mean, WithQuanta(quanta), WithCoarseQuanta(coarse), WithFullPlan())
			if err := exact.Start(job); err != nil {
				t.Fatal(err)
			}
			if err := co.Start(job); err != nil {
				t.Fatal(err)
			}
			r := rng.NewStream(42, 3)
			s := &sim.State{Job: job, Now: 0, Remaining: job.Work, LastRenewal: make([]float64, 3),
				FailedUnits: []int32{0, 1, 2}}
			taus := make([]float64, 3)
			for step := 0; step < 40; step++ {
				s.Now += (0.1 + r.Float64()) * mean / 12
				u := r.IntN(3)
				s.LastRenewal[u] = s.Now
				s.Failures++
				for i := range taus {
					taus[i] = s.Now - s.LastRenewal[i]
				}
				planE := exact.replan(s)
				planC := co.replan(s)
				if len(planE) == 0 || len(planC) == 0 {
					t.Fatalf("step %d: empty plan (exact %d, coarse %d)", step, len(planE), len(planC))
				}
				ve := theory.ExpectedWorkBeforeFailureMulti(d, taus, job.C, planE)
				vc := theory.ExpectedWorkBeforeFailureMulti(d, taus, job.C, planC)
				target := math.Min(s.Remaining, exact.horizonCap)
				uCoarse := target / coarse
				bound := ve - float64(len(planE))*uCoarse - 0.02*ve
				if vc < bound {
					t.Fatalf("step %d: coarse value %v below bound %v (exact %v, %d exact chunks, u_c %v)",
						step, vc, bound, ve, len(planE), uCoarse)
				}
			}
		})
	}
}

// TestDPNextFailureCoarseSimulatedMakespan runs the same failure traces
// through the exact and coarse policies end-to-end: the coarse mode's
// whole-run cost must stay within a few percent of the exact solver's.
func TestDPNextFailureCoarseSimulatedMakespan(t *testing.T) {
	w := dist.WeibullFromMeanShape(20000, 0.7)
	job := &sim.Job{Work: 30000, C: 200, R: 200, D: 60, Units: 4, Start: 1000}
	var exactTotal, coarseTotal float64
	for seed := uint64(11); seed < 17; seed++ {
		ts := trace.GenerateRenewal(w, 4, 1e8, 60, seed)
		pe := NewDPNextFailure(w, 20000, WithQuanta(60))
		re, err := sim.Run(context.Background(), job, pe, ts)
		if err != nil {
			t.Fatal(err)
		}
		pc := NewDPNextFailure(w, 20000, WithQuanta(60), WithCoarseQuanta(15))
		rc, err := sim.Run(context.Background(), job, pc, ts)
		if err != nil {
			t.Fatal(err)
		}
		exactTotal += re.Makespan
		coarseTotal += rc.Makespan
	}
	if coarseTotal > exactTotal*1.05 {
		t.Fatalf("coarse mode makespan %v exceeds exact %v by more than 5%%", coarseTotal, exactTotal)
	}
	if !(coarseTotal > 0) {
		t.Fatalf("degenerate coarse makespan %v", coarseTotal)
	}
}

// TestDPNextFailureWarmReplanZeroAlloc pins the incremental replan at
// zero allocations once the scratch slabs are warm, under genuinely
// changing state (ages advance and a unit renews every cycle, so the
// grid refills and the DP re-solves — no memo shortcut).
func TestDPNextFailureWarmReplanZeroAlloc(t *testing.T) {
	law := dist.NewExponentialMean(4e9)
	job := &sim.Job{Work: 1e18, C: 600, R: 600, D: 60, Units: 64}
	p := NewDPNextFailure(law, 4e9, WithQuanta(20))
	if err := p.Start(job); err != nil {
		t.Fatal(err)
	}
	s := &sim.State{Job: job, Now: 0, Remaining: job.Work, LastRenewal: make([]float64, 64)}
	for i := 0; i < 64; i++ {
		s.FailedUnits = append(s.FailedUnits, int32(i))
		s.LastRenewal[i] = float64(i) * 977
	}
	s.Now = 64 * 977
	s.Failures = 64
	unit := 0
	cycle := func() {
		s.Now += 13337.25
		s.LastRenewal[unit] = s.Now - 600
		unit = (unit + 1) % 64
		s.Failures++
		if plan := p.replan(s); len(plan) == 0 {
			t.Fatal("empty plan")
		}
	}
	cycle() // warm the slabs
	if allocs := testing.AllocsPerRun(150, cycle); allocs != 0 {
		t.Fatalf("warm replan allocates %.1f times per call, want 0", allocs)
	}
}

// TestDPNextFailureCoarseReplanZeroAlloc is the same pin for the coarse
// serving mode (which flips between grid resolutions relative to the
// pristine solve).
func TestDPNextFailureCoarseReplanZeroAlloc(t *testing.T) {
	law := dist.NewExponentialMean(4e9)
	job := &sim.Job{Work: 1e18, C: 600, R: 600, D: 60, Units: 64}
	p := NewDPNextFailure(law, 4e9, WithQuanta(60), WithCoarseQuanta(12))
	if err := p.Start(job); err != nil {
		t.Fatal(err)
	}
	s := &sim.State{Job: job, Now: 0, Remaining: job.Work, LastRenewal: make([]float64, 64)}
	for i := 0; i < 64; i++ {
		s.FailedUnits = append(s.FailedUnits, int32(i))
		s.LastRenewal[i] = float64(i) * 977
	}
	s.Now = 64 * 977
	s.Failures = 64
	unit := 0
	cycle := func() {
		s.Now += 13337.25
		s.LastRenewal[unit] = s.Now - 600
		unit = (unit + 1) % 64
		s.Failures++
		if plan := p.replan(s); len(plan) == 0 {
			t.Fatal("empty plan")
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(150, cycle); allocs != 0 {
		t.Fatalf("warm coarse replan allocates %.1f times per call, want 0", allocs)
	}
}

// gridCache is a build-once SharedCache for the tests (the engine's
// cache imports this package). builds counts the grids it built.
type gridCache struct {
	mu     sync.Mutex
	m      map[string]any
	builds int
}

func newGridCache() *gridCache { return &gridCache{m: map[string]any{}} }

func (c *gridCache) Do(key string, build func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v, ok := c.m[key]; ok {
		return v, nil
	}
	v, _, err := build()
	if err != nil {
		return nil, err
	}
	c.m[key] = v
	c.builds++
	return v, nil
}

// TestDPNextFailureReplanMatchesReferenceSharedGrids runs the
// differential evolution with grids shared through caches — the pristine
// grid through a planner-wide one, other small-group grids through an
// instance scope — on platforms whose states soon exceed
// sharedGridMaxGroups, so re-plans switch between shared complete grids
// and instance-owned grids filled only where the solve reads. Two
// instances evolve different histories on the same caches; every plan
// stays bit-identical to the reference. The single-unit recurring case
// revisits shared-grid states out of order, so most of its plans come
// from the instance's plan memo.
func TestDPNextFailureReplanMatchesReferenceSharedGrids(t *testing.T) {
	const mean = 2e6
	laws := diffLaws(mean)
	configs := []struct {
		name  string
		units int
		steps int
		opts  []DPNextFailureOption
	}{
		{"manyExact", 24, 120, []DPNextFailureOption{WithQuanta(8)}},
		{"collapse", 40, 120, []DPNextFailureOption{WithQuanta(12), WithStateApprox(3, 6)}},
		{"fine", 12, 60, []DPNextFailureOption{WithQuanta(40)}},
	}
	for _, d := range []dist.Distribution{laws[1], laws[4]} { // Weibull, Empirical
		for ci, cfg := range configs {
			t.Run(d.Name()+"/"+cfg.name, func(t *testing.T) {
				t.Parallel()
				job := &sim.Job{Work: 1e12, C: 400, R: 400, D: 60, Units: cfg.units}
				process, scope := newGridCache(), newGridCache()
				opts := append([]DPNextFailureOption{WithSharedGrids(process, d.Name())}, cfg.opts...)
				pl := NewDPNextFailurePlanner(d, mean, opts...)
				for k := uint64(0); k < 2; k++ {
					diffEvolve(t, d, pl.NewScopedPolicy(scope), job, uint64(100*ci+11)+k, cfg.steps)
				}
				if scope.builds == 0 {
					t.Fatal("no grid was shared through the scope")
				}
			})
		}
		t.Run(d.Name()+"/singleRecurring", func(t *testing.T) {
			t.Parallel()
			job := &sim.Job{Work: 1e12, C: 400, R: 400, D: 60, Units: 1}
			process, scope := newGridCache(), newGridCache()
			pl := NewDPNextFailurePlanner(d, mean, WithSharedGrids(process, d.Name()), WithQuanta(20))
			for k := uint64(0); k < 2; k++ {
				diffRecur(t, pl.NewScopedPolicy(scope), job, 31+k, 90)
			}
		})
	}
}

// diffRecur re-plans one single-unit instance at states drawn at random
// from nine: three ages since the last renewal (the first the age right
// after a recovery) at three remaining-work levels (one truncated at the
// horizon cap), as a one-processor run meets them after its failures.
// Every plan must equal the reference's; a state met before, but not on
// the previous call, must be served by the plan memo.
func diffRecur(t *testing.T, p *DPNextFailure, job *sim.Job, seed uint64, steps int) {
	t.Helper()
	if err := p.Start(job); err != nil {
		t.Fatal(err)
	}
	ages := []float64{job.D + job.R, 3e4, 2.5e5}
	remaining := []float64{job.Work, 5e5, 2e5}
	sc := p.scratch()
	r := rng.NewStream(seed, 9)
	s := &sim.State{Job: job, LastRenewal: make([]float64, 1), FailedUnits: []int32{0}}
	seen := map[[2]int]bool{}
	last, memoServed := [2]int{-1, -1}, 0
	for step := 0; step < steps; step++ {
		st := [2]int{r.IntN(len(ages)), r.IntN(len(remaining))}
		s.Failures++
		s.Now = 1e7 + float64(step)*1e6
		s.LastRenewal[0] = s.Now - ages[st[0]]
		s.Remaining = remaining[st[1]]
		memoLen := len(sc.memo)
		diffComparePlans(t, step, p.replan(s), p.planner.replanReference(s))
		if t.Failed() {
			t.Fatalf("seed %d step %d: re-plan diverged from the reference", seed, step)
		}
		if seen[st] && st != last {
			if len(sc.memo) != memoLen {
				t.Fatalf("seed %d step %d: a state met before was solved again", seed, step)
			}
			memoServed++
		}
		seen[st], last = true, st
	}
	if memoServed == 0 {
		t.Fatal("the memo served no plan")
	}
	if len(sc.memo) != len(seen) {
		t.Fatalf("memo holds %d plans for %d distinct states", len(sc.memo), len(seen))
	}
}

// TestDPNextFailureMemoKeyCarriesUAndC pins the plan memo's key: two
// single-unit jobs whose u + c agree re-plan at one age on one shared
// grid (same age group, same tmax), so only u and c tell their solves
// apart. Alternating between them, each re-plan after the first two is a
// memo hit and must still be its own state's plan.
func TestDPNextFailureMemoKeyCarriesUAndC(t *testing.T) {
	const mean = 2e6
	law := dist.WeibullFromMeanShape(mean, 0.7)
	jobA := &sim.Job{Work: 1e12, C: 28, R: 28, D: 60, Units: 1}
	jobB := &sim.Job{Work: 1e12, C: 64, R: 64, D: 60, Units: 1}
	state := func(job *sim.Job, remaining float64) *sim.State {
		return &sim.State{Job: job, Now: 1e6, Remaining: remaining,
			LastRenewal: []float64{4e5}, FailedUnits: []int32{0}, Failures: 1}
	}
	sA, sB := state(jobA, 700), state(jobB, 448) // u = 100 and 64, tmax 1024
	pl := NewDPNextFailurePlanner(law, mean, WithSharedGrids(newGridCache(), law.Name()), WithQuanta(7))
	p := pl.NewScopedPolicy(newGridCache())
	for i, s := range []*sim.State{sA, sB, sA, sB} {
		if err := p.Start(s.Job); err != nil {
			t.Fatal(err)
		}
		diffComparePlans(t, i, p.replan(s), pl.replanReference(s))
		if t.Failed() {
			t.Fatalf("re-plan %d diverged from the reference", i)
		}
	}
	if p.rp.grid == &p.rp.ownGrid || len(p.rp.memo) != 2 {
		t.Fatalf("want both plans memoized on one shared grid, memo holds %d", len(p.rp.memo))
	}
}

// partialGridState is a state of nine age groups (eight failed units and
// the never-failed rest of twelve) with the given job and remaining work.
func partialGridState(job *sim.Job, remaining float64) *sim.State {
	renew := make([]float64, job.Units)
	var failed []int32
	for u := 0; u < 8; u++ {
		renew[u] = 1e5 * float64(u+1)
		failed = append(failed, int32(u))
	}
	return &sim.State{Job: job, Now: 1e6, Remaining: remaining,
		LastRenewal: renew, FailedUnits: failed, Failures: 8}
}

// TestDPNextFailurePartialGridSignature pins the reuse check of a partly
// filled grid: states with the same age groups, resolution and tmax bits
// but a different (x, u, c) read different entries, so one instance
// alternating between them must refill instead of reusing the grid.
func TestDPNextFailurePartialGridSignature(t *testing.T) {
	const mean = 2e6
	law := dist.WeibullFromMeanShape(mean, 0.7)
	replanAgainst := func(t *testing.T, p *DPNextFailure, job *sim.Job, s *sim.State, want []float64, what string) {
		t.Helper()
		if err := p.Start(job); err != nil {
			t.Fatal(err)
		}
		diffComparePlans(t, 0, p.replan(s), want)
		if t.Failed() {
			t.Fatalf("%s: plan diverged", what)
		}
	}

	// Remaining work below the horizon cap: u = remaining/x.
	t.Run("twoU", func(t *testing.T) {
		job := &sim.Job{Work: 1e12, C: 68, R: 68, D: 60, Units: 12}
		const x = 7
		tmaxOf := func(u float64) float64 { return float64(x)*(u+job.C) + u + job.C }
		// u = 60 puts every elapsed time the solve evaluates on a grid
		// point (u + c = 128 = tmax/8, step 1). An ulp less of u still
		// rounds u + c to 128, so tmax keeps its bits, but it moves some
		// of those times below their grid point.
		rem1 := 420.0
		u1 := rem1 / x
		rem2 := 0.0
		for r, k := rem1, 0; k < 64 && rem2 == 0; k++ {
			r = math.Nextafter(r, 0)
			u2 := r / x
			if u2 != u1 && tmaxOf(u2) == tmaxOf(u1) && !equalReads(x, u1, job.C, tmaxOf(u1), x, u2, job.C, tmaxOf(u2)) {
				rem2 = r
			}
		}
		if rem2 == 0 {
			t.Fatal("no remaining work within 64 ulps gives a second u with the same tmax and other reads")
		}
		p := NewDPNextFailure(law, mean, WithQuanta(x))
		s1, s2 := partialGridState(job, rem1), partialGridState(job, rem2)
		want1, want2 := p.planner.replanReference(s1), p.planner.replanReference(s2)
		replanAgainst(t, p, job, s1, want1, "first u")
		replanAgainst(t, p, job, s2, want2, "second u")
		replanAgainst(t, p, job, s1, want1, "first u again")
	})

	// Two jobs whose u + c agree: same tmax, very different reads.
	t.Run("checkpointCost", func(t *testing.T) {
		jobA := &sim.Job{Work: 1e12, C: 28, R: 28, D: 60, Units: 12}
		jobB := &sim.Job{Work: 1e12, C: 64, R: 64, D: 60, Units: 12}
		p := NewDPNextFailure(law, mean, WithQuanta(7))
		sA, sB := partialGridState(jobA, 700), partialGridState(jobB, 448) // u = 100 and 64
		wantA, wantB := p.planner.replanReference(sA), p.planner.replanReference(sB)
		replanAgainst(t, p, jobA, sA, wantA, "job A")
		replanAgainst(t, p, jobB, sB, wantB, "job B")
		replanAgainst(t, p, jobA, sA, wantA, "job A again")
	})

	// Exact x = 8 and coarse x = 4 over a target of c*8*4 share tmax
	// bits (their grids differ in resolution). The exact state is checked
	// against the reference, the coarse one against a complete-grid solve.
	t.Run("exactCoarse", func(t *testing.T) {
		job := &sim.Job{Work: 1e12, C: 28, R: 28, D: 60, Units: 12}
		p := NewDPNextFailure(law, mean, WithQuanta(8), WithCoarseQuanta(4))
		exact := partialGridState(job, 896)
		exact.Failures = 0 // exact resolution; still not pristine
		coarse := partialGridState(job, 896)
		if a, b := 8*(896.0/8+28)+896.0/8+28, 4*(896.0/4+28)+896.0/4+28; a != b {
			t.Fatalf("tmax %v vs %v", a, b)
		}
		wantExact := p.planner.replanReference(exact)
		grid := &survivalGrid{g: make([]float64, coarseGridPoints+2)}
		fillSurvivalGrid(grid, law, p.planner.buildGroups(coarse), 4*(896.0/4+28)+896.0/4+28,
			coarseGridPoints, allGridIndices[:coarseGridPoints+2])
		wantCoarse, _ := solveNextFailureDP(4, 896.0/4, 28, grid)
		replanAgainst(t, p, job, exact, wantExact, "exact")
		replanAgainst(t, p, job, coarse, wantCoarse, "coarse")
		replanAgainst(t, p, job, exact, wantExact, "exact again")
		replanAgainst(t, p, job, coarse, wantCoarse, "coarse again")
	})
}

// equalReads reports whether two solve configurations read the same
// grid entries (at exact resolution).
func equalReads(x1 int, u1, c1, tmax1 float64, x2 int, u2, c2, tmax2 float64) bool {
	list := func(x int, u, c, tmax float64) []int32 {
		iu := make([]float64, x+1)
		for i := range iu {
			iu[i] = float64(i) * u
		}
		return listGridReads(nil, make([]bool, gridPoints+2), x, c, iu, tmax, gridPoints)
	}
	a, b := list(x1, u1, c1, tmax1), list(x2, u2, c2, tmax2)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDPNextFailureGridReadsCoverSolve checks the read set itself: over
// many random configurations, a grid whose entries outside
// listGridReads are poisoned must give the solve the very same value and
// argmin tables — every cell, not just the plan — as the complete grid.
// A NaN poison turns a read of an unlisted entry into a NaN candidate or
// start value, a -Inf poison into an unbeatable candidate.
func TestDPNextFailureGridReadsCoverSolve(t *testing.T) {
	r := rng.NewStream(2024, 1)
	laws := diffLaws(2e6)
	solve := func(x int, c float64, grid *survivalGrid, iu []float64) ([]float64, []int32) {
		val := make([]float64, (x+1)*(x+1))
		choice := make([]int32, (x+1)*(x+1))
		solveNextFailureDPInto(x, c, grid, val, choice, iu)
		return val, choice
	}
	for trial := 0; trial < 400; trial++ {
		d := laws[trial%len(laws)]
		x := 2 + r.IntN(59)
		n := gridPoints
		if r.IntN(4) == 0 {
			n = coarseGridPoints
		}
		u := math.Exp(r.Float64() * 12)
		c := 0.0
		if r.IntN(8) != 0 {
			c = math.Exp(r.Float64() * 9)
		}
		groups := make([]taugroup, 1+r.IntN(8))
		for i := range groups {
			groups[i] = taugroup{tau: r.Float64() * 4e6, weight: float64(1 + r.IntN(5))}
		}
		tmax := float64(x)*(u+c) + u + c
		iu := make([]float64, x+1)
		for i := range iu {
			iu[i] = float64(i) * u
		}
		reads := listGridReads(nil, make([]bool, n+2), x, c, iu, tmax, n)
		for i, j := range reads {
			if j < 0 || int(j) > n+1 || (i > 0 && j <= reads[i-1]) {
				t.Fatalf("trial %d: read list not increasing within the grid: %v", trial, reads)
			}
		}
		full := &survivalGrid{g: make([]float64, n+2)}
		fillSurvivalGrid(full, d, groups, tmax, n, allGridIndices[:n+2])
		wantVal, wantChoice := solve(x, c, full, iu)
		for _, poison := range []float64{math.NaN(), math.Inf(-1)} {
			pg := &survivalGrid{g: make([]float64, n+2)}
			for j := range pg.g {
				pg.g[j] = poison
			}
			fillSurvivalGrid(pg, d, groups, tmax, n, reads)
			gotVal, gotChoice := solve(x, c, pg, iu)
			for k := range wantVal {
				if math.Float64bits(gotVal[k]) != math.Float64bits(wantVal[k]) || gotChoice[k] != wantChoice[k] {
					t.Fatalf("trial %d (%s, x=%d, n=%d, u=%v, c=%v, poison %v): cell %d = (%v, %d), complete grid (%v, %d)",
						trial, d.Name(), x, n, u, c, poison, k, gotVal[k], gotChoice[k], wantVal[k], wantChoice[k])
				}
			}
		}
	}
}
