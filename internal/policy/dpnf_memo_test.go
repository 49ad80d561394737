package policy_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/trace"
)

// TestDPNextFailureMemoSolvesEachInputOnce evaluates DPNextFailure on a
// single processor with a one-hour MTBF, where a run keeps meeting the
// same post-failure states, with instances scoped to the evaluation so
// their grids are shared. Each instance must solve each (grid, x, u, c)
// at most once: every repeat is served from its plan memo.
func TestDPNextFailureMemoSolvesEachInputOnce(t *testing.T) {
	ctx := context.Background()
	scs := spec.ScenarioSpec{
		Platform: spec.PlatformRef{Preset: "oneproc", MTBF: platform.Hour},
		P:        1,
		Dist:     spec.DistSpec{Family: "weibull", Shape: 0.7},
		Horizon:  2 * platform.Year,
		Traces:   2,
		Seed:     66,
	}
	sc, err := scs.Compile()
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Config{Workers: 2, Cache: engine.NewCache(0)}).Scope()
	cs := spec.CandidatesSpec{Policies: []spec.PolicySpec{{Kind: "dpnextfailure", Quanta: 30}}}
	cands, err := cs.Build(ctx, eng, sc)
	if err != nil {
		t.Fatal(err)
	}

	type input struct {
		p *policy.DPNextFailure
		k policy.PlanKey
	}
	var mu sync.Mutex
	inputs := map[input]bool{}
	solves := 0
	for i, c := range cands {
		build := c.New
		cands[i].New = func() (sim.Policy, error) {
			pol, err := build()
			if p, ok := pol.(*policy.DPNextFailure); ok {
				p.ObserveSolves(func(k policy.PlanKey) {
					mu.Lock()
					defer mu.Unlock()
					solves++
					inputs[input{p, k}] = true
				})
			}
			return pol, err
		}
	}
	if _, err := harness.Evaluate(ctx, eng, sc, cands); err != nil {
		t.Fatal(err)
	}
	if solves == 0 {
		t.Fatal("the evaluation solved no DP")
	}
	if solves > len(inputs) {
		t.Fatalf("%d DP solves for %d distinct (instance, grid, x, u, c) inputs: the memo missed %d repeats",
			solves, len(inputs), solves-len(inputs))
	}
	t.Logf("%d solves, %d distinct inputs", solves, len(inputs))
}

// TestDPNextFailureConcurrentRunsMatchSequential runs instances of one
// planner at once. Their solves borrow DP tables from the pool every
// instance shares, and each run must equal the same run made alone.
func TestDPNextFailureConcurrentRunsMatchSequential(t *testing.T) {
	law := dist.WeibullFromMeanShape(1e6, 0.7)
	job := &sim.Job{Work: 5e5, C: 600, R: 600, D: 60, Units: 8}
	planner := policy.NewDPNextFailurePlanner(law, law.Mean(), policy.WithQuanta(30))
	const runs = 4
	traces := make([]*trace.Set, runs)
	want := make([]sim.Result, runs)
	for i := range runs {
		traces[i] = trace.GenerateRenewal(law, job.Units, 1e8, job.D, uint64(i+1))
		var err error
		if want[i], err = sim.Run(context.Background(), job, planner.NewPolicy(), traces[i]); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]sim.Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = sim.Run(context.Background(), job, planner.NewPolicy(), traces[i])
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("run %d concurrently: %+v, alone: %+v", i, got[i], want[i])
		}
		if got[i].Failures == 0 {
			t.Errorf("run %d met no failure, so it never re-planned", i)
		}
	}
}
