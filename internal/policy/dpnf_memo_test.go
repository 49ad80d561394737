package policy_test

import (
	"context"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spec"
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
