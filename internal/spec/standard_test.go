package spec

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/platform"
)

// quickScenario returns a small single-processor scenario that runs in
// milliseconds.
func quickScenario(d dist.Distribution) harness.Scenario {
	plat := platform.OneProc(d.Mean())
	plat.W = 40000
	plat.CBase = 300
	plat.RBase = 300
	return harness.Scenario{
		Name:     "quick",
		Spec:     plat,
		P:        1,
		Dist:     d,
		Overhead: platform.OverheadConstant,
		Work:     platform.Work{Model: platform.WorkEmbarrassing},
		Horizon:  1e8,
		Start:    0,
		Traces:   24,
		Seed:     7,
	}
}

// petascaleScenario is a scaled-down Table 4 scenario with the given
// Weibull shape.
func petascaleScenario(name string, shape float64, traces int, seed uint64) harness.Scenario {
	return harness.Scenario{
		Name: name, Spec: platform.Petascale(125), P: 45208,
		Dist:     dist.WeibullFromMeanShape(125*platform.Year, shape),
		Overhead: platform.OverheadConstant,
		Work:     platform.Work{Model: platform.WorkEmbarrassing},
		Horizon:  11 * platform.Year, Start: platform.Year,
		Traces: traces, Seed: seed,
	}
}

// evaluate builds the candidate set on the default engine and runs it.
func evaluate(t *testing.T, sc harness.Scenario, cs CandidatesSpec) *harness.Evaluation {
	t.Helper()
	ctx := context.Background()
	cands, err := cs.Build(ctx, engine.Default(), sc)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := harness.Evaluate(ctx, engine.Default(), sc, cands)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestEvaluateExponentialSingleProc(t *testing.T) {
	sc := quickScenario(dist.NewExponentialMean(9000))
	ev := evaluate(t, sc, CandidatesSpec{Standard: &StandardSpec{
		DPNextFailureQuanta: 60, DPMakespanQuanta: 50, IncludeLiu: true, IncludeBouguerra: true,
	}})
	// LowerBound must be at or below 1 and every heuristic at or above 1.
	if lb := ev.Degradation["LowerBound"]; lb.Mean > 1+1e-9 {
		t.Errorf("LowerBound degradation %v > 1", lb.Mean)
	}
	for _, name := range ev.Order {
		if name == "LowerBound" {
			continue
		}
		d := ev.Degradation[name]
		if d.Min < 1-1e-9 {
			t.Errorf("%s: min degradation %v below 1", name, d.Min)
		}
		if d.N != sc.Traces {
			t.Errorf("%s: %d samples, want %d", name, d.N, sc.Traces)
		}
	}
	// At least one policy achieves the best on some trace: min == 1.
	atBest := false
	for _, name := range ev.Order {
		if name != "LowerBound" && ev.Degradation[name].Min <= 1+1e-12 {
			atBest = true
		}
	}
	if !atBest {
		t.Error("no policy ever achieves the per-trace best; reference broken")
	}
	// §5.1.1: the closed-form heuristics are close to optimal for
	// exponential failures on one processor.
	for _, name := range []string{"Young", "DalyLow", "DalyHigh", "OptExp"} {
		if d := ev.Degradation[name]; d.Mean > 1.10 {
			t.Errorf("%s degradation %v implausibly high for exponential 1-proc", name, d.Mean)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	sc := quickScenario(dist.WeibullFromMeanShape(9000, 0.7))
	sc.Traces = 8
	cs := CandidatesSpec{Standard: &StandardSpec{DPNextFailureQuanta: 40, IncludeLiu: true, IncludeBouguerra: true}}
	ev1 := evaluate(t, sc, cs)
	ev2 := evaluate(t, sc, cs)
	for _, name := range ev1.Order {
		if ev1.Degradation[name].Mean != ev2.Degradation[name].Mean {
			t.Errorf("%s: evaluation not deterministic", name)
		}
	}
}

func TestEvaluateSkipsInfeasibleLiu(t *testing.T) {
	// Weibull k=0.5 on a large platform: Liu must be reported as skipped.
	sc := petascaleScenario("liu-skip", 0.5, 2, 3)
	// No DPNextFailure, to keep this test fast.
	ev := evaluate(t, sc, CandidatesSpec{Standard: &StandardSpec{IncludeLiu: true, IncludeBouguerra: true}})
	if _, ok := ev.Skipped["Liu"]; !ok {
		t.Error("Liu not reported as skipped")
	}
	for _, name := range ev.Order {
		if name == "Liu" {
			t.Error("skipped policy appears in results order")
		}
	}
}

func TestStandardCandidatesDPMakespanNeedsAggregableLaw(t *testing.T) {
	sc := quickScenario(dist.NewEmpirical([]float64{5000, 9000, 13000}))
	std := StandardSpec{DPMakespanQuanta: 30, DPNextFailureQuanta: 30}
	dpMakespan := func(sc harness.Scenario) harness.Candidate {
		t.Helper()
		cands, err := std.Build(context.Background(), engine.Default(), sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if c.Name == "DPMakespan" {
				return c
			}
		}
		t.Fatal("no DPMakespan candidate")
		return harness.Candidate{}
	}
	// Single unit: the empirical law is fine (no aggregation needed).
	if c := dpMakespan(sc); c.SkipReason != "" {
		t.Errorf("DPMakespan should run on a single empirical unit, skipped: %s", c.SkipReason)
	}
	// Many units: DPMakespan plans on the aggregated macro-processor law,
	// which an empirical law has no closed form for.
	sc.Spec.PTotal = 4
	sc.P = 4
	if c := dpMakespan(sc); c.SkipReason == "" {
		t.Error("DPMakespan should be skipped on 4 empirical units")
	}
}

func TestPeriodVariationUShape(t *testing.T) {
	// The Appendix A sweep: fixed periods at base*2^f beside the standard
	// set, which defines the per-trace reference.
	sc := quickScenario(dist.NewExponentialMean(4000))
	sc.Traces = 30
	d, err := sc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	base, err := harness.BasePeriod(d)
	if err != nil {
		t.Fatal(err)
	}
	factors := []float64{-4, -2, 0, 2, 4}
	cs := CandidatesSpec{Standard: &StandardSpec{}}
	for _, f := range factors {
		cs.Policies = append(cs.Policies, PolicySpec{
			Kind:   "period",
			Name:   fmt.Sprintf("PeriodVar[%+.2f]", f),
			Period: math.Min(base*math.Pow(2, f), d.WorkP),
		})
	}
	ev := evaluate(t, sc, cs)
	deg := make([]float64, len(factors))
	for i, ps := range cs.Policies {
		deg[i] = ev.Degradation[ps.Name].Mean
	}
	// The sweep must be U-shaped around factor 0: extremes worse.
	if deg[0] <= deg[2] || deg[4] <= deg[2] {
		t.Errorf("no U-shape: %v", deg)
	}
}

func TestEvaluateWeibullDPNextFailureWins(t *testing.T) {
	// The headline qualitative result (§5.2.2, Figure 4 / Table 4): on a
	// large platform with Weibull k=0.7 failures, DPNextFailure beats the
	// MTBF-based periodic heuristics. This scaled-down version uses fewer
	// traces but must preserve the ordering.
	sc := petascaleScenario("weibull-win", 0.7, 12, 42)
	ev := evaluate(t, sc, CandidatesSpec{Standard: &StandardSpec{
		DPNextFailureQuanta: 120, IncludeLiu: true, IncludeBouguerra: true,
	}})
	dpnf := ev.Degradation["DPNextFailure"].Mean
	for _, name := range []string{"Young", "DalyLow", "DalyHigh", "OptExp"} {
		if ev.Degradation[name].Mean <= dpnf {
			t.Errorf("%s (%.4f) should be worse than DPNextFailure (%.4f) under Weibull k=0.7",
				name, ev.Degradation[name].Mean, dpnf)
		}
	}
	// Bouguerra's rejuvenation assumption should hurt it badly (§5.2.2).
	if b, ok := ev.Degradation["Bouguerra"]; ok {
		if b.Mean <= dpnf {
			t.Errorf("Bouguerra (%.4f) should trail DPNextFailure (%.4f)", b.Mean, dpnf)
		}
	}
}
