package harness

import (
	"context"
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/trace"
)

// PeriodLBConfig tunes the numerical period search of §4.1: the paper
// multiplies and divides OptExp's period by (1 + 0.05 i), i in 1..180, and
// by 1.1^j, j in 1..60, evaluating each candidate on 1,000 random
// scenarios. The defaults here are scaled down; raise them for
// paper-fidelity runs.
type PeriodLBConfig struct {
	// EvalTraces is the number of independent traces per candidate period.
	EvalTraces int
	// GeometricSteps is j's range for the 1.1^j grid.
	GeometricSteps int
	// LinearSteps is i's range for the (1+0.05i) refinement grid.
	LinearSteps int
	// SeedOffset decorrelates the search traces from the evaluation
	// traces.
	SeedOffset uint64
}

// DefaultPeriodLBConfig returns a laptop-scale search configuration.
func DefaultPeriodLBConfig() PeriodLBConfig {
	return PeriodLBConfig{
		EvalTraces:     24,
		GeometricSteps: 16,
		LinearSteps:    10,
		SeedOffset:     0x5eed0ff5e7,
	}
}

// SearchPeriodLB finds the best fixed checkpointing period for the
// scenario with the default engine.
func SearchPeriodLB(ctx context.Context, sc Scenario, cfg PeriodLBConfig) (float64, error) {
	return SearchPeriodLBWith(ctx, engine.Default(), sc, cfg)
}

// SearchPeriodLBWith finds the best fixed checkpointing period for the
// scenario by numerical search around OptExp's period, evaluating every
// candidate period on the same pre-generated traces (paired search).
// Candidate periods of each refinement phase are scored concurrently on
// the engine's worker pool; the winner is then selected by a sequential
// scan in the same order (and with the same strict-improvement tie
// breaking) as the original sequential search, so the result is identical
// for every worker count.
func SearchPeriodLBWith(ctx context.Context, eng *engine.Engine, sc Scenario, cfg PeriodLBConfig) (float64, error) {
	d, err := sc.Derive()
	if err != nil {
		return 0, err
	}
	base, err := basePeriod(d)
	if err != nil {
		return 0, err
	}
	if cfg.EvalTraces <= 0 {
		return 0, fmt.Errorf("harness: PeriodLB needs eval traces")
	}

	// Pre-generate the shared evaluation traces (through the engine's
	// scope, so repeated searches on the same scenario in one scope reuse
	// them).
	searchSc := sc
	searchSc.Seed ^= cfg.SeedOffset
	sets := make([]*trace.Set, cfg.EvalTraces)
	for i := range sets {
		sets[i] = eng.GenerateTraces(ctx, sc.Dist, d.Units, sc.Horizon, sc.Spec.D, searchSc.TraceSeed(i))
	}
	job := d.Job(sc.Start)

	score := func(period float64) float64 {
		if !(period > 0) {
			return math.Inf(1)
		}
		pol := policy.NewPeriodic("search", period)
		var total float64
		for _, ts := range sets {
			res, err := sim.Run(ctx, job, pol, ts)
			if err != nil {
				return math.Inf(1)
			}
			total += res.Makespan
		}
		return total
	}

	// scorePhase scores every valid candidate concurrently, then picks the
	// first strict improvement in candidate order.
	valid := func(period float64) bool { return period > 0 && period <= d.WorkP }
	bestPeriod, bestScore := base, score(base)
	scorePhase := func(periods []float64) {
		scores, _ := engine.Run(ctx, eng, len(periods), func(i int) (float64, error) {
			if !valid(periods[i]) {
				return math.Inf(1), nil
			}
			return score(periods[i]), nil
		})
		for i, p := range periods {
			if !valid(p) {
				continue
			}
			if scores[i] < bestScore {
				bestScore, bestPeriod = scores[i], p
			}
		}
	}

	geo := make([]float64, 0, 2*cfg.GeometricSteps)
	for j := 1; j <= cfg.GeometricSteps; j++ {
		f := math.Pow(1.1, float64(j))
		geo = append(geo, base*f, base/f)
	}
	scorePhase(geo)
	coarse := bestPeriod
	lin := make([]float64, 0, 2*cfg.LinearSteps)
	for i := 1; i <= cfg.LinearSteps; i++ {
		f := 1 + 0.05*float64(i)
		lin = append(lin, coarse*f, coarse/f)
	}
	scorePhase(lin)
	// A cancelled search scores interrupted runs as +Inf; never let such a
	// phase pick a winner.
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return bestPeriod, nil
}

// basePeriod returns OptExp's period for the derived scenario, falling
// back to Young's if the Lambert evaluation fails.
func basePeriod(d Derived) (float64, error) {
	if opt, err := policy.NewOptExp(d.WorkP, d.PlatformRate, d.C); err == nil {
		return opt.Period(), nil
	}
	young := policy.NewYoung(d.C, d.PlatformMTBF)
	if !(young.Period() > 0) {
		return 0, fmt.Errorf("harness: cannot derive a base period")
	}
	return young.Period(), nil
}

// PeriodVariationPoint is one point of the Appendix A/B period-sweep
// figures: the average degradation of the fixed period base*2^Factor.
type PeriodVariationPoint struct {
	Log2Factor  float64
	Degradation Stats
}

// PeriodVariation reproduces the PeriodVariation curves with the default
// engine.
func PeriodVariation(ctx context.Context, sc Scenario, cfg CandidateConfig, log2Factors []float64) ([]PeriodVariationPoint, *Evaluation, error) {
	return PeriodVariationWith(ctx, engine.Default(), sc, cfg, log2Factors)
}

// PeriodVariationWith reproduces the PeriodVariation curves: it evaluates
// fixed-period policies at base*2^f for the given f grid, together with
// the standard candidate set (which defines the per-trace reference), and
// returns one point per factor.
func PeriodVariationWith(ctx context.Context, eng *engine.Engine, sc Scenario, cfg CandidateConfig, log2Factors []float64) ([]PeriodVariationPoint, *Evaluation, error) {
	d, err := sc.Derive()
	if err != nil {
		return nil, nil, err
	}
	base, err := basePeriod(d)
	if err != nil {
		return nil, nil, err
	}
	cands, err := StandardCandidatesWith(ctx, eng, sc, cfg)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(log2Factors))
	for i, f := range log2Factors {
		period := base * math.Pow(2, f)
		if period > d.WorkP {
			period = d.WorkP
		}
		names[i] = fmt.Sprintf("PeriodVar[%+.2f]", f)
		cands = append(cands, Candidate{
			Name: names[i],
			New: func(p float64, n string) func() (sim.Policy, error) {
				return func() (sim.Policy, error) { return policy.NewPeriodic(n, p), nil }
			}(period, names[i]),
		})
	}
	ev, err := EvaluateWith(ctx, eng, sc, cands)
	if err != nil {
		return nil, nil, err
	}
	points := make([]PeriodVariationPoint, len(log2Factors))
	for i, f := range log2Factors {
		points[i] = PeriodVariationPoint{Log2Factor: f, Degradation: ev.Degradation[names[i]]}
	}
	return points, ev, nil
}
