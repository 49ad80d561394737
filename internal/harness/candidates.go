package harness

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/sim"
)

// Candidate is one checkpointing policy entered into an evaluation. New
// must return a fresh policy instance per run (instances may carry per-run
// state); expensive shared structures (the DPMakespan table) are built
// once at candidate-construction time and captured immutably.
type Candidate struct {
	Name string
	New  func() (sim.Policy, error)
	// SkipReason, when non-empty, marks a policy that cannot produce a
	// schedule for this scenario (e.g. Liu's infeasible frequency
	// schedule); the evaluation reports no result for it, like the
	// paper's incomplete figure curves.
	SkipReason string
}

// CandidateConfig tunes the standard policy set.
type CandidateConfig struct {
	// DPNextFailureQuanta is the resolution of the DPNextFailure planning
	// DP (0 disables the policy).
	DPNextFailureQuanta int
	// DPMakespanQuanta is the resolution of the DPMakespan table (0
	// disables the policy; the paper itself drops DPMakespan for Weibull
	// parallel jobs and for log-based failures).
	DPMakespanQuanta int
	// IncludeLiu and IncludeBouguerra gate the reconstructions (they only
	// support Exponential/Weibull laws).
	IncludeLiu       bool
	IncludeBouguerra bool
	// PeriodLBPeriod, when positive, enters a fixed-period policy named
	// PeriodLB with that period (found by SearchPeriodLB).
	PeriodLBPeriod float64
}

// DefaultCandidateConfig mirrors the paper's §4.1 policy list at a
// laptop-friendly DP resolution.
func DefaultCandidateConfig() CandidateConfig {
	return CandidateConfig{
		DPNextFailureQuanta: 150,
		DPMakespanQuanta:    0,
		IncludeLiu:          true,
		IncludeBouguerra:    true,
	}
}

// StandardCandidates builds the paper's policy set for a scenario with the
// default engine.
func StandardCandidates(ctx context.Context, sc Scenario, cfg CandidateConfig) ([]Candidate, error) {
	return StandardCandidatesWith(ctx, engine.Default(), sc, cfg)
}

// StandardCandidatesWith builds the paper's policy set for a scenario. The
// expensive shared planning structures — the DPMakespan table and the
// DPNextFailure planner — come from the engine's cache, so scenarios (or
// repeated runs) sharing a (law, job geometry, quanta) key build them once.
// The DPNextFailure instances share their post-failure survival grids
// through eng's scope, or through a scope of their own when eng is not
// one.
func StandardCandidatesWith(ctx context.Context, eng *engine.Engine, sc Scenario, cfg CandidateConfig) ([]Candidate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	eng = eng.Scope()
	d, err := sc.Derive()
	if err != nil {
		return nil, err
	}
	var out []Candidate

	static := func(p sim.Policy) func() (sim.Policy, error) {
		return func() (sim.Policy, error) { return p, nil }
	}

	// The closed-form periodic heuristics are stateless: one shared
	// instance suffices.
	out = append(out,
		Candidate{Name: "Young", New: static(policy.NewYoung(d.C, d.PlatformMTBF))},
		Candidate{Name: "DalyLow", New: static(policy.NewDalyLow(d.C, d.PlatformMTBF, d.D, d.R))},
		Candidate{Name: "DalyHigh", New: static(policy.NewDalyHigh(d.C, d.PlatformMTBF))},
	)

	if opt, err := policy.NewOptExp(d.WorkP, d.PlatformRate, d.C); err == nil {
		out = append(out, Candidate{Name: "OptExp", New: static(opt)})
	} else {
		out = append(out, Candidate{Name: "OptExp", SkipReason: err.Error()})
	}

	if cfg.IncludeBouguerra {
		if b, err := policy.NewBouguerra(d.WorkP, d.Units, sc.Dist, d.C, d.D, d.R); err == nil {
			out = append(out, Candidate{Name: "Bouguerra", New: static(b)})
		} else {
			out = append(out, Candidate{Name: "Bouguerra", SkipReason: err.Error()})
		}
	}

	if cfg.IncludeLiu {
		l, err := policy.NewLiu(d.WorkP, d.Units, sc.Dist, d.C)
		switch {
		case err != nil:
			out = append(out, Candidate{Name: "Liu", SkipReason: err.Error()})
		case !l.Feasible():
			out = append(out, Candidate{Name: "Liu", SkipReason: policy.ErrLiuInfeasible.Error()})
		default:
			// Liu carries per-run cursor state: fresh instance per run.
			out = append(out, Candidate{Name: "Liu", New: func() (sim.Policy, error) {
				return policy.NewLiu(d.WorkP, d.Units, sc.Dist, d.C)
			}})
		}
	}

	if cfg.PeriodLBPeriod > 0 {
		out = append(out, Candidate{Name: "PeriodLB", New: static(policy.NewPeriodic("PeriodLB", cfg.PeriodLBPeriod))})
	}

	if cfg.DPNextFailureQuanta > 0 {
		// One immutable planner shared by every run: its pristine-state
		// plan memo turns the per-trace initial DP solve into a lookup.
		planner := eng.DPNextFailurePlanner(ctx, sc.Dist, d.UnitMean, cfg.DPNextFailureQuanta)
		out = append(out, Candidate{Name: "DPNextFailure", New: func() (sim.Policy, error) {
			return eng.DPNextFailure(planner), nil
		}})
	}

	if cfg.DPMakespanQuanta > 0 {
		// The table build is the one expensive step; honor cancellation
		// before committing to it.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cand, err := DPMakespanCandidate(ctx, eng, sc, d, cfg.DPMakespanQuanta)
		if err != nil {
			out = append(out, Candidate{Name: "DPMakespan", SkipReason: err.Error()})
		} else {
			out = append(out, cand)
		}
	}
	return out, nil
}

// DPMakespanCandidate builds the DPMakespan candidate over the shared
// Algorithm 1 table, through the engine cache. For parallel jobs it
// follows the paper's §4.1 note: DPMakespan makes the (false) assumption
// that all processors are rejuvenated after each failure, i.e. it plans on
// the aggregated macro-processor law. Exponential laws get a finer quantum
// (the one-dimensional DP is cheap and exact).
func DPMakespanCandidate(ctx context.Context, eng *engine.Engine, sc Scenario, d Derived, quanta int) (Candidate, error) {
	macro := sc.Dist
	if d.Units > 1 {
		var err error
		macro, err = policy.AggregateRenewal(sc.Dist, d.Units)
		if err != nil {
			return Candidate{}, fmt.Errorf("harness: DPMakespan needs an aggregable law: %w", err)
		}
	}
	if _, memoryless := macro.(dist.Exponential); memoryless {
		// The exponential DP is one-dimensional and exact, so a much finer
		// quantum costs next to nothing and avoids resolution starvation
		// when the optimal chunk is small relative to W.
		quanta *= 8
		if quanta > 8000 {
			quanta = 8000
		}
	}
	table, err := eng.DPMakespanTable(ctx, macro, d.WorkP, d.C, d.R, d.D, 0, quanta)
	if err != nil {
		return Candidate{}, err
	}
	return Candidate{Name: "DPMakespan", New: func() (sim.Policy, error) {
		return policy.NewDPMakespan(table), nil
	}}, nil
}

// ErrNoCandidates reports an evaluation with zero runnable policies.
var ErrNoCandidates = errors.New("harness: no runnable candidates")
