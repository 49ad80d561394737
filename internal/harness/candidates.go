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
