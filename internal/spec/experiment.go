package spec

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/harness"
)

// PeriodLBSpec declares the §4.1 numerical period search that produces the
// PeriodLB candidate. Zero fields inherit the defaults of
// harness.DefaultPeriodLBConfig.
type PeriodLBSpec struct {
	EvalTraces     int    `json:"evalTraces,omitempty"`
	GeometricSteps int    `json:"geometricSteps,omitempty"`
	LinearSteps    int    `json:"linearSteps,omitempty"`
	SeedOffset     uint64 `json:"seedOffset,omitempty"`
}

// validate rejects nonsensical values that Config would otherwise
// silently replace with defaults.
func (s PeriodLBSpec) validate() error {
	switch {
	case s.EvalTraces < 0:
		return fmt.Errorf("spec: periodLB evalTraces must be >= 0, got %d", s.EvalTraces)
	case s.GeometricSteps < 0:
		return fmt.Errorf("spec: periodLB geometricSteps must be >= 0, got %d", s.GeometricSteps)
	case s.LinearSteps < 0:
		return fmt.Errorf("spec: periodLB linearSteps must be >= 0, got %d", s.LinearSteps)
	}
	return nil
}

// Config resolves the search configuration.
func (s PeriodLBSpec) Config() harness.PeriodLBConfig {
	cfg := harness.DefaultPeriodLBConfig()
	if s.EvalTraces > 0 {
		cfg.EvalTraces = s.EvalTraces
	}
	if s.GeometricSteps > 0 {
		cfg.GeometricSteps = s.GeometricSteps
	}
	if s.LinearSteps > 0 {
		cfg.LinearSteps = s.LinearSteps
	}
	if s.SeedOffset != 0 {
		cfg.SeedOffset = s.SeedOffset
	}
	return cfg
}

// StandardSpec declares the paper's standard policy set (§4.1) as
// registered policy kinds. Nothing is defaulted, so a dumped spec states
// exactly what ran.
type StandardSpec struct {
	// DPNextFailureQuanta is the Algorithm 2 resolution (0 disables).
	DPNextFailureQuanta int `json:"dpNextFailureQuanta,omitempty"`
	// DPMakespanQuanta is the Algorithm 1 resolution (0 disables).
	DPMakespanQuanta int `json:"dpMakespanQuanta,omitempty"`
	// IncludeLiu and IncludeBouguerra gate the reconstructions.
	IncludeLiu       bool `json:"includeLiu,omitempty"`
	IncludeBouguerra bool `json:"includeBouguerra,omitempty"`
	// PeriodLB, when set, runs the numerical period search and enters the
	// winning fixed period as the PeriodLB candidate.
	PeriodLB *PeriodLBSpec `json:"periodLB,omitempty"`
}

// Build compiles the standard set against a compiled scenario, with the
// paper's skip rules (Liu's infeasible schedules, DPMakespan on a law it
// cannot aggregate). It is CandidatesSpec.Build for the standard set
// alone.
func (std StandardSpec) Build(ctx context.Context, eng *engine.Engine, sc harness.Scenario) ([]harness.Candidate, error) {
	return CandidatesSpec{Standard: &std}.Build(ctx, eng, sc)
}

// policies expands the standard set into registered policy kinds, in the
// order the paper's tables list them: young, dalylow, dalyhigh, optexp,
// bouguerra, liu, PeriodLB (a "period" policy at the searched period),
// dpnextfailure, dpmakespan.
func (std StandardSpec) policies(ctx context.Context, eng *engine.Engine, sc harness.Scenario) ([]PolicySpec, error) {
	out := []PolicySpec{{Kind: "young"}, {Kind: "dalylow"}, {Kind: "dalyhigh"}, {Kind: "optexp"}}
	if std.IncludeBouguerra {
		out = append(out, PolicySpec{Kind: "bouguerra"})
	}
	if std.IncludeLiu {
		out = append(out, PolicySpec{Kind: "liu"})
	}
	if std.PeriodLB != nil {
		if err := std.PeriodLB.validate(); err != nil {
			return nil, err
		}
		period, err := harness.SearchPeriodLB(ctx, eng, sc, std.PeriodLB.Config())
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: PeriodLB search: %w", sc.Name, err)
		}
		out = append(out, PolicySpec{Kind: "period", Name: "PeriodLB", Period: period})
	}
	if std.DPNextFailureQuanta > 0 {
		out = append(out, PolicySpec{Kind: "dpnextfailure", Quanta: std.DPNextFailureQuanta})
	}
	if std.DPMakespanQuanta > 0 {
		out = append(out, PolicySpec{Kind: "dpmakespan", Quanta: std.DPMakespanQuanta})
	}
	return out, nil
}

// CandidatesSpec declares a cell's policy set: the standard set, explicit
// extra policies, or both (standard first, extras after, in order).
type CandidatesSpec struct {
	Standard *StandardSpec `json:"standard,omitempty"`
	Policies []PolicySpec  `json:"policies,omitempty"`
}

// Validate checks the candidate set's structure without a scenario:
// presence, registered policy kinds, and statically checkable parameters.
// It lets request-validating callers (the serving layer) classify
// configuration mistakes before any computation; scenario-dependent
// problems still surface at Build time.
func (cs CandidatesSpec) Validate() error {
	if cs.Standard == nil && len(cs.Policies) == 0 {
		return fmt.Errorf("spec: candidate set is empty (need standard and/or policies)")
	}
	if std := cs.Standard; std != nil && std.PeriodLB != nil {
		if err := std.PeriodLB.validate(); err != nil {
			return err
		}
	}
	for _, ps := range cs.Policies {
		if !policyKindRegistered(ps.Kind) {
			return fmt.Errorf("spec: unknown policy kind %q (have: %v)", ps.Kind, PolicyKinds())
		}
		if ps.Kind == "period" && !(ps.Period > 0) {
			return fmt.Errorf("spec: period policy needs a positive period, got %v", ps.Period)
		}
	}
	return nil
}

// Build compiles the candidate set against a compiled scenario: every
// policy, standard or explicit, through its registered builder. The
// policies share one engine scope (eng's, or one of their own when eng is
// not one), so DPNextFailure runs share their post-failure grids.
func (cs CandidatesSpec) Build(ctx context.Context, eng *engine.Engine, sc harness.Scenario) ([]harness.Candidate, error) {
	if cs.Standard == nil && len(cs.Policies) == 0 {
		return nil, fmt.Errorf("spec: scenario %q has no candidates (need standard and/or policies)", sc.Name)
	}
	eng = eng.Scope()
	d, err := sc.Derive()
	if err != nil {
		return nil, err
	}
	var specs []PolicySpec
	if cs.Standard != nil {
		if specs, err = cs.Standard.policies(ctx, eng, sc); err != nil {
			return nil, err
		}
	}
	specs = append(specs, cs.Policies...)
	env := PolicyEnv{Engine: eng, Scenario: sc, Derived: d}
	out := make([]harness.Candidate, 0, len(specs))
	for _, ps := range specs {
		// The DP builds are the expensive steps; honor cancellation
		// before committing to each.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cand, err := ps.Candidate(ctx, env)
		if err != nil {
			return nil, fmt.Errorf("spec: scenario %q: %w", sc.Name, err)
		}
		out = append(out, cand)
	}
	return out, nil
}

// GridSpec declares a sweep: the base scenario is replicated once per
// point of the cartesian product of the non-empty axes. Expansion order is
// fixed — candidate sets, then p, then mtbf, then shape, then overhead,
// then work, innermost last — so cell indices (and therefore output
// order) are part of the spec's contract.
type GridSpec struct {
	// P sweeps the enrolled processor count.
	P []int `json:"p,omitempty"`
	// MTBF sweeps the platform per-unit MTBF in seconds; laws with an
	// inherited mean follow it (Tables 2-3).
	MTBF []float64 `json:"mtbf,omitempty"`
	// Shape sweeps the failure-law shape parameter (Figure 5).
	Shape []float64 `json:"shape,omitempty"`
	// Overhead sweeps the checkpoint-cost model.
	Overhead []string `json:"overhead,omitempty"`
	// Work sweeps the parallel work model (Appendix D).
	Work []WorkSpec `json:"work,omitempty"`
	// CandidateSets sweeps whole policy sets.
	CandidateSets []CandidatesSpec `json:"candidateSets,omitempty"`
}

// ExperimentSpec is a complete declarative experiment: scenarios (explicit
// cells, or a base scenario with an optional grid), the candidate set, and
// the table layout. It is the unit the cmd tools load, dump and execute.
type ExperimentSpec struct {
	// Name identifies the experiment.
	Name string `json:"name"`
	// Title is the human-readable headline printed above the experiment.
	Title string `json:"title,omitempty"`
	// Table selects the rendering: "degradation" (default, Tables 2-4),
	// "spares" (the §5.2.2 failures-per-run layout), or "series" (one
	// pivoted curve table over all cells, like the paper's figures).
	Table string `json:"table,omitempty"`
	// Series configures the "series" rendering.
	Series *SeriesSpec `json:"series,omitempty"`
	// Scenario is the base scenario (mutually exclusive with Cells).
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// Grid sweeps the base scenario (requires Scenario).
	Grid *GridSpec `json:"grid,omitempty"`
	// Cells lists pre-expanded scenarios with their own names and titles.
	Cells []ScenarioSpec `json:"cells,omitempty"`
	// Candidates is the policy set evaluated in every cell.
	Candidates CandidatesSpec `json:"candidates"`
}

// SeriesSpec configures the "series" table layout: every cell contributes
// one X position, and each policy's average degradation forms a curve —
// the shape of the paper's figure data.
type SeriesSpec struct {
	// Title is the rendered table title.
	Title string `json:"title,omitempty"`
	// XLabel names the X axis column.
	XLabel string `json:"xLabel,omitempty"`
	// X gives each cell's X value, in expansion order (default: the cell
	// index). Length must match the cell count.
	X []float64 `json:"x,omitempty"`
}

// Cell is one expanded (scenario × candidate-set) point of an experiment.
type Cell struct {
	// Index is the cell's position in the experiment's deterministic
	// expansion order.
	Index int
	// Scenario is the cell's declarative scenario.
	Scenario ScenarioSpec
	// Candidates is the cell's policy set.
	Candidates CandidatesSpec
}

// Validate checks the experiment's structure without compiling cells.
func (es *ExperimentSpec) Validate() error {
	if es.Name == "" {
		return fmt.Errorf("spec: experiment needs a name")
	}
	switch es.Table {
	case "", "degradation", "spares":
	case "series":
		if es.Series == nil {
			return fmt.Errorf("spec: experiment %q: table layout %q needs a series section", es.Name, es.Table)
		}
	default:
		return fmt.Errorf("spec: experiment %q: unknown table layout %q (degradation, spares, series)", es.Name, es.Table)
	}
	if es.Scenario != nil && len(es.Cells) > 0 {
		return fmt.Errorf("spec: experiment %q sets both scenario and cells", es.Name)
	}
	if es.Scenario == nil && len(es.Cells) == 0 {
		return fmt.Errorf("spec: experiment %q has no scenario and no cells", es.Name)
	}
	if es.Grid != nil && es.Scenario == nil {
		return fmt.Errorf("spec: experiment %q has a grid but no base scenario", es.Name)
	}
	return nil
}

// Expand produces the experiment's cells in deterministic order.
func (es *ExperimentSpec) Expand() ([]Cell, error) {
	if err := es.Validate(); err != nil {
		return nil, err
	}
	if len(es.Cells) > 0 {
		cells := make([]Cell, len(es.Cells))
		for i, sc := range es.Cells {
			cells[i] = Cell{Index: i, Scenario: sc, Candidates: es.Candidates}
		}
		return cells, nil
	}
	base := *es.Scenario
	if base.Name == "" {
		base.Name = es.Name
	}
	g := es.Grid
	if g == nil {
		return []Cell{{Scenario: base, Candidates: es.Candidates}}, nil
	}

	// Each axis contributes its values, or a single "keep the base" slot.
	candSets := g.CandidateSets
	if len(candSets) == 0 {
		candSets = []CandidatesSpec{es.Candidates}
	}
	type mod struct {
		suffix string
		apply  func(*ScenarioSpec)
	}
	axis := func(n int, mk func(i int) mod) []mod {
		if n == 0 {
			return []mod{{}}
		}
		out := make([]mod, n)
		for i := 0; i < n; i++ {
			out[i] = mk(i)
		}
		return out
	}
	ps := axis(len(g.P), func(i int) mod {
		v := g.P[i]
		return mod{fmt.Sprintf("p=%d", v), func(s *ScenarioSpec) { s.P = v }}
	})
	mtbfs := axis(len(g.MTBF), func(i int) mod {
		v := g.MTBF[i]
		return mod{fmt.Sprintf("mtbf=%g", v), func(s *ScenarioSpec) {
			s.Platform.MTBF, s.Platform.MTBFYears = v, 0
		}}
	})
	shapes := axis(len(g.Shape), func(i int) mod {
		v := g.Shape[i]
		return mod{fmt.Sprintf("shape=%g", v), func(s *ScenarioSpec) { s.Dist.Shape = v }}
	})
	overheads := axis(len(g.Overhead), func(i int) mod {
		v := g.Overhead[i]
		return mod{"overhead=" + v, func(s *ScenarioSpec) { s.Overhead = v }}
	})
	works := axis(len(g.Work), func(i int) mod {
		v := g.Work[i]
		suffix := "work=" + v.Model
		if v.Gamma != 0 {
			suffix = fmt.Sprintf("work=%s(%g)", v.Model, v.Gamma)
		}
		return mod{suffix, func(s *ScenarioSpec) { w := v; s.Work = &w }}
	})

	var cells []Cell
	for ci, cands := range candSets {
		candSuffix := ""
		if len(g.CandidateSets) > 0 {
			candSuffix = fmt.Sprintf("cands=%d", ci)
		}
		for _, pm := range ps {
			for _, mm := range mtbfs {
				for _, sm := range shapes {
					for _, om := range overheads {
						for _, wm := range works {
							sc := base
							name := sc.Name
							for _, m := range []mod{{candSuffix, nil}, pm, mm, sm, om, wm} {
								if m.apply != nil {
									m.apply(&sc)
								}
								if m.suffix != "" {
									name += "[" + m.suffix + "]"
								}
							}
							sc.Name = name
							sc.Title = "" // grid cells synthesize titles at render time
							cells = append(cells, Cell{Index: len(cells), Scenario: sc, Candidates: cands})
						}
					}
				}
			}
		}
	}
	return cells, nil
}
