package spec

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/policy"
	"repro/internal/sim"
)

// PolicySpec is the serializable description of one checkpointing policy:
// a registered kind plus its parameters.
type PolicySpec struct {
	// Kind is the registered policy kind ("young", "dalylow", "dalyhigh",
	// "optexp", "bouguerra", "liu", "period", "dpnextfailure",
	// "dpmakespan").
	Kind string `json:"kind"`
	// Name overrides the display name (default: the kind's canonical
	// name).
	Name string `json:"name,omitempty"`
	// Period is the fixed checkpointing period in seconds (kind "period").
	Period float64 `json:"period,omitempty"`
	// Quanta is the dynamic-programming resolution (kinds "dpnextfailure"
	// and "dpmakespan"; defaults to 150).
	Quanta int `json:"quanta,omitempty"`
	// NExact and NApprox tune the §3.3 state approximation (kind
	// "dpnextfailure"; both zero keeps the paper's 10/100).
	NExact  int `json:"nExact,omitempty"`
	NApprox int `json:"nApprox,omitempty"`
	// CoarseQuanta, when positive, opts kind "dpnextfailure" into the
	// approximate coarse re-planning mode: post-failure re-plans solve at
	// this resolution (must be in [2, quanta]) instead of Quanta. Zero
	// keeps the exact solver for every re-plan.
	CoarseQuanta int `json:"coarseQuanta,omitempty"`
}

// PolicyEnv is the scenario context a policy builder compiles against.
type PolicyEnv struct {
	// Engine supplies the worker pool and the artifact cache for shared
	// planning structures (never nil once built by the runner).
	Engine *engine.Engine
	// Scenario is the compiled scenario the policy will run on.
	Scenario harness.Scenario
	// Derived holds the scenario's derived job-level quantities.
	Derived harness.Derived
}

// PolicyBuilder compiles a policy spec into an evaluation candidate.
// Builders report configurations that cannot produce a schedule through
// Candidate.SkipReason (like the paper's incomplete figure curves) and
// reserve errors for invalid specs.
type PolicyBuilder func(ctx context.Context, ps PolicySpec, env PolicyEnv) (harness.Candidate, error)

var policyRegistry = struct {
	sync.Mutex
	byKind map[string]PolicyBuilder
}{byKind: map[string]PolicyBuilder{}}

// RegisterPolicy adds a policy kind to the registry. Duplicates panic.
func RegisterPolicy(kind string, b PolicyBuilder) {
	policyRegistry.Lock()
	defer policyRegistry.Unlock()
	if kind == "" || b == nil {
		panic("spec: RegisterPolicy needs a kind and a builder")
	}
	if _, dup := policyRegistry.byKind[kind]; dup {
		panic(fmt.Sprintf("spec: duplicate policy kind %q", kind))
	}
	policyRegistry.byKind[kind] = b
}

// PolicyKinds returns the registered policy kinds, sorted.
func PolicyKinds() []string {
	policyRegistry.Lock()
	defer policyRegistry.Unlock()
	out := make([]string, 0, len(policyRegistry.byKind))
	for kind := range policyRegistry.byKind {
		out = append(out, kind)
	}
	sort.Strings(out)
	return out
}

// policyKindRegistered reports whether the kind has a registered builder.
func policyKindRegistered(kind string) bool {
	policyRegistry.Lock()
	defer policyRegistry.Unlock()
	_, ok := policyRegistry.byKind[kind]
	return ok
}

// Candidate compiles the policy spec against the scenario environment.
func (ps PolicySpec) Candidate(ctx context.Context, env PolicyEnv) (harness.Candidate, error) {
	policyRegistry.Lock()
	b, ok := policyRegistry.byKind[ps.Kind]
	policyRegistry.Unlock()
	if !ok {
		return harness.Candidate{}, fmt.Errorf("spec: unknown policy kind %q (have: %v)", ps.Kind, PolicyKinds())
	}
	cand, err := b(ctx, ps, env)
	if err != nil {
		return harness.Candidate{}, err
	}
	if ps.Name != "" {
		cand.Name = ps.Name
	}
	return cand, nil
}

// name returns the display name: the explicit override or the default.
func (ps PolicySpec) name(def string) string {
	if ps.Name != "" {
		return ps.Name
	}
	return def
}

// quantaOr returns the DP resolution with a default.
func (ps PolicySpec) quantaOr(def int) int {
	if ps.Quanta > 0 {
		return ps.Quanta
	}
	return def
}

// static wraps one shared stateless policy instance.
func static(p sim.Policy) func() (sim.Policy, error) {
	return func() (sim.Policy, error) { return p, nil }
}

// skipOr turns a constructor error into a skipped candidate, matching the
// standard-candidate behavior for policies that cannot schedule a
// scenario.
func skipOr(name string, p sim.Policy, err error) (harness.Candidate, error) {
	if err != nil {
		return harness.Candidate{Name: name, SkipReason: err.Error()}, nil
	}
	return harness.Candidate{Name: name, New: static(p)}, nil
}

func init() {
	RegisterPolicy("young", func(_ context.Context, ps PolicySpec, env PolicyEnv) (harness.Candidate, error) {
		d := env.Derived
		return harness.Candidate{Name: ps.name("Young"), New: static(policy.NewYoung(d.C, d.PlatformMTBF))}, nil
	})
	RegisterPolicy("dalylow", func(_ context.Context, ps PolicySpec, env PolicyEnv) (harness.Candidate, error) {
		d := env.Derived
		return harness.Candidate{Name: ps.name("DalyLow"), New: static(policy.NewDalyLow(d.C, d.PlatformMTBF, d.D, d.R))}, nil
	})
	RegisterPolicy("dalyhigh", func(_ context.Context, ps PolicySpec, env PolicyEnv) (harness.Candidate, error) {
		d := env.Derived
		return harness.Candidate{Name: ps.name("DalyHigh"), New: static(policy.NewDalyHigh(d.C, d.PlatformMTBF))}, nil
	})
	RegisterPolicy("optexp", func(_ context.Context, ps PolicySpec, env PolicyEnv) (harness.Candidate, error) {
		d := env.Derived
		p, err := policy.NewOptExp(d.WorkP, d.PlatformRate, d.C)
		return skipOr(ps.name("OptExp"), p, err)
	})
	RegisterPolicy("bouguerra", func(_ context.Context, ps PolicySpec, env PolicyEnv) (harness.Candidate, error) {
		d := env.Derived
		p, err := policy.NewBouguerra(d.WorkP, d.Units, env.Scenario.Dist, d.C, d.D, d.R)
		return skipOr(ps.name("Bouguerra"), p, err)
	})
	RegisterPolicy("liu", func(_ context.Context, ps PolicySpec, env PolicyEnv) (harness.Candidate, error) {
		d := env.Derived
		name := ps.name("Liu")
		l, err := policy.NewLiu(d.WorkP, d.Units, env.Scenario.Dist, d.C)
		switch {
		case err != nil:
			return harness.Candidate{Name: name, SkipReason: err.Error()}, nil
		case !l.Feasible():
			return harness.Candidate{Name: name, SkipReason: policy.ErrLiuInfeasible.Error()}, nil
		}
		// Liu carries per-run cursor state: a fresh cursor per run over
		// the one schedule integrated here.
		return harness.Candidate{Name: name, New: func() (sim.Policy, error) {
			return l.NewPolicy(), nil
		}}, nil
	})
	RegisterPolicy("period", func(_ context.Context, ps PolicySpec, env PolicyEnv) (harness.Candidate, error) {
		if !(ps.Period > 0) {
			return harness.Candidate{}, fmt.Errorf("spec: period policy needs a positive period, got %v", ps.Period)
		}
		name := ps.name("Periodic")
		return harness.Candidate{Name: name, New: static(policy.NewPeriodic(name, ps.Period))}, nil
	})
	RegisterPolicy("dpnextfailure", func(ctx context.Context, ps PolicySpec, env PolicyEnv) (harness.Candidate, error) {
		d := env.Derived
		quanta := ps.quantaOr(150)
		if ps.CoarseQuanta < 0 || (ps.CoarseQuanta > 0 && (ps.CoarseQuanta < 2 || ps.CoarseQuanta > quanta)) {
			return harness.Candidate{}, fmt.Errorf("spec: dpnextfailure coarseQuanta must be in [2, quanta=%d], got %d", quanta, ps.CoarseQuanta)
		}
		var planner *policy.DPNextFailurePlanner
		if ps.NExact > 0 || ps.NApprox > 0 || ps.CoarseQuanta > 0 {
			// A field left zero keeps its paper default (10/100) — the
			// planner panics on a zero approximation size.
			nExact, nApprox := ps.NExact, ps.NApprox
			if nExact <= 0 {
				nExact = 10
			}
			if nApprox <= 0 {
				nApprox = 100
			}
			// The engine cache keys planners by (law, mean, quanta) only;
			// custom state-approximation or coarse-mode planners build
			// uncached — but still share survival grids through the
			// engine's caches.
			opts := []policy.DPNextFailureOption{
				policy.WithQuanta(quanta), policy.WithStateApprox(nExact, nApprox),
			}
			if ps.CoarseQuanta > 0 {
				opts = append(opts, policy.WithCoarseQuanta(ps.CoarseQuanta))
			}
			opts = append(opts, env.Engine.SharedGridOptions(env.Scenario.Dist)...)
			planner = policy.NewDPNextFailurePlanner(env.Scenario.Dist, d.UnitMean, opts...)
		} else {
			planner = env.Engine.DPNextFailurePlanner(ctx, env.Scenario.Dist, d.UnitMean, quanta)
		}
		return harness.Candidate{Name: ps.name("DPNextFailure"), New: func() (sim.Policy, error) {
			return env.Engine.DPNextFailure(planner), nil
		}}, nil
	})
	// "lowerbound" names the omniscient §4.1 bound so chkpt-sim specs can
	// request it; it is not a simulable policy, so the generic builder
	// refuses it (every evaluation already reports the bound).
	RegisterPolicy("lowerbound", func(_ context.Context, ps PolicySpec, _ PolicyEnv) (harness.Candidate, error) {
		return harness.Candidate{}, fmt.Errorf("spec: lowerbound is the omniscient bound, not a simulable policy; evaluations report it automatically")
	})
	RegisterPolicy("dpmakespan", func(ctx context.Context, ps PolicySpec, env PolicyEnv) (harness.Candidate, error) {
		cand, err := harness.DPMakespanCandidate(ctx, env.Engine, env.Scenario, env.Derived, ps.quantaOr(150))
		if err != nil {
			return harness.Candidate{Name: ps.name("DPMakespan"), SkipReason: err.Error()}, nil
		}
		cand.Name = ps.name(cand.Name)
		return cand, nil
	})
}
