package exper

import (
	"fmt"

	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/spec"
)

// The table experiments are fully declarative: each registers a Spec
// builder, and Run executes that spec through RunSpec. The cmd tools dump
// the same specs with -dump-spec, so a checked-in spec file reproduces the
// flag-driven output byte-for-byte.

func init() {
	register(Experiment{
		ID:    "table2",
		Title: "Table 2: degradation from best, single processor, Exponential failures",
		Spec:  func(p Params) *spec.ExperimentSpec { return singleProcTableSpec(p, false) },
	})
	register(Experiment{
		ID:    "table3",
		Title: "Table 3: degradation from best, single processor, Weibull (k=0.7) failures",
		Spec:  func(p Params) *spec.ExperimentSpec { return singleProcTableSpec(p, true) },
	})
	register(Experiment{
		ID:    "table4",
		Title: "Table 4: degradation from best, 45,208 processors, Weibull (k=0.7) failures",
		Spec:  table4Spec,
	})
	register(Experiment{
		ID:    "spares",
		Title: "§5.2.2: failures per run on the Table 4 scenario (spare processor sizing)",
		Spec:  sparesSpec,
	})
}

// periodLBSpec declares the §4.1 period search at the mode's size: the
// laptop-scale defaults in quick mode, the paper's grid with 1,000 traces
// in full mode.
func periodLBSpec(p Params) *spec.PeriodLBSpec {
	cfg := harness.DefaultPeriodLBConfig()
	if p.Full {
		cfg.EvalTraces = 1000
		cfg.GeometricSteps = 60
		cfg.LinearSteps = 180
	}
	if p.PeriodLBTraces > 0 {
		cfg.EvalTraces = p.PeriodLBTraces
	}
	return &spec.PeriodLBSpec{
		EvalTraces:     cfg.EvalTraces,
		GeometricSteps: cfg.GeometricSteps,
		LinearSteps:    cfg.LinearSteps,
		SeedOffset:     cfg.SeedOffset,
	}
}

// singleProcTableSpec declares Table 2 (Exponential) or Table 3 (Weibull):
// one cell per MTBF, streamed so the hour table renders the moment it
// completes while the day/week scenarios still run.
func singleProcTableSpec(p Params, weibull bool) *spec.ExperimentSpec {
	traces := p.traces(24, 600)
	law := "Exponential"
	name := "table2"
	if weibull {
		law = "Weibull(k=0.7)"
		name = "table3"
	}
	var cells []spec.ScenarioSpec
	for _, mtbf := range []float64{platform.Hour, platform.Day, platform.Week} {
		cell := singleProcCellSpec(mtbf, weibull, traces, p.seed())
		cell.Title = fmt.Sprintf("Single processor, %s, MTBF = %s, W = 20 days, C=R=600s, D=60s (%d traces)",
			law, humanDuration(mtbf), traces)
		cells = append(cells, cell)
	}
	return &spec.ExperimentSpec{
		Name:  name,
		Cells: cells,
		Candidates: spec.CandidatesSpec{Standard: &spec.StandardSpec{
			DPNextFailureQuanta: p.quantaOr(60, 150),
			DPMakespanQuanta:    p.quantaOr(600, 1500),
			IncludeLiu:          true,
			IncludeBouguerra:    true,
			PeriodLB:            periodLBSpec(p),
		}},
	}
}

// singleProcCellSpec declares one Table 2/3 cell: a single processor with
// the given MTBF, the law's mean inherited from the platform.
func singleProcCellSpec(mtbf float64, weibull bool, traces int, seed uint64) spec.ScenarioSpec {
	d := spec.DistSpec{Family: "exponential"}
	if weibull {
		d = spec.DistSpec{Family: "weibull", Shape: 0.7}
	}
	return spec.ScenarioSpec{
		Name:     fmt.Sprintf("1proc-mtbf=%gh", mtbf/platform.Hour),
		Platform: spec.PlatformRef{Preset: "oneproc", MTBF: mtbf},
		P:        1,
		Dist:     d,
		// The paper uses a 1-year horizon for single-processor runs; a
		// 20-day job with an MTBF of one hour runs ~45 days in expectation,
		// so we keep a 2-year margin to avoid trace truncation.
		Horizon: 2 * platform.Year,
		Start:   0,
		Traces:  traces,
		Seed:    seed,
	}
}

// table4ScenarioSpec is the §5.2.2 headline configuration.
func table4ScenarioSpec(name, title string, traces int, seed uint64) spec.ScenarioSpec {
	return spec.ScenarioSpec{
		Name:     name,
		Title:    title,
		Platform: spec.PlatformRef{Preset: "petascale"},
		P:        45208,
		Dist:     spec.DistSpec{Family: "weibull", Shape: 0.7}, // mean = the 125-year MTBF
		Horizon:  11 * platform.Year,
		Start:    platform.Year,
		Traces:   traces,
		Seed:     seed,
	}
}

func table4Spec(p Params) *spec.ExperimentSpec {
	traces := p.traces(16, 600)
	title := fmt.Sprintf("45,208 processors, Weibull k=0.7, MTBF 125y, embarrassingly parallel, constant C=R=600s (%d traces)", traces)
	return &spec.ExperimentSpec{
		Name:  "table4",
		Cells: []spec.ScenarioSpec{table4ScenarioSpec("table4", title, traces, p.seed())},
		Candidates: spec.CandidatesSpec{Standard: &spec.StandardSpec{
			DPNextFailureQuanta: p.quantaOr(120, 200),
			IncludeLiu:          true,
			IncludeBouguerra:    true,
			PeriodLB:            periodLBSpec(p),
		}},
	}
}

func sparesSpec(p Params) *spec.ExperimentSpec {
	traces := p.traces(16, 600)
	title := fmt.Sprintf("Failures per run on the Table 4 scenario (%d traces); the paper reports avg 38.0, max 66 for DPNextFailure", traces)
	return &spec.ExperimentSpec{
		Name:  "spares",
		Table: "spares",
		Cells: []spec.ScenarioSpec{table4ScenarioSpec("table4", title, traces, p.seed())},
		Candidates: spec.CandidatesSpec{Standard: &spec.StandardSpec{
			DPNextFailureQuanta: p.quantaOr(120, 200),
		}},
	}
}

func humanDuration(sec float64) string {
	switch {
	case sec >= platform.Week:
		return fmt.Sprintf("%g week(s)", sec/platform.Week)
	case sec >= platform.Day:
		return fmt.Sprintf("%g day(s)", sec/platform.Day)
	default:
		return fmt.Sprintf("%g hour(s)", sec/platform.Hour)
	}
}
