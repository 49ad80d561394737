package exper

import (
	"context"
	"fmt"
	"io"
	"math"

	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/spec"
	"repro/internal/theory"
)

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Figure 1: platform MTBF vs processors under the two rejuvenation models",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "Figure 2: Petascale platform, Exponential failures, degradation vs processors",
		Spec:  func(p Params) *spec.ExperimentSpec { return platformFigureSpec(p, "fig2", true, 0) },
	})
	register(Experiment{
		ID:    "fig3",
		Title: "Figure 3: Exascale platform, Exponential failures, degradation vs processors",
		Spec:  func(p Params) *spec.ExperimentSpec { return platformFigureSpec(p, "fig3", false, 0) },
	})
	register(Experiment{
		ID:    "fig4",
		Title: "Figure 4: Petascale platform, Weibull (k=0.7) failures, degradation vs processors",
		Spec:  func(p Params) *spec.ExperimentSpec { return platformFigureSpec(p, "fig4", true, 0.7) },
	})
	register(Experiment{
		ID:    "fig5",
		Title: "Figure 5: degradation vs Weibull shape parameter k on 45,208 processors",
		Spec:  fig5Spec,
	})
	register(Experiment{
		ID:    "fig6",
		Title: "Figure 6: Exascale platform, Weibull (k=0.7) failures, degradation vs processors",
		Spec:  func(p Params) *spec.ExperimentSpec { return platformFigureSpec(p, "fig6", false, 0.7) },
	})
	register(Experiment{
		ID:    "fig98",
		Title: "Figure 98: makespan vs processors per application model (OptExp, Exponential)",
		Run:   runFig98,
	})
	register(Experiment{
		ID:    "fig99",
		Title: "Figure 99: makespan vs processors per application model (DPNextFailure, Weibull)",
		Run:   runFig99,
	})
}

func runFig1(ctx context.Context, w io.Writer, p Params) error {
	wb := dist.WeibullFromMeanShape(125*platform.Year, 0.7)
	const down = 60.0
	var all, single harness.Series
	all.Label = "rejuvenate-all (log2 MTBF)"
	single.Label = "single-rejuvenation (log2 MTBF)"
	for exp := 4; exp <= 22; exp += 2 {
		procs := 1 << exp
		all.X = append(all.X, float64(exp))
		single.X = append(single.X, float64(exp))
		all.Y = append(all.Y, math.Log2(theory.PlatformMTBFRejuvenateAll(wb, procs, down)))
		single.Y = append(single.Y, math.Log2(theory.PlatformMTBFSingleRejuvenation(wb.Mean(), procs, down)))
	}
	t := harness.SeriesTable(
		"Platform MTBF (log2 seconds) vs log2(processors); Weibull k=0.7, processor MTBF 125y, D=60s",
		"log2(p)", []harness.Series{all, single})
	return emit(w, p, t)
}

// platformFigureSpec declares Figures 2/3/4/6: degradation vs processors
// on the Petascale or Exascale grid, Exponential failures (shape 0) or
// Weibull ones. Each processor count is an explicit cell, whose horizon
// leaves room for its job, and the cells render as one series table.
func platformFigureSpec(p Params, id string, petascale bool, shape float64) *spec.ExperimentSpec {
	preset, plat := "petascale", platform.Petascale(125)
	grid := []int{1 << 10, 1 << 12, 1 << 14, 45208}
	if p.Full {
		grid = []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 45208}
	}
	quickTraces := 8
	if !petascale {
		preset, plat = "exascale", platform.Exascale()
		grid = []int{1 << 14, 1 << 17, 1 << 20}
		if p.Full {
			grid = []int{1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20}
		}
		quickTraces = 5
	}
	traces := p.traces(quickTraces, 600)
	law, lawName := spec.DistSpec{Family: "exponential"}, "Exponential"
	if shape > 0 {
		law, lawName = spec.DistSpec{Family: "weibull", Shape: shape}, fmt.Sprintf("Weibull k=%g", shape)
	}
	cells := make([]spec.ScenarioSpec, len(grid))
	xs := make([]float64, len(grid))
	for i, procs := range grid {
		xs[i] = float64(procs)
		cells[i] = spec.ScenarioSpec{
			Name:     fmt.Sprintf("%s-p=%d", plat.Name, procs),
			Platform: spec.PlatformRef{Preset: preset},
			P:        procs,
			Dist:     law,
			Horizon:  11*platform.Year + 4*plat.W/float64(procs),
			Start:    platform.Year,
			Traces:   traces,
			Seed:     p.seed(),
		}
	}
	std := &spec.StandardSpec{
		DPNextFailureQuanta: p.quantaOr(100, 200),
		IncludeLiu:          true,
		IncludeBouguerra:    true,
		PeriodLB:            periodLBSpec(p),
	}
	if shape == 0 {
		// DPMakespan is only exact for Exponential failures; the paper
		// plots it on the Exponential figures (with the rejuvenation
		// assumption) and drops it for Weibull at scale.
		std.DPMakespanQuanta = p.quantaOr(400, 800)
	}
	name := "Petascale"
	if !petascale {
		name = "Exascale"
	}
	return &spec.ExperimentSpec{
		Name:  id,
		Table: "series",
		Series: &spec.SeriesSpec{
			Title: fmt.Sprintf("%s, %s failures: average degradation from best vs processors (%d traces/point)",
				name, lawName, traces),
			XLabel: "processors",
			X:      xs,
		},
		Cells:      cells,
		Candidates: spec.CandidatesSpec{Standard: std},
	}
}

// fig5Spec declares Figure 5 as a shape-axis grid sweep over the Table 4
// scenario, rendered as one pivoted curve table.
func fig5Spec(p Params) *spec.ExperimentSpec {
	var shapes []float64
	if p.Full {
		shapes = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	} else {
		shapes = []float64{0.3, 0.5, 0.7, 0.9}
	}
	traces := p.traces(8, 600)
	return &spec.ExperimentSpec{
		Name:  "fig5",
		Title: "Figure 5: degradation vs Weibull shape parameter k on 45,208 processors",
		Table: "series",
		Series: &spec.SeriesSpec{
			Title:  fmt.Sprintf("45,208 processors: degradation vs Weibull shape k (%d traces/point)", traces),
			XLabel: "shape k",
			X:      shapes,
		},
		Scenario: &spec.ScenarioSpec{
			Name:     "fig5",
			Platform: spec.PlatformRef{Preset: "petascale"},
			P:        45208,
			Dist:     spec.DistSpec{Family: "weibull", Shape: 0.7},
			Horizon:  11 * platform.Year,
			Start:    platform.Year,
			Traces:   traces,
			Seed:     p.seed(),
		},
		Grid: &spec.GridSpec{Shape: shapes},
		Candidates: spec.CandidatesSpec{Standard: &spec.StandardSpec{
			DPNextFailureQuanta: p.quantaOr(100, 200),
			IncludeLiu:          true,
			IncludeBouguerra:    true,
			PeriodLB:            periodLBSpec(p),
		}},
	}
}

// runFig98 reproduces Appendix D Figure 98: average makespan (days) under
// OptExp with Exponential failures for the six application models, with
// constant and platform-dependent checkpoint costs.
func runFig98(ctx context.Context, w io.Writer, p Params) error {
	return runWorkModelFigure(ctx, w, p, workModelFigure{
		id:        "fig98",
		policy:    spec.PolicySpec{Kind: "optexp", Name: "OptExp"},
		weibull:   false,
		overheads: []platform.Overhead{platform.OverheadConstant, platform.OverheadProportional},
	})
}

// runFig99 reproduces Appendix D Figure 99: average makespan (days) under
// DPNextFailure with Weibull failures for the application models.
func runFig99(ctx context.Context, w io.Writer, p Params) error {
	return runWorkModelFigure(ctx, w, p, workModelFigure{
		id:        "fig99",
		policy:    spec.PolicySpec{Kind: "dpnextfailure", Name: "DPNextFailure", Quanta: p.quantaOr(100, 200)},
		weibull:   true,
		overheads: []platform.Overhead{platform.OverheadConstant},
	})
}

// workModelFigure parameterizes Figures 98/99 and the one policy each
// plots.
type workModelFigure struct {
	id        string
	policy    spec.PolicySpec
	weibull   bool
	overheads []platform.Overhead
}

func workModels() []platform.Work {
	return []platform.Work{
		{Model: platform.WorkEmbarrassing},
		{Model: platform.WorkAmdahl, Gamma: 1e-6},
		{Model: platform.WorkAmdahl, Gamma: 1e-4},
		{Model: platform.WorkKernel, Gamma: 0.1},
		{Model: platform.WorkKernel, Gamma: 1},
		{Model: platform.WorkKernel, Gamma: 10},
	}
}

func runWorkModelFigure(ctx context.Context, w io.Writer, p Params, f workModelFigure) error {
	plat := platform.Petascale(125)
	law, lawName := spec.DistSpec{Family: "exponential"}, "Exponential"
	if f.weibull {
		law, lawName = spec.DistSpec{Family: "weibull", Shape: 0.7}, "Weibull k=0.7"
	}
	grid := []int{1 << 10, 1 << 12, 1 << 14}
	if p.Full {
		grid = []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15}
	}
	traces := p.traces(6, 600)
	es := &spec.ExperimentSpec{
		Name:       f.id,
		Candidates: spec.CandidatesSpec{Policies: []spec.PolicySpec{f.policy}},
	}
	for _, ov := range f.overheads {
		for _, wk := range workModels() {
			ws := spec.EncodeWork(wk)
			for _, procs := range grid {
				es.Cells = append(es.Cells, spec.ScenarioSpec{
					Name:     fmt.Sprintf("fig98-%s-p=%d", wk, procs),
					Platform: spec.PlatformRef{Preset: "petascale"},
					P:        procs,
					Dist:     law,
					Overhead: ov.String(),
					Work:     &ws,
					Horizon:  11*platform.Year + 8*wk.Time(plat.W, procs),
					Start:    platform.Year,
					Traces:   traces,
					Seed:     p.seed(),
				})
			}
		}
	}
	results, err := spec.RunAll(ctx, p.engine(), es)
	if err != nil {
		return err
	}
	for _, ov := range f.overheads {
		var series []harness.Series
		for _, wk := range workModels() {
			s := harness.Series{Label: wk.String()}
			for _, procs := range grid {
				s.X = append(s.X, float64(procs))
				s.Y = append(s.Y, results[0].Eval.MakespanSec[f.policy.Name].Mean/platform.Day)
				results = results[1:]
			}
			series = append(series, s)
		}
		t := harness.SeriesTable(
			fmt.Sprintf("Average makespan (days) of %s vs processors, %s, %s overheads (%d traces/point)",
				f.policy.Name, lawName, ov, traces),
			"processors", series)
		if err := emit(w, p, t); err != nil {
			return err
		}
	}
	return nil
}
