package exper

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/spec"
)

func init() {
	register(Experiment{
		ID:    "figA-period-exp",
		Title: "Appendix A (Fig 8): period-multiplier sweep, single processor, Exponential",
		Run: func(ctx context.Context, w io.Writer, p Params) error {
			return runPeriodSweepSingleProc(ctx, w, p, false)
		},
	})
	register(Experiment{
		ID:    "figA-period-weibull",
		Title: "Appendix A (Fig 9): period-multiplier sweep, single processor, Weibull k=0.7",
		Run: func(ctx context.Context, w io.Writer, p Params) error {
			return runPeriodSweepSingleProc(ctx, w, p, true)
		},
	})
	register(Experiment{
		ID:    "figB-matrix",
		Title: "Appendix B/C (Figs 10-97): Petascale sweep over {law} x {work model} x {overhead}",
		Run:   runAppendixMatrix,
	})
}

// runPeriodSweepSingleProc reproduces the Appendix A figures: degradation
// of fixed periods OptExp*2^f as f sweeps [-4, 4], for the hour and day
// MTBFs. Each MTBF is one cell: the standard set, which defines the
// per-trace reference, plus one "period" policy per factor.
func runPeriodSweepSingleProc(ctx context.Context, w io.Writer, p Params, weibull bool) error {
	var factors []float64
	if p.Full {
		for f := -4.0; f <= 4.01; f += 0.5 {
			factors = append(factors, f)
		}
	} else {
		factors = []float64{-4, -3, -2, -1, 0, 1, 2, 3, 4}
	}
	traces := p.traces(20, 600)
	for _, mtbf := range []float64{platform.Hour, platform.Day} {
		cell := singleProcCellSpec(mtbf, weibull, traces, p.seed())
		sc, err := cell.Compile()
		if err != nil {
			return err
		}
		d, err := sc.Derive()
		if err != nil {
			return err
		}
		base, err := harness.BasePeriod(d)
		if err != nil {
			return err
		}
		cands := spec.CandidatesSpec{Standard: &spec.StandardSpec{
			DPNextFailureQuanta: p.quantaOr(60, 150),
			DPMakespanQuanta:    p.quantaOr(600, 1200),
			IncludeLiu:          true,
			IncludeBouguerra:    true,
		}}
		for _, f := range factors {
			cands.Policies = append(cands.Policies, spec.PolicySpec{
				Kind:   "period",
				Name:   fmt.Sprintf("PeriodVar[%+.2f]", f),
				Period: math.Min(base*math.Pow(2, f), d.WorkP),
			})
		}
		results, err := spec.RunAll(ctx, p.engine(), &spec.ExperimentSpec{
			Name:       cell.Name,
			Cells:      []spec.ScenarioSpec{cell},
			Candidates: cands,
		})
		if err != nil {
			return err
		}
		ev := results[0].Eval
		sweep := harness.Series{Label: "PeriodVariation"}
		for i, f := range factors {
			sweep.X = append(sweep.X, f)
			sweep.Y = append(sweep.Y, ev.Degradation[cands.Policies[i].Name].Mean)
		}
		// Reference lines: flat series at each fixed heuristic's level and
		// the LowerBound's. The sweep's own periods are the curve above,
		// not lines of their own.
		var series []harness.Series
		series = append(series, sweep)
		for _, name := range ev.Order {
			deg, ok := ev.Degradation[name]
			if !ok || strings.HasPrefix(name, "PeriodVar[") {
				continue
			}
			series = append(series, harness.Series{
				Label: name,
				X:     []float64{0},
				Y:     []float64{deg.Mean},
			})
		}
		law := "Exponential"
		if weibull {
			law = "Weibull k=0.7"
		}
		t := harness.SeriesTable(
			fmt.Sprintf("Single processor, %s, MTBF %s: degradation vs log2(period factor) (%d traces)",
				law, humanDuration(mtbf), traces),
			"log2(factor)", series)
		if err := emit(w, p, t); err != nil {
			return err
		}
	}
	return nil
}

// runAppendixMatrix sweeps the cross-product behind Appendix B/C: for each
// failure law, work model and overhead model it reports the degradation of
// the key heuristics at one platform size, which summarizes the 88
// appendix figures' content (each figure is one cell's processor sweep;
// the paper's stated conclusion is that all cells tell the same story).
func runAppendixMatrix(ctx context.Context, w io.Writer, p Params) error {
	plat := platform.Petascale(125)
	procs := p.pick(1<<12, 45208)
	traces := p.traces(6, 600)
	laws := []struct {
		name string
		d    spec.DistSpec
	}{
		{"Exponential", spec.DistSpec{Family: "exponential"}},
		{"Weibull(0.7)", spec.DistSpec{Family: "weibull", Shape: 0.7}},
	}
	overheads := []platform.Overhead{platform.OverheadConstant, platform.OverheadProportional}
	es := &spec.ExperimentSpec{
		Name: "figB-matrix",
		Candidates: spec.CandidatesSpec{Standard: &spec.StandardSpec{
			DPNextFailureQuanta: p.quantaOr(80, 200),
			IncludeBouguerra:    true,
		}},
	}
	var labels [][]string
	for _, law := range laws {
		for _, wk := range workModels() {
			ws := spec.EncodeWork(wk)
			for _, ov := range overheads {
				labels = append(labels, []string{law.name, wk.String(), ov.String()})
				es.Cells = append(es.Cells, spec.ScenarioSpec{
					Name:     fmt.Sprintf("matrix-%s-%s-%s", law.name, wk, ov),
					Platform: spec.PlatformRef{Preset: "petascale"},
					P:        procs,
					Dist:     law.d,
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
	tab := &harness.Table{
		Title: fmt.Sprintf("Appendix B/C matrix at p=%d (%d traces/cell): avg degradation from best",
			procs, traces),
		Header: []string{"law", "work model", "overheads", "Young", "DalyHigh", "OptExp", "Bouguerra", "DPNextFailure"},
	}
	for i, res := range results {
		row := labels[i]
		for _, name := range tab.Header[3:] {
			cell := "n/a"
			if d, ok := res.Eval.Degradation[name]; ok {
				cell = fmt.Sprintf("%.4f", d.Mean)
			}
			row = append(row, cell)
		}
		tab.Rows = append(tab.Rows, row)
	}
	return emit(w, p, tab)
}
