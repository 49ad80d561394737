package exper

import (
	"context"
	"fmt"
	"io"

	"repro/internal/platform"
	"repro/internal/spec"
	"repro/internal/trace"
)

func init() {
	register(Experiment{
		ID:    "fig7",
		Title: "Figure 7: log-based failures (synthetic LANL cluster 19), degradation vs processors",
		Spec:  func(p Params) *spec.ExperimentSpec { return logBasedSpec(p, "fig7", trace.Cluster19) },
	})
	register(Experiment{
		ID:    "fig100",
		Title: "Figure 100: log-based failures, both synthetic LANL clusters",
		Run: func(ctx context.Context, w io.Writer, p Params) error {
			if err := RunSpec(ctx, w, p, logBasedSpec(p, "fig100", trace.Cluster18)); err != nil {
				return err
			}
			return RunSpec(ctx, w, p, logBasedSpec(p, "fig7", trace.Cluster19))
		},
	})
}

// logBasedSpec declares the §6 methodology: the empirical availability
// distribution of the (synthetic, see DESIGN.md §4) cluster log, written
// into the spec as its sample list, on 4-processor nodes as failure units
// whose MTBF is the log's mean, comparing the MTBF-based heuristics with
// DPNextFailure. Liu, Bouguerra and DPMakespan cannot be adapted to
// empirical laws (§6) and are omitted, as in the paper.
func logBasedSpec(p Params, id string, log trace.LogSpec) *spec.ExperimentSpec {
	logSize := p.pick(20000, 100000)
	emp := trace.EmpiricalFromLog(trace.SyntheticLog(log, logSize, p.seed()))
	plat := platform.LANLNodes(emp.Mean())
	law := spec.DistSpec{Family: "empirical", Samples: emp.Samples()}

	grid := []int{1 << 12, 1 << 14}
	if p.Full {
		grid = []int{1 << 12, 1 << 13, 1 << 14, 1 << 15}
	}
	traces := p.traces(8, 600)
	cells := make([]spec.ScenarioSpec, len(grid))
	xs := make([]float64, len(grid))
	for i, procs := range grid {
		xs[i] = float64(procs)
		cells[i] = spec.ScenarioSpec{
			Name:     fmt.Sprintf("%s-p=%d", log.Name, procs),
			Platform: spec.PlatformRef{Preset: "lanl-nodes", MTBF: plat.MTBF},
			P:        procs,
			Dist:     law,
			// Node MTBFs are short; leave room for long degraded runs.
			Horizon: 30*platform.Year + 50*plat.W/float64(procs),
			Start:   platform.Year,
			Traces:  traces,
			Seed:    p.seed(),
		}
	}
	return &spec.ExperimentSpec{
		Name:  id,
		Table: "series",
		Series: &spec.SeriesSpec{
			Title: fmt.Sprintf("Log-based failures (%s, %d intervals): degradation vs processors (%d traces/point)",
				log.Name, logSize, traces),
			XLabel: "processors",
			X:      xs,
		},
		Cells: cells,
		Candidates: spec.CandidatesSpec{Standard: &spec.StandardSpec{
			DPNextFailureQuanta: p.quantaOr(100, 200),
			PeriodLB:            periodLBSpec(p),
		}},
	}
}
