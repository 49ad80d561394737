package exper

import (
	"context"
	"fmt"
	"io"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/spec"
)

func init() {
	register(Experiment{
		ID:    "replication",
		Title: "§8 extension: full platform vs two half-platform replicas (open question)",
		Run:   runReplication,
	})
	register(Experiment{
		ID:    "ablation-dpnf",
		Title: "Ablation: DPNextFailure resolution and §3.3 state-approximation sizes",
		Spec:  dpnfAblationSpec,
	})
	register(Experiment{
		ID:    "optimal-p",
		Title: "§8 extension: the expected-makespan-optimal processor count under failures",
		Run:   runOptimalP,
	})
}

// runOptimalP explores the other §8 future-work question: "computing the
// optimal number of processors for executing a parallel job". On a
// fault-free machine every model's W(p) decreases with p, so the whole
// platform is optimal; with failures the checkpoint overhead and failure
// frequency grow with p, and for Amdahl-style jobs an interior optimum
// appears. The experiment sweeps p for an Amdahl job on the Weibull
// Petascale platform and reports the empirical argmin.
func runOptimalP(ctx context.Context, w io.Writer, p Params) error {
	spec := platform.Petascale(125)
	law := dist.WeibullFromMeanShape(spec.MTBF, 0.7)
	traces := p.traces(6, 200)
	grid := []int{1 << 10, 1 << 12, 1 << 14, 1 << 15, 45208}
	if p.Full {
		grid = []int{1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, 1 << 15, 45208}
	}
	models := []platform.Work{
		{Model: platform.WorkEmbarrassing},
		{Model: platform.WorkAmdahl, Gamma: 1e-4},
		{Model: platform.WorkAmdahl, Gamma: 1e-3},
	}
	tab := &harness.Table{
		Title:  fmt.Sprintf("Average makespan (days) under OptExp vs processors, Weibull k=0.7 (%d traces/point)", traces),
		Header: []string{"work model"},
	}
	for _, procs := range grid {
		tab.Header = append(tab.Header, fmt.Sprintf("p=%d", procs))
	}
	tab.Header = append(tab.Header, "best p")
	for _, wk := range models {
		row := []string{wk.String()}
		bestP, bestMk := 0, 0.0
		for _, procs := range grid {
			mean, err := optimalPPoint(ctx, spec, law, wk, procs, traces, p)
			if err != nil {
				return err
			}
			row = append(row, fmt.Sprintf("%.2f", mean/platform.Day))
			if bestP == 0 || mean < bestMk {
				bestP, bestMk = procs, mean
			}
		}
		row = append(row, fmt.Sprintf("%d", bestP))
		tab.Rows = append(tab.Rows, row)
	}
	if err := emit(w, p, tab); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "With failures, strongly sequential jobs (large Amdahl gamma) stop\n"+
		"benefiting from extra processors well before the full platform: the\n"+
		"failure-free speedup saturates while the platform failure rate keeps\n"+
		"growing linearly in p — the effect the paper's §8 anticipates.")
	return err
}

func optimalPPoint(ctx context.Context, spec platform.Spec, law dist.Distribution, wk platform.Work, procs, traces int, p Params) (float64, error) {
	job := &sim.Job{
		Work:  wk.Time(spec.W, procs),
		C:     spec.C(platform.OverheadConstant, procs),
		R:     spec.R(platform.OverheadConstant, procs),
		D:     spec.D,
		Units: procs,
		Start: platform.Year,
	}
	opt, err := policy.NewOptExp(job.Work, float64(procs)/law.Mean(), job.C)
	if err != nil {
		return 0, err
	}
	horizon := 11*platform.Year + 40*job.Work
	eng := p.engine()
	makespans, err := engine.Run(ctx, eng, traces, func(i int) (float64, error) {
		seed := p.seed() + uint64(i+1)*0x9e3779b97f4a7c15
		ts := eng.GenerateTraces(ctx, law, procs, horizon, spec.D, seed)
		res, err := sim.Run(ctx, job, opt, ts)
		if err != nil {
			return 0, err
		}
		return res.Makespan, nil
	})
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, mk := range makespans {
		sum += mk
	}
	return sum / float64(traces), nil
}

// runReplication explores the paper's §8 future-work question: with the
// same hardware budget, is it better to run the job once on the whole
// platform, or replicated on both halves (synchronizing after each
// checkpoint, the faster replica winning each chunk)? Both configurations
// use OptExp periods sized for their own platform half/whole.
func runReplication(ctx context.Context, w io.Writer, p Params) error {
	spec := platform.Petascale(125)
	traces := p.traces(8, 200)
	procsGrid := []int{1 << 12, 1 << 14}
	if p.Full {
		procsGrid = []int{1 << 12, 1 << 13, 1 << 14, 1 << 15, 45208}
	}
	laws := []struct {
		name string
		d    dist.Distribution
	}{
		{"Exponential", dist.NewExponentialMean(spec.MTBF)},
		{"Weibull(0.7)", dist.WeibullFromMeanShape(spec.MTBF, 0.7)},
	}
	tab := &harness.Table{
		Title: fmt.Sprintf("Average makespan (days): whole platform vs 2-way replication on halves (%d traces)",
			traces),
		Header: []string{"law", "processors", "whole platform", "2-way replication", "replication wins?"},
	}
	for _, law := range laws {
		for _, procs := range procsGrid {
			whole, repl, err := replicationPoint(ctx, spec, law.d, procs, traces, p)
			if err != nil {
				return err
			}
			verdict := "no"
			if repl < whole {
				verdict = "YES"
			}
			tab.Rows = append(tab.Rows, []string{
				law.name,
				fmt.Sprintf("%d", procs),
				fmt.Sprintf("%.2f", whole/platform.Day),
				fmt.Sprintf("%.2f", repl/platform.Day),
				verdict,
			})
		}
	}
	if err := emit(w, p, tab); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "Note: which side wins is the open question the paper poses in §8;\n"+
		"with the embarrassingly parallel model the halved replica computes twice\n"+
		"as long per unit of work, so replication only pays when failures are the\n"+
		"dominant cost.")
	return err
}

func replicationPoint(ctx context.Context, spec platform.Spec, law dist.Distribution, procs, traces int, p Params) (whole, repl float64, err error) {
	wk := platform.Work{Model: platform.WorkEmbarrassing}
	horizon := 11*platform.Year + 40*wk.Time(spec.W, procs/2)
	mean := law.Mean()

	jobWhole := &sim.Job{
		Work:  wk.Time(spec.W, procs),
		C:     spec.C(platform.OverheadConstant, procs),
		R:     spec.R(platform.OverheadConstant, procs),
		D:     spec.D,
		Units: procs,
		Start: platform.Year,
	}
	half := procs / 2
	jobHalf := &sim.Job{
		Work:  wk.Time(spec.W, half),
		C:     spec.C(platform.OverheadConstant, half),
		R:     spec.R(platform.OverheadConstant, half),
		D:     spec.D,
		Units: half,
		Start: platform.Year,
	}
	optWhole, err := policy.NewOptExp(jobWhole.Work, float64(procs)/mean, jobWhole.C)
	if err != nil {
		return 0, 0, err
	}
	optHalf, err := policy.NewOptExp(jobHalf.Work, float64(half)/mean, jobHalf.C)
	if err != nil {
		return 0, 0, err
	}
	type pair struct{ whole, repl float64 }
	eng := p.engine()
	cells, err := engine.Run(ctx, eng, traces, func(i int) (pair, error) {
		seed := p.seed() + uint64(i+1)*0x9e3779b97f4a7c15
		ts := eng.GenerateTraces(ctx, law, procs, horizon, spec.D, seed)
		resW, err := sim.Run(ctx, jobWhole, optWhole, ts)
		if err != nil {
			return pair{}, err
		}
		resR, err := sim.RunReplicated(ctx, jobHalf, optHalf, ts, 2)
		if err != nil {
			return pair{}, err
		}
		return pair{whole: resW.Makespan, repl: resR.Makespan}, nil
	})
	if err != nil {
		return 0, 0, err
	}
	var sumWhole, sumRepl float64
	for _, c := range cells {
		sumWhole += c.whole
		sumRepl += c.repl
	}
	return sumWhole / float64(traces), sumRepl / float64(traces), nil
}

// dpnfAblationSpec quantifies the two DPNextFailure design choices
// DESIGN.md calls out: the DP resolution (quanta) and the §3.3 state
// approximation sizes, as named dpnextfailure policies on the Table 4
// scenario.
func dpnfAblationSpec(p Params) *spec.ExperimentSpec {
	traces := p.traces(8, 100)
	title := fmt.Sprintf("DPNextFailure ablation on the Table 4 scenario (%d traces)", traces)
	dpnf := func(name string, quanta, nExact, nApprox int) spec.PolicySpec {
		return spec.PolicySpec{Kind: "dpnextfailure", Name: name, Quanta: quanta, NExact: nExact, NApprox: nApprox}
	}
	return &spec.ExperimentSpec{
		Name:  "ablation-dpnf",
		Cells: []spec.ScenarioSpec{table4ScenarioSpec("table4", title, traces, p.seed())},
		Candidates: spec.CandidatesSpec{Policies: []spec.PolicySpec{
			dpnf("quanta=50", 50, 0, 0),
			dpnf("quanta=100", 100, 0, 0),
			dpnf("quanta=200", 200, 0, 0),
			dpnf("approx 10/100 (paper)", 100, 10, 100),
			dpnf("approx 2/10 (coarse)", 100, 2, 10),
			dpnf("approx 50/400 (fine)", 100, 50, 400),
		}},
	}
}
