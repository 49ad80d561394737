// Command chkpt-sim runs a single checkpointing simulation: one platform,
// one failure law, one policy, a configurable number of traces, and prints
// the makespan accounting. It is the fastest way to poke at the library.
//
// The flags compile down to a declarative experiment spec: print it with
// -dump-spec, replay it with -spec. Any registered platform preset,
// distribution family and policy kind is accepted (see internal/spec).
//
// Examples:
//
//	chkpt-sim -platform petascale -p 45208 -law weibull -shape 0.7 -policy dpnextfailure
//	chkpt-sim -platform oneproc -mtbf 86400 -law exp -policy young -traces 100
//	chkpt-sim -platform petascale -p 4096 -law exp -policy period -period 3600
//	chkpt-sim -policy dpnextfailure -dump-spec > run.json
//	chkpt-sim -spec run.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/spec"
)

const tool = "chkpt-sim"

func main() {
	var (
		platformName = flag.String("platform", "petascale", "platform preset: "+strings.Join(spec.PlatformNames(), " | "))
		procs        = flag.Int("p", 0, "processors enrolled (default: whole platform)")
		mtbf         = flag.Float64("mtbf", 0, "per-processor MTBF in seconds (default: preset value)")
		lawName      = flag.String("law", "exp", "failure law: exp | "+strings.Join(spec.DistFamilies(), " | "))
		shape        = flag.Float64("shape", 0.7, "shape parameter for weibull/gamma, sigma for lognormal")
		policyName   = flag.String("policy", "optexp", "policy: "+strings.Join(spec.PolicyKinds(), " | ")+" (aliases: dpnf, dpm)")
		period       = flag.Float64("period", 0, "fixed period in seconds (policy=period)")
		quanta       = flag.Int("quanta", 120, "dynamic-programming resolution")
		proportional = flag.Bool("proportional", false, "use proportional checkpoint overheads C(p)=C*ptotal/p")
		specFile     = flag.String("spec", "", "run a declarative experiment spec file (JSON) instead of the flags")
		dumpSpec     = flag.Bool("dump-spec", false, "print the flags' declarative spec (JSON) and exit")
		verbose      = flag.Bool("v", false, "report engine cache statistics on stderr after the run")
	)
	runf := cliutil.AddRunFlags(flag.CommandLine, 20, 42, false)
	engf := cliutil.AddEngineFlags(flag.CommandLine)
	flag.Parse()

	if err := runf.Validate(); err != nil {
		cliutil.Fatal(tool, err)
	}
	eng, err := engf.Engine()
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	// One scope per invocation: every experiment it runs shares trace
	// sets and post-failure grids.
	eng = eng.Scope()

	var es *spec.ExperimentSpec
	if *specFile != "" {
		es, err = spec.LoadExperiment(*specFile)
	} else {
		es, err = compileSpec(*platformName, *procs, *mtbf, *lawName, *shape,
			*policyName, *period, *quanta, *proportional, runf.Traces, runf.Seed)
	}
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	if *dumpSpec {
		if err := spec.EncodeExperiment(os.Stdout, es); err != nil {
			cliutil.Fatal(tool, err)
		}
		return
	}

	ctx, stop := cliutil.SignalContext()
	defer stop()
	if err := runAccounting(ctx, eng, es); err != nil {
		cliutil.Fatal(tool, err)
	}
	if *verbose {
		// Stderr, so stdout stays byte-identical with and without -v.
		if st, ok := eng.CacheStats(); ok {
			fmt.Fprintf(os.Stderr, "%s: cache hits=%d misses=%d evictions=%d entries=%d bytes=%d budget=%d\n",
				tool, st.Hits, st.Misses, st.Evictions, st.Entries, st.Bytes, st.Budget)
		} else {
			fmt.Fprintf(os.Stderr, "%s: cache disabled\n", tool)
		}
	}
}

// compileSpec lowers the flag set into the declarative experiment form.
func compileSpec(platformName string, procs int, mtbf float64, lawName string, shape float64,
	policyName string, period float64, quanta int, proportional bool, traces int, seed uint64) (*spec.ExperimentSpec, error) {

	ref := spec.PlatformRef{Preset: platformName}
	if mtbf > 0 {
		ref.MTBF = mtbf
	}
	plat, err := ref.Build()
	if err != nil {
		return nil, err
	}
	if procs == 0 {
		procs = plat.PTotal
	}

	d := cliutil.DistSpecFromFlags(lawName, shape)

	overhead := ""
	if proportional {
		overhead = platform.OverheadProportional.String()
	}
	kind := strings.ToLower(policyName)
	switch kind {
	case "dpnf":
		kind = "dpnextfailure"
	case "dpm":
		kind = "dpmakespan"
	}
	ps := spec.PolicySpec{Kind: kind}
	switch kind {
	case "period":
		ps.Period = period
	case "dpnextfailure", "dpmakespan":
		ps.Quanta = quanta
	}

	// Trace horizon: the paper's 11-year window plus generous room for a
	// degraded run of the failure-free execution time.
	work := platform.Work{Model: platform.WorkEmbarrassing}
	horizon := 11*platform.Year + 20*work.Time(plat.W, procs)

	return &spec.ExperimentSpec{
		Name: tool,
		Scenario: &spec.ScenarioSpec{
			Name:     fmt.Sprintf("%s-p=%d-%s", plat.Name, procs, kind),
			Platform: ref,
			P:        procs,
			Dist:     d,
			Overhead: overhead,
			Horizon:  horizon,
			Start:    platform.Year,
			Traces:   traces,
			Seed:     seed,
		},
		Candidates: spec.CandidatesSpec{Policies: []spec.PolicySpec{ps}},
	}, nil
}

// runAccounting executes the spec's single cell trace-by-trace on the
// engine pool and prints the averaged makespan breakdown.
func runAccounting(ctx context.Context, eng *engine.Engine, es *spec.ExperimentSpec) error {
	cells, err := es.Expand()
	if err != nil {
		return err
	}
	if len(cells) != 1 {
		return fmt.Errorf("accounting runs need exactly one cell, spec %q has %d", es.Name, len(cells))
	}
	cell := cells[0]
	if cell.Candidates.Standard != nil || len(cell.Candidates.Policies) != 1 {
		return fmt.Errorf("accounting runs need exactly one explicit policy")
	}
	sc, err := cell.Scenario.Compile()
	if err != nil {
		return err
	}
	d, err := sc.Derive()
	if err != nil {
		return err
	}
	job := d.Job(sc.Start)

	ps := cell.Candidates.Policies[0]
	lower := ps.Kind == "lowerbound"
	var newPolicy func() (sim.Policy, error)
	if !lower {
		cand, err := ps.Candidate(ctx, spec.PolicyEnv{Engine: eng, Scenario: sc, Derived: d})
		if err != nil {
			return err
		}
		if cand.SkipReason != "" {
			return fmt.Errorf("policy %s cannot run this scenario: %s", cand.Name, cand.SkipReason)
		}
		newPolicy = cand.New
	}

	fmt.Printf("platform %s: p=%d (units=%d), W(p)=%.0f s (%.2f days), C=R=%.0f s, D=%.0f s\n",
		sc.Spec.Name, sc.P, d.Units, job.Work, job.Work/platform.Day, job.C, job.D)
	fmt.Printf("failure law %s, platform MTBF %.0f s\n", sc.Dist.Name(), d.PlatformMTBF)
	fmt.Printf("policy %s, %d traces, seed %d\n\n", ps.Kind, sc.Traces, sc.Seed)

	// One trace per engine cell; sums are accumulated in trace order after
	// the parallel phase, so the output is identical for every -workers.
	// Each trace's seed is unique to this invocation, so the sets bypass
	// the cache (they could never be requested twice).
	tracesEng := eng.WithoutCache()
	results, err := engine.Run(ctx, eng, sc.Traces, func(i int) (sim.Result, error) {
		ts := tracesEng.GenerateTraces(ctx, sc.Dist, d.Units, sc.Horizon, sc.Spec.D, sc.TraceSeed(i))
		if lower {
			return sim.LowerBound(ctx, job, ts)
		}
		pol, err := newPolicy()
		if err != nil {
			return sim.Result{}, err
		}
		return sim.Run(ctx, job, pol, ts)
	})
	if err != nil {
		return err
	}
	var mkSum, lostSum, cpSum, waitSum, recSum, failSum float64
	var chunkSum int
	for _, res := range results {
		mkSum += res.Makespan
		lostSum += res.LostTime
		cpSum += res.CheckpointTime
		waitSum += res.WaitTime
		recSum += res.RecoveryTime
		failSum += float64(res.Failures)
		chunkSum += res.Chunks
	}
	n := float64(sc.Traces)
	fmt.Printf("average makespan     %12.0f s (%.2f days)\n", mkSum/n, mkSum/n/platform.Day)
	fmt.Printf("  work               %12.0f s\n", job.Work)
	fmt.Printf("  checkpointing      %12.0f s\n", cpSum/n)
	fmt.Printf("  lost to failures   %12.0f s\n", lostSum/n)
	fmt.Printf("  downtime waits     %12.0f s\n", waitSum/n)
	fmt.Printf("  recoveries         %12.0f s\n", recSum/n)
	fmt.Printf("average failures     %12.1f\n", failSum/n)
	fmt.Printf("average chunks       %12.1f\n", float64(chunkSum)/n)
	return nil
}
