package checkpoint_test

import (
	"context"
	"fmt"

	checkpoint "repro"
)

// ExampleOptimalExp computes the Theorem 1 optimum for a 20-day job on a
// processor with a 1-day MTBF and 600 s checkpoints.
func ExampleOptimalExp() {
	_, kStar, period, err := checkpoint.OptimalExp(20*checkpoint.Day, 1/checkpoint.Day, 600)
	if err != nil {
		panic(err)
	}
	fmt.Printf("split the job into %d chunks of %.0f s\n", kStar, period)
	// Output: split the job into 177 chunks of 9763 s
}

// ExampleSimulate runs one job under Young's policy on a reproducible
// failure trace.
func ExampleSimulate() {
	law := checkpoint.NewExponentialMean(4 * checkpoint.Hour)
	traces := checkpoint.GenerateTraces(law, 1, 1e8, 60, 7)
	job := &checkpoint.Job{
		Work:  checkpoint.Day,
		C:     600,
		R:     600,
		D:     60,
		Units: 1,
	}
	pol := checkpoint.NewYoung(job.C, law.Mean())
	res, err := checkpoint.Simulate(context.Background(), job, pol, traces)
	if err != nil {
		panic(err)
	}
	fmt.Printf("failures: %d, checkpoints: %d, work done: %.0f s\n",
		res.Failures, res.Checkpoints, res.WorkTime)
	// Output: failures: 7, checkpoints: 21, work done: 86400 s
}

// ExampleNewSession drives an online advisor session by hand: the
// event-driven form of ExampleSimulate, where the caller (a scheduler)
// supplies the failures instead of a generated trace. Decisions and
// their rationale come back step by step.
func ExampleNewSession() {
	job := &checkpoint.Job{Work: 20000, C: 200, R: 200, D: 30, Units: 4}
	sess, err := checkpoint.NewSession(checkpoint.SessionConfig{
		Job:    job,
		Policy: checkpoint.NewPeriodic("Periodic", 6000),
	})
	if err != nil {
		panic(err)
	}

	d, _ := sess.Advise()
	fmt.Printf("run %.0f s, then checkpoint for %.0f s (policy %s, period %.0f)\n",
		d.Chunk, d.CheckpointCost, d.Policy, d.Period)

	// The chunk commits at t = chunk + C.
	_ = sess.Observe(checkpoint.Event{Kind: checkpoint.EventCheckpointed, Time: 6200, Work: d.Chunk})

	// Unit 2 fails mid-chunk; after downtime + recovery the session
	// re-advises from the restored checkpoint.
	_ = sess.Observe(checkpoint.Event{Kind: checkpoint.EventFailure, Time: 9000, Unit: 2})
	_ = sess.Observe(checkpoint.Event{Kind: checkpoint.EventRecovered, Time: 9230})
	d, _ = sess.Advise()
	fmt.Printf("after %d failure(s): run %.0f s (remaining %.0f s)\n",
		sess.Failures(), d.Chunk, d.Remaining)

	// Out-of-order events are strictly rejected with typed errors.
	err = sess.Observe(checkpoint.Event{Kind: checkpoint.EventProgress, Time: 1000})
	fmt.Println("backwards clock accepted:", err == nil)
	// Output:
	// run 6000 s, then checkpoint for 200 s (policy Periodic, period 6000)
	// after 1 failure(s): run 6000 s (remaining 14000 s)
	// backwards clock accepted: false
}

// ExampleNewEngine evaluates the paper's policy set on a small scenario
// through the parallel experiment engine, twice with different worker
// counts against one shared cache: the worker count never changes the
// result, and the second evaluation reuses the first one's planner
// instead of recomputing it. (Trace sets are seeded, so each evaluation
// draws its own; only an engine scope would share them.)
func ExampleNewEngine() {
	law := checkpoint.NewExponentialMean(checkpoint.Day)
	sc := checkpoint.Scenario{
		Name:     "engine-demo",
		Spec:     checkpoint.OneProcPlatform(checkpoint.Day),
		P:        1,
		Dist:     law,
		Overhead: checkpoint.OverheadConstant,
		Work:     checkpoint.Work{Model: checkpoint.WorkEmbarrassing},
		Horizon:  2 * checkpoint.Year,
		Traces:   4,
		Seed:     1,
	}
	cfg := checkpoint.DefaultCandidateConfig()
	cfg.DPNextFailureQuanta = 40 // keep the example fast

	cache := checkpoint.NewCache(0)
	sequential := checkpoint.NewEngine(checkpoint.EngineConfig{Workers: 1, Cache: cache})
	parallel := checkpoint.NewEngine(checkpoint.EngineConfig{Workers: 4, Cache: cache})

	cands, err := checkpoint.StandardCandidatesWith(context.Background(), sequential, sc, cfg)
	if err != nil {
		panic(err)
	}
	ev1, err := checkpoint.EvaluateWith(context.Background(), sequential, sc, cands)
	if err != nil {
		panic(err)
	}
	// The second candidate set takes the DPNextFailure planner, with its
	// memoized first plan, from the shared cache.
	cands, err = checkpoint.StandardCandidatesWith(context.Background(), parallel, sc, cfg)
	if err != nil {
		panic(err)
	}
	ev2, err := checkpoint.EvaluateWith(context.Background(), parallel, sc, cands)
	if err != nil {
		panic(err)
	}
	st := cache.Stats()
	fmt.Printf("identical across worker counts: %v\n", ev1.Degradation["Young"] == ev2.Degradation["Young"])
	fmt.Printf("cache reused shared artifacts: %v\n", st.Hits > 0)
	// Output:
	// identical across worker counts: true
	// cache reused shared artifacts: true
}

// ExamplePlatformMTBFSingleRejuvenation reproduces the §3.1 observation
// behind Figure 1: at scale, rejuvenating every processor after each
// failure destroys the platform MTBF when failures have decreasing hazard.
func ExamplePlatformMTBFSingleRejuvenation() {
	w := checkpoint.WeibullFromMeanShape(125*checkpoint.Year, 0.7)
	all := checkpoint.PlatformMTBFRejuvenateAll(w, 1<<20, 60)
	single := checkpoint.PlatformMTBFSingleRejuvenation(w.Mean(), 1<<20, 60)
	fmt.Printf("rejuvenate-all: %.0f s, single-rejuvenation: %.0f s\n", all, single)
	// Output: rejuvenate-all: 70 s, single-rejuvenation: 3759 s
}

// ExampleRunSpec declares a two-cell experiment as data, runs it with a
// cancellable context, and streams the results in deterministic order —
// the declarative workflow behind the cmd tools' -spec flag.
func ExampleRunSpec() {
	es := &checkpoint.ExperimentSpec{
		Name: "example",
		Scenario: &checkpoint.ScenarioSpec{
			Name:     "oneproc",
			Platform: checkpoint.PlatformRef{Preset: "oneproc"},
			P:        1,
			Dist:     checkpoint.DistSpec{Family: "exponential"}, // mean = platform MTBF
			Horizon:  2 * checkpoint.Year,
			Traces:   3,
			Seed:     7,
		},
		Grid: &checkpoint.GridSpec{MTBF: []float64{checkpoint.Hour, checkpoint.Day}},
		Candidates: checkpoint.CandidatesSpec{Policies: []checkpoint.PolicySpec{
			{Kind: "young"},
		}},
	}
	eng := checkpoint.NewEngine(checkpoint.EngineConfig{Cache: checkpoint.NewCache(0)})
	for cell, err := range checkpoint.RunSpec(context.Background(), eng, es) {
		if err != nil {
			panic(err)
		}
		for _, row := range cell.Eval.Rows() {
			if !row.LowerBound {
				fmt.Printf("%s %s degradation %.3f\n", cell.Scenario.Name, row.Name, row.Degradation.Mean)
			}
		}
	}
	// Output:
	// oneproc[mtbf=3600] Young degradation 1.000
	// oneproc[mtbf=86400] Young degradation 1.000
}
