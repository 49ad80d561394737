package sim

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/trace"
)

// fixedPolicy checkpoints every `period` units of work.
type fixedPolicy struct{ period float64 }

func (p fixedPolicy) Name() string         { return "fixed" }
func (p fixedPolicy) Start(job *Job) error { return nil }
func (p fixedPolicy) NextChunk(s *State) float64 {
	return math.Min(p.period, s.Remaining)
}

// spyPolicy records simulator callbacks.
type spyPolicy struct {
	fixedPolicy
	failures int
	commits  int
	taus     []float64
}

func (p *spyPolicy) OnFailure(s *State)                       { p.failures++ }
func (p *spyPolicy) OnChunkCommitted(s *State, chunk float64) { p.commits++ }

// manualTrace builds a trace set from explicit failure times per unit.
func manualTrace(horizon float64, units ...[]float64) *trace.Set {
	ts := &trace.Set{Horizon: horizon}
	for _, u := range units {
		ts.Units = append(ts.Units, trace.Trace{Times: u})
	}
	return ts
}

func TestNoFailures(t *testing.T) {
	job := &Job{Work: 250, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	ts := manualTrace(1e9, nil)
	res, err := Run(context.Background(), job, fixedPolicy{100}, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks 100, 100, 50 with a checkpoint each.
	want := 250 + 3*10.0
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Chunks != 3 || res.Failures != 0 || res.Recoveries != 0 {
		t.Errorf("unexpected counters: %+v", res)
	}
	if e := res.AccountingError(); math.Abs(e) > 1e-9 {
		t.Errorf("accounting error %v", e)
	}
}

func TestSingleFailureMidChunk(t *testing.T) {
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	ts := manualTrace(1e9, []float64{50})
	res, err := Run(context.Background(), job, fixedPolicy{100}, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Lose 50, wait D=5, recover R=7, redo 100+10.
	want := 50 + 5 + 7 + 110.0
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.LostTime != 50 || res.WaitTime != 5 || res.RecoveryTime != 7 {
		t.Errorf("components: %+v", res)
	}
	if res.Failures != 1 || res.Recoveries != 1 {
		t.Errorf("counters: %+v", res)
	}
}

func TestFailureDuringCheckpoint(t *testing.T) {
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	ts := manualTrace(1e9, []float64{105}) // 5 seconds into the checkpoint
	res, err := Run(context.Background(), job, fixedPolicy{100}, ts)
	if err != nil {
		t.Fatal(err)
	}
	want := 105 + 5 + 7 + 110.0
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.LostTime != 105 {
		t.Errorf("lost = %v, want 105 (chunk plus partial checkpoint)", res.LostTime)
	}
	if res.Checkpoints != 1 { // only the successful retry's checkpoint
		t.Errorf("checkpoints = %d", res.Checkpoints)
	}
}

func TestFailureAtCheckpointBoundaryCommits(t *testing.T) {
	// A failure exactly when the checkpoint completes does not destroy it.
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	ts := manualTrace(1e9, []float64{110})
	res, err := Run(context.Background(), job, fixedPolicy{100}, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk commits at t=110; work done; the t=110 failure never interrupts.
	if res.Makespan != 110 || res.Failures != 0 {
		t.Errorf("boundary failure mishandled: %+v", res)
	}
}

func TestFailureDuringRecovery(t *testing.T) {
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	// Failure at 50; recovery starts at 55; second failure at 58 aborts it.
	ts := manualTrace(1e9, []float64{50, 58})
	res, err := Run(context.Background(), job, fixedPolicy{100}, ts)
	if err != nil {
		t.Fatal(err)
	}
	// 50 lost + 5 wait + 3 lost recovery + 5 wait + 7 recovery + 110 redo.
	want := 50 + 5 + 3 + 5 + 7 + 110.0
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Failures != 2 || res.Recoveries != 1 {
		t.Errorf("counters: %+v", res)
	}
	if math.Abs(res.LostTime-53) > 1e-9 || math.Abs(res.WaitTime-10) > 1e-9 {
		t.Errorf("components: %+v", res)
	}
}

func TestCascadingDowntime(t *testing.T) {
	// Unit 0 fails at 50 (down until 60); unit 1 fails at 55 (down until
	// 65): the outage barrier extends to 65 before recovery can start.
	job := &Job{Work: 100, C: 10, R: 7, D: 10, Units: 2, Start: 0}
	ts := manualTrace(1e9, []float64{50}, []float64{55})
	res, err := Run(context.Background(), job, fixedPolicy{100}, ts)
	if err != nil {
		t.Fatal(err)
	}
	// 50 lost + wait to 65 (15) + 7 recovery + 110 redo = 182.
	want := 50 + 15 + 7 + 110.0
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want %v", res.Makespan, want)
	}
	if res.Failures != 2 {
		t.Errorf("failures = %d, want 2 (the waiting-period failure counts)", res.Failures)
	}
}

func TestTauTracking(t *testing.T) {
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 2, Start: 0}
	ts := manualTrace(1e9, []float64{50}, nil)
	var sawTau float64 = -1
	pol := &tauProbe{period: 100, probe: func(s *State) {
		if s.Failures == 1 && sawTau < 0 {
			sawTau = s.Age(0)
		}
	}}
	if _, err := Run(context.Background(), job, pol, ts); err != nil {
		t.Fatal(err)
	}
	// After the failure at 50: renewal at 55 (start of recovery), recovery
	// ends at 62, so at the next decision tau(0) = 62 - 55 = 7 = R.
	if math.Abs(sawTau-7) > 1e-9 {
		t.Errorf("tau after recovery = %v, want R=7", sawTau)
	}
}

type tauProbe struct {
	period float64
	probe  func(*State)
}

func (p *tauProbe) Name() string         { return "probe" }
func (p *tauProbe) Start(job *Job) error { return nil }
func (p *tauProbe) NextChunk(s *State) float64 {
	p.probe(s)
	return math.Min(p.period, s.Remaining)
}

func TestFailedUnitsList(t *testing.T) {
	job := &Job{Work: 400, C: 1, R: 1, D: 1, Units: 4, Start: 0}
	ts := manualTrace(1e9, []float64{10}, nil, []float64{20, 100}, nil)
	var got []int32
	pol := &tauProbe{period: 50, probe: func(s *State) {
		got = append([]int32(nil), s.FailedUnits...)
	}}
	if _, err := Run(context.Background(), job, pol, ts); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Errorf("FailedUnits = %v, want [0 2] (unique, in failure order)", got)
	}
}

func TestObserverCallbacks(t *testing.T) {
	job := &Job{Work: 300, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	ts := manualTrace(1e9, []float64{50})
	spy := &spyPolicy{fixedPolicy: fixedPolicy{100}}
	res, err := Run(context.Background(), job, spy, ts)
	if err != nil {
		t.Fatal(err)
	}
	if spy.failures != 1 {
		t.Errorf("OnFailure called %d times, want 1", spy.failures)
	}
	if spy.commits != res.Chunks {
		t.Errorf("OnChunkCommitted %d vs chunks %d", spy.commits, res.Chunks)
	}
}

func TestJobStartOffsetAndPreStartFailures(t *testing.T) {
	// A failure before release renews the unit; makespan is measured from
	// the release date.
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 1000}
	ts := manualTrace(1e9, []float64{400})
	var tau0 float64 = -1
	pol := &tauProbe{period: 100, probe: func(s *State) {
		if tau0 < 0 {
			tau0 = s.Age(0)
		}
	}}
	res, err := Run(context.Background(), job, pol, ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 110 {
		t.Errorf("makespan = %v, want 110", res.Makespan)
	}
	// Renewal at 405; at release tau = 1000 - 405 = 595.
	if math.Abs(tau0-595) > 1e-9 {
		t.Errorf("initial tau = %v, want 595", tau0)
	}
}

func TestUnitDownAtRelease(t *testing.T) {
	// Failure at 995 with D=20 means the unit is down until 1015; the job
	// must wait 15 before its first chunk.
	job := &Job{Work: 100, C: 10, R: 7, D: 20, Units: 1, Start: 1000}
	ts := manualTrace(1e9, []float64{995})
	res, err := Run(context.Background(), job, fixedPolicy{100}, ts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-(15+110)) > 1e-9 {
		t.Errorf("makespan = %v, want 125", res.Makespan)
	}
	if math.Abs(res.WaitTime-15) > 1e-9 {
		t.Errorf("wait = %v, want 15", res.WaitTime)
	}
}

func TestLowerBoundSingleFailure(t *testing.T) {
	job := &Job{Work: 100, C: 10, R: 10, D: 10, Units: 1, Start: 0}
	ts := manualTrace(1e9, []float64{50})
	res, err := LowerBound(context.Background(), job, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Works 40, checkpoints [40,50), failure at 50, settle to 70, finishes
	// the remaining 60: makespan 130.
	if math.Abs(res.Makespan-130) > 1e-9 {
		t.Errorf("LowerBound makespan = %v, want 130", res.Makespan)
	}
	if res.WorkTime != 100 || res.Checkpoints != 1 {
		t.Errorf("LowerBound components: %+v", res)
	}
	if e := res.AccountingError(); math.Abs(e) > 1e-9 {
		t.Errorf("accounting error %v", e)
	}
}

func TestLowerBoundTinyWindowIdles(t *testing.T) {
	// Window of 5 < C=10: the bound idles through it rather than losing work.
	job := &Job{Work: 100, C: 10, R: 10, D: 10, Units: 1, Start: 0}
	ts := manualTrace(1e9, []float64{5})
	res, err := LowerBound(context.Background(), job, ts)
	if err != nil {
		t.Fatal(err)
	}
	// Idle 5, settle to 25, finish 100 without final checkpoint: 125.
	if math.Abs(res.Makespan-125) > 1e-9 {
		t.Errorf("makespan = %v, want 125", res.Makespan)
	}
	if res.WorkTime != 100 || res.CheckpointTime != 0 {
		t.Errorf("components: %+v", res)
	}
}

func TestLowerBoundNoFinalCheckpoint(t *testing.T) {
	job := &Job{Work: 100, C: 10, R: 10, D: 10, Units: 1, Start: 0}
	res, err := LowerBound(context.Background(), job, manualTrace(1e9, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 100 {
		t.Errorf("failure-free LowerBound = %v, want 100 (no checkpoint)", res.Makespan)
	}
}

func TestLowerBoundBeatsAllPolicies(t *testing.T) {
	d := dist.WeibullFromMeanShape(2000, 0.7)
	for seed := uint64(0); seed < 30; seed++ {
		ts := trace.GenerateRenewal(d, 4, 1e7, 30, seed)
		job := &Job{Work: 5000, C: 60, R: 60, D: 30, Units: 4, Start: 0}
		lb, err := LowerBound(context.Background(), job, ts)
		if err != nil {
			t.Fatal(err)
		}
		for _, period := range []float64{200, 500, 1000, 5000} {
			res, err := Run(context.Background(), job, fixedPolicy{period}, ts)
			if err != nil {
				t.Fatal(err)
			}
			if lb.Makespan > res.Makespan+1e-6 {
				t.Errorf("seed %d period %v: LowerBound %v > policy %v", seed, period, lb.Makespan, res.Makespan)
			}
		}
	}
}

func TestAccountingInvariantRandomized(t *testing.T) {
	// Makespan must equal the sum of its components on random traces.
	d := dist.WeibullFromMeanShape(900, 0.6)
	for seed := uint64(0); seed < 50; seed++ {
		ts := trace.GenerateRenewal(d, 3, 1e7, 17, seed)
		job := &Job{Work: 4000, C: 45, R: 55, D: 17, Units: 3, Start: 500}
		res, err := Run(context.Background(), job, fixedPolicy{333}, ts)
		if err != nil {
			t.Fatal(err)
		}
		if e := res.AccountingError(); math.Abs(e) > 1e-6 {
			t.Fatalf("seed %d: accounting error %v (%+v)", seed, e, res)
		}
		if res.WorkTime < 4000-1e-6 || res.WorkTime > 4000+1e-6 {
			t.Fatalf("seed %d: committed work %v != 4000", seed, res.WorkTime)
		}
		lb, err := LowerBound(context.Background(), job, ts)
		if err != nil {
			t.Fatal(err)
		}
		if e := lb.AccountingError(); math.Abs(e) > 1e-6 {
			t.Fatalf("seed %d: LowerBound accounting error %v", seed, e)
		}
	}
}

func TestHorizonExceededFlag(t *testing.T) {
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	res, err := Run(context.Background(), job, fixedPolicy{100}, manualTrace(50, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HorizonExceeded {
		t.Error("run past the trace horizon not flagged")
	}
	res, err = Run(context.Background(), job, fixedPolicy{100}, manualTrace(1e9, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.HorizonExceeded {
		t.Error("run within horizon incorrectly flagged")
	}
}

type failingStartPolicy struct{ fixedPolicy }

func (failingStartPolicy) Start(job *Job) error { return errors.New("no schedule") }

func TestPolicyStartErrorPropagates(t *testing.T) {
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	if _, err := Run(context.Background(), job, failingStartPolicy{}, manualTrace(1e9, nil)); err == nil {
		t.Fatal("Start error not propagated")
	}
}

func TestJobValidation(t *testing.T) {
	ts := manualTrace(1e9, nil)
	bad := []*Job{
		{Work: 0, C: 1, R: 1, D: 1, Units: 1},
		{Work: 1, C: -1, R: 1, D: 1, Units: 1},
		{Work: 1, C: 1, R: 1, D: 1, Units: 0},
		{Work: 1, C: 1, R: 1, D: 1, Units: 1, Start: -5},
	}
	for i, job := range bad {
		if _, err := Run(context.Background(), job, fixedPolicy{1}, ts); err == nil {
			t.Errorf("case %d: invalid job accepted", i)
		}
	}
	// Trace too small for the job.
	job := &Job{Work: 1, C: 1, R: 1, D: 1, Units: 5}
	if _, err := Run(context.Background(), job, fixedPolicy{1}, ts); err == nil {
		t.Error("undersized trace accepted")
	}
}

type nanPolicy struct{ fixedPolicy }

func (nanPolicy) NextChunk(s *State) float64 { return math.NaN() }

func TestNaNChunkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaN chunk did not panic")
		}
	}()
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	Run(context.Background(), job, nanPolicy{}, manualTrace(1e9, nil)) //nolint:errcheck
}

func TestChunkClamping(t *testing.T) {
	// Chunks larger than the remaining work are clamped, not an error.
	job := &Job{Work: 50, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	res, err := Run(context.Background(), job, fixedPolicy{1e9}, manualTrace(1e9, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 60 || res.Chunks != 1 {
		t.Errorf("clamped run: %+v", res)
	}
}

func TestMorePeriodicCheckpointsUnderFrequentFailures(t *testing.T) {
	// With frequent failures, a sensible period beats both extremes; this
	// is the qualitative U-shape behind every periodic heuristic.
	d := dist.NewExponentialMean(3000)
	job := &Job{Work: 20000, C: 60, R: 60, D: 30, Units: 1, Start: 0}
	sum := map[string]float64{}
	for seed := uint64(0); seed < 40; seed++ {
		ts := trace.GenerateRenewal(d, 1, 1e8, 30, seed)
		for _, p := range []struct {
			name   string
			period float64
		}{{"tiny", 30}, {"good", 600}, {"huge", 20000}} {
			res, err := Run(context.Background(), job, fixedPolicy{p.period}, ts)
			if err != nil {
				t.Fatal(err)
			}
			sum[p.name] += res.Makespan
		}
	}
	if !(sum["good"] < sum["tiny"] && sum["good"] < sum["huge"]) {
		t.Errorf("U-shape violated: tiny=%v good=%v huge=%v", sum["tiny"], sum["good"], sum["huge"])
	}
}
