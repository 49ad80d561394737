package sim

import (
	"context"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/trace"
)

func TestReplicatedSingleReplicaEqualsPlain(t *testing.T) {
	d := dist.WeibullFromMeanShape(2000, 0.7)
	ts := trace.GenerateRenewal(d, 4, 1e7, 30, 3)
	job := &Job{Work: 5000, C: 60, R: 60, D: 30, Units: 4, Start: 100}
	plain, err := Run(context.Background(), job, fixedPolicy{700}, ts)
	if err != nil {
		t.Fatal(err)
	}
	repl, err := RunReplicated(context.Background(), job, fixedPolicy{700}, ts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != repl.Makespan {
		t.Errorf("1-way replication %v != plain %v", repl.Makespan, plain.Makespan)
	}
}

func TestReplicatedNoFailures(t *testing.T) {
	ts := manualTrace(1e9, nil, nil)
	job := &Job{Work: 250, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	res, err := RunReplicated(context.Background(), job, fixedPolicy{100}, ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-280) > 1e-9 { // 250 + 3 checkpoints
		t.Errorf("makespan = %v, want 280", res.Makespan)
	}
	if e := res.AccountingError(); math.Abs(e) > 1e-9 {
		t.Errorf("accounting error %v", e)
	}
}

func TestReplicatedWinnerMasksFailure(t *testing.T) {
	// Group 0's unit fails mid-chunk; group 1 is failure-free, so the
	// chunk commits on group 1's clock with no lost time.
	ts := manualTrace(1e9, []float64{50}, nil)
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	res, err := RunReplicated(context.Background(), job, fixedPolicy{100}, ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-110) > 1e-9 {
		t.Errorf("makespan = %v, want 110 (failure masked)", res.Makespan)
	}
	if res.Failures != 0 || res.LostTime != 0 {
		t.Errorf("winner accounting should be clean: %+v", res)
	}
	// The plain run pays for the failure.
	plain, err := Run(context.Background(), job, fixedPolicy{100}, ts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan <= res.Makespan {
		t.Errorf("replication should win here: plain %v vs repl %v", plain.Makespan, res.Makespan)
	}
}

func TestReplicatedBothGroupsFail(t *testing.T) {
	// Both groups fail during the first attempt; the one that recovers and
	// finishes first wins. Group 0 fails at 50, group 1 at 20: group 1
	// retries from 20+5+7=32 and finishes at 32+110=142; group 0 retries
	// from 62 and would finish at 172.
	ts := manualTrace(1e9, []float64{50}, []float64{20})
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	res, err := RunReplicated(context.Background(), job, fixedPolicy{100}, ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Makespan-142) > 1e-9 {
		t.Errorf("makespan = %v, want 142", res.Makespan)
	}
	if res.Failures != 1 {
		t.Errorf("winner path saw %d failures, want 1", res.Failures)
	}
	if e := res.AccountingError(); math.Abs(e) > 1e-9 {
		t.Errorf("accounting error %v (%+v)", e, res)
	}
}

func TestReplicatedNeverWorseInDistribution(t *testing.T) {
	// Chunk by chunk, the replicated commit time is the min over groups,
	// so with the same per-group unit count the replicated makespan is
	// never above the makespan of its first group alone.
	d := dist.WeibullFromMeanShape(3000, 0.7)
	for seed := uint64(0); seed < 25; seed++ {
		ts := trace.GenerateRenewal(d, 8, 1e7, 30, seed)
		job := &Job{Work: 8000, C: 80, R: 80, D: 30, Units: 4, Start: 200}
		repl, err := RunReplicated(context.Background(), job, fixedPolicy{900}, ts, 2)
		if err != nil {
			t.Fatal(err)
		}
		solo, err := Run(context.Background(), job, fixedPolicy{900}, ts) // group 0's units only
		if err != nil {
			t.Fatal(err)
		}
		if repl.Makespan > solo.Makespan+1e-6 {
			t.Errorf("seed %d: replicated %v worse than its first group alone %v",
				seed, repl.Makespan, solo.Makespan)
		}
		if e := repl.AccountingError(); math.Abs(e) > 1e-6 {
			t.Errorf("seed %d: accounting error %v", seed, e)
		}
		if repl.WorkTime != job.Work {
			t.Errorf("seed %d: work %v", seed, repl.WorkTime)
		}
	}
}

func TestReplicatedTradeoffQuestion(t *testing.T) {
	// The §8 open question: same hardware budget, full platform vs two
	// half-platform replicas. With the embarrassingly parallel model the
	// replica job runs half as fast but masks failures. This test only
	// checks both configurations complete and report sane accounting —
	// which one wins is precisely the open question, so we don't assert it.
	d := dist.WeibullFromMeanShape(40000, 0.7)
	ts := trace.GenerateRenewal(d, 16, 1e8, 60, 9)
	full := &Job{Work: 20000, C: 120, R: 120, D: 60, Units: 16, Start: 500}
	resFull, err := Run(context.Background(), full, fixedPolicy{2500}, ts)
	if err != nil {
		t.Fatal(err)
	}
	half := &Job{Work: 40000, C: 120, R: 120, D: 60, Units: 8, Start: 500}
	resRepl, err := RunReplicated(context.Background(), half, fixedPolicy{2500}, ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]Result{"full": resFull, "replicated": resRepl} {
		if res.WorkTime < res.Makespan*0 { // trivially true; real checks below
			t.Errorf("%s: impossible accounting", name)
		}
		if e := res.AccountingError(); math.Abs(e) > 1e-6 {
			t.Errorf("%s: accounting error %v", name, e)
		}
	}
}

func TestReplicatedValidation(t *testing.T) {
	ts := manualTrace(1e9, nil)
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	if _, err := RunReplicated(context.Background(), job, fixedPolicy{50}, ts, 0); err == nil {
		t.Error("0 replicas accepted")
	}
	if _, err := RunReplicated(context.Background(), job, fixedPolicy{50}, ts, 2); err == nil {
		t.Error("trace too small for 2 replicas accepted")
	}
}

func TestReplicatedPolicySeesWinnerState(t *testing.T) {
	// After a chunk commits, the policy's state must reflect the winning
	// group's unit ages.
	ts := manualTrace(1e9, []float64{30}, nil)
	job := &Job{Work: 200, C: 10, R: 7, D: 5, Units: 1, Start: 0}
	var sawRenewals [][]float64
	pol := &tauProbe{period: 100, probe: func(s *State) {
		cp := append([]float64(nil), s.Renewals...)
		sawRenewals = append(sawRenewals, cp)
	}}
	if _, err := RunReplicated(context.Background(), job, pol, ts, 2); err != nil {
		t.Fatal(err)
	}
	if len(sawRenewals) < 2 {
		t.Fatalf("too few decisions: %d", len(sawRenewals))
	}
	// The winner of chunk 1 is group 1 (failure-free): its unit never
	// failed, so the observed state holds no renewal.
	last := sawRenewals[len(sawRenewals)-1]
	if len(last) != 0 {
		t.Errorf("policy observed renewals %v, want the failure-free group's", last)
	}
}

func TestReplicatedRepeatFailureAtZeroRenewalNotDuplicated(t *testing.T) {
	// With D=0 a failure at time 0 renews at exactly 0, where a dense
	// renewal slice reads "never failed": the unit's next failure must
	// not list it in FailedUnits a second time.
	ts := manualTrace(1e9, []float64{0, 5}, nil)
	job := &Job{Work: 100, C: 10, R: 7, D: 0, Units: 1, Start: 10}
	var failed []int32
	var renewals []float64
	pol := &tauProbe{period: 100, probe: func(s *State) {
		failed = append(failed[:0], s.FailedUnits...)
		renewals = append(renewals[:0], s.Renewals...)
	}}
	if _, err := RunReplicated(context.Background(), job, pol, ts, 2); err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || failed[0] != 0 || len(renewals) != 1 || renewals[0] != 5 {
		t.Fatalf("FailedUnits = %v, Renewals = %v, want [0] and [5]", failed, renewals)
	}
}
