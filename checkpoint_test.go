package checkpoint_test

import (
	"context"
	"math"
	"testing"

	checkpoint "repro"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	// Build a failure law, generate traces, run three policies, compare.
	law := checkpoint.WeibullFromMeanShape(20000, 0.7)
	traces := checkpoint.GenerateTraces(law, 8, 1e8, 60, 42)
	job := &checkpoint.Job{Work: 40000, C: 300, R: 300, D: 60, Units: 8, Start: 1000}

	young := checkpoint.NewYoung(job.C, law.Mean()/8)
	resYoung, err := checkpoint.Simulate(context.Background(), job, young, traces)
	if err != nil {
		t.Fatal(err)
	}
	dpnf := checkpoint.NewDPNextFailure(law, law.Mean(), checkpoint.WithQuanta(60))
	resDPNF, err := checkpoint.Simulate(context.Background(), job, dpnf, traces)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := checkpoint.SimulateLowerBound(context.Background(), job, traces)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]checkpoint.Result{"young": resYoung, "dpnf": resDPNF} {
		if res.WorkTime < job.Work-1e-6 {
			t.Errorf("%s: incomplete work %v", name, res.WorkTime)
		}
		if lb.Makespan > res.Makespan+1e-6 {
			t.Errorf("%s: lower bound %v above policy %v", name, lb.Makespan, res.Makespan)
		}
		if e := res.AccountingError(); math.Abs(e) > 1e-6 {
			t.Errorf("%s: accounting error %v", name, e)
		}
	}
}

func TestPublicTheory(t *testing.T) {
	k0, kStar, period, err := checkpoint.OptimalExp(20*checkpoint.Day, 1/checkpoint.Day, 600)
	if err != nil {
		t.Fatal(err)
	}
	if kStar < 1 || period <= 0 || math.Abs(float64(kStar)-k0) > 1 {
		t.Errorf("OptimalExp: k0=%v k*=%d period=%v", k0, kStar, period)
	}
	et, err := checkpoint.ExpectedMakespanExp(20*checkpoint.Day, 1/checkpoint.Day, 600, 60, 600)
	if err != nil {
		t.Fatal(err)
	}
	if et <= 20*checkpoint.Day {
		t.Errorf("E(T*) = %v below failure-free time", et)
	}
	law := checkpoint.WeibullFromMeanShape(10000, 0.7)
	if v := checkpoint.ExpTlost(law, 500, 100); v < 0 || v > 500 {
		t.Errorf("ExpTlost = %v", v)
	}
	if v := checkpoint.ExpTrec(law, 60, 600); v < 660 {
		t.Errorf("ExpTrec = %v", v)
	}
}

func TestPublicRejuvenationAnalysis(t *testing.T) {
	w := checkpoint.WeibullFromMeanShape(125*checkpoint.Year, 0.7)
	all := checkpoint.PlatformMTBFRejuvenateAll(w, 45208, 60)
	single := checkpoint.PlatformMTBFSingleRejuvenation(w.Mean(), 45208, 60)
	if single <= all {
		t.Errorf("single rejuvenation MTBF %v should beat all-rejuvenation %v at scale", single, all)
	}
}

func TestPublicEvaluate(t *testing.T) {
	spec := checkpoint.OneProcPlatform(8000)
	spec.W = 30000
	spec.CBase, spec.RBase = 300, 300
	sc := checkpoint.Scenario{
		Name: "public", Spec: spec, P: 1,
		Dist:     checkpoint.NewExponentialMean(8000),
		Overhead: checkpoint.OverheadConstant,
		Work:     checkpoint.Work{Model: checkpoint.WorkEmbarrassing},
		Horizon:  1e8, Traces: 8, Seed: 3,
	}
	eng := checkpoint.DefaultEngine()
	std := checkpoint.StandardSpec{DPNextFailureQuanta: 40, IncludeLiu: true, IncludeBouguerra: true}
	cands, err := checkpoint.StandardCandidates(context.Background(), eng, sc, std)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := checkpoint.Evaluate(context.Background(), eng, sc, cands)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Degradation["LowerBound"].Mean > 1 {
		t.Error("lower bound degradation above 1")
	}
	if len(ev.Order) < 5 {
		t.Errorf("too few policies evaluated: %v", ev.Order)
	}
}

func TestPublicDPMakespan(t *testing.T) {
	law := checkpoint.NewExponentialMean(9000)
	table, err := checkpoint.BuildDPMakespanTable(law, 30000, 300, 300, 60, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	traces := checkpoint.GenerateTraces(law, 1, 1e8, 60, 9)
	job := &checkpoint.Job{Work: 30000, C: 300, R: 300, D: 60, Units: 1}
	res, err := checkpoint.Simulate(context.Background(), job, checkpoint.NewDPMakespan(table), traces)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkTime < 30000-1e-6 {
		t.Errorf("incomplete: %+v", res)
	}
}

func TestPublicLogPipeline(t *testing.T) {
	log := checkpoint.SyntheticLog(checkpoint.Cluster19, 5000, 1)
	emp := checkpoint.NewEmpirical(log)
	if emp.Mean() <= 0 {
		t.Fatal("empty empirical law")
	}
	spec := checkpoint.LANLNodesPlatform(emp.Mean())
	if spec.ProcsPerUnit != 4 {
		t.Errorf("LANL platform procs/unit = %d", spec.ProcsPerUnit)
	}
}
