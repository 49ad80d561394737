package policy

import (
	"context"
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/theory"
	"repro/internal/trace"
)

// enumerate all compositions of x into positive parts and return the best
// expected work before failure (Proposition 3 oracle).
func bruteForceNextFailure(d dist.Distribution, taus []float64, c, u float64, x int) float64 {
	best := 0.0
	var rec func(prefix []float64, rem int)
	rec = func(prefix []float64, rem int) {
		if rem == 0 {
			v := theory.ExpectedWorkBeforeFailureMulti(d, taus, c, prefix)
			if v > best {
				best = v
			}
			return
		}
		for i := 1; i <= rem; i++ {
			rec(append(prefix, float64(i)*u), rem-i)
		}
	}
	rec(nil, x)
	return best
}

func dpState(job *sim.Job, now float64, renew []float64) *sim.State {
	s := &sim.State{Job: job, Now: now, Remaining: job.Work}
	for u, r := range renew {
		if r > 0 {
			s.Renew(int32(u), r)
		}
	}
	return s
}

func TestDPNextFailureMatchesBruteForceExponential(t *testing.T) {
	e := dist.NewExponentialMean(5000)
	const x, c = 7, 40.0
	job := &sim.Job{Work: 2100, C: c, R: 50, D: 10, Units: 1}
	// Huge MTBF relative to work so no truncation: u = Work/x.
	p := NewDPNextFailure(e, 1e9, WithQuanta(x), WithFullPlan())
	if err := p.Start(job); err != nil {
		t.Fatal(err)
	}
	s := dpState(job, 100, []float64{0})
	plan, got := p.PlanAndValue(s)
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	u := job.Work / float64(x)
	want := bruteForceNextFailure(e, []float64{100}, c, u, x)
	if math.Abs(got-want) > 1e-6*want {
		t.Errorf("DP value %v vs brute force %v", got, want)
	}
	// The plan itself must achieve the optimal value.
	achieved := theory.ExpectedWorkBeforeFailureMulti(e, []float64{100}, c, plan)
	if math.Abs(achieved-want) > 1e-6*want {
		t.Errorf("plan value %v vs optimum %v (plan %v)", achieved, want, plan)
	}
}

func TestDPNextFailureMatchesBruteForceWeibull(t *testing.T) {
	w := dist.WeibullFromMeanShape(8000, 0.7)
	const x, c = 6, 60.0
	job := &sim.Job{Work: 1800, C: c, R: 50, D: 10, Units: 3}
	p := NewDPNextFailure(w, 1e12, WithQuanta(x), WithFullPlan())
	if err := p.Start(job); err != nil {
		t.Fatal(err)
	}
	now := 4000.0
	renew := []float64{0, 3200, 3900} // unit ages 4000, 800, 100
	s := dpState(job, now, renew)
	plan, got := p.PlanAndValue(s)
	taus := []float64{4000, 800, 100}
	u := job.Work / float64(x)
	want := bruteForceNextFailure(w, taus, c, u, x)
	// The DP uses an interpolated hazard grid; allow a small tolerance.
	if math.Abs(got-want) > 2e-3*want {
		t.Errorf("DP value %v vs brute force %v", got, want)
	}
	achieved := theory.ExpectedWorkBeforeFailureMulti(w, taus, c, plan)
	if achieved < want*(1-5e-3) {
		t.Errorf("plan %v achieves %v, brute force %v", plan, achieved, want)
	}
}

func TestDPNextFailureExponentialPlanDecreases(t *testing.T) {
	// Under the NextFailure objective later chunks are discounted by the
	// accumulated survival probability, so the optimal chunk sizes are
	// non-increasing — the end-of-horizon chunks shrink sharply, which is
	// precisely why the paper executes only the first half of each plan
	// before re-planning (§3.3).
	e := dist.NewExponentialMean(10 * 3600)
	job := &sim.Job{Work: 40000, C: 600, R: 600, D: 60, Units: 1}
	p := NewDPNextFailure(e, 10*3600*10, WithQuanta(100), WithFullPlan())
	if err := p.Start(job); err != nil {
		t.Fatal(err)
	}
	s := dpState(job, 0, []float64{0})
	plan, _ := p.PlanAndValue(s)
	if len(plan) < 3 {
		t.Fatalf("plan too short: %v", plan)
	}
	u := job.Work / 100
	for i := 1; i < len(plan); i++ {
		if plan[i] > plan[i-1]+u/2 {
			t.Errorf("plan not non-increasing at %d: %v", i, plan)
		}
	}
	// The early chunks (the half actually executed) stay within a modest
	// band — no pathological front-loading.
	firstHalf := plan[:(len(plan)+1)/2]
	lo, hi := math.Inf(1), 0.0
	for _, ch := range firstHalf {
		lo = math.Min(lo, ch)
		hi = math.Max(hi, ch)
	}
	if hi > 2*lo {
		t.Errorf("first half of plan too uneven: min %v max %v (%v)", lo, hi, plan)
	}
}

func TestDPNextFailureMultiUnitMatchesAggregatedExponential(t *testing.T) {
	// Four iid exponential units with mean 100,000 behave exactly like a
	// single unit with mean 25,000: the plans and values must agree.
	e := dist.NewExponentialMean(100000)
	agg := dist.NewExponentialMean(25000)
	jobMulti := &sim.Job{Work: 30000, C: 300, R: 300, D: 60, Units: 4}
	jobSingle := &sim.Job{Work: 30000, C: 300, R: 300, D: 60, Units: 1}
	// Match the truncation horizons: unitMean/Units must coincide.
	pm := NewDPNextFailure(e, 4e12, WithQuanta(40), WithFullPlan())
	ps := NewDPNextFailure(agg, 1e12, WithQuanta(40), WithFullPlan())
	if err := pm.Start(jobMulti); err != nil {
		t.Fatal(err)
	}
	if err := ps.Start(jobSingle); err != nil {
		t.Fatal(err)
	}
	sm := dpState(jobMulti, 500, []float64{0, 0, 0, 0})
	ss := dpState(jobSingle, 500, []float64{0})
	// Note: 4 units of age 500 under rate lambda match one unit of age 500
	// under rate 4*lambda (both contribute hazard 4*lambda*(500+t)).
	planM, valM := pm.PlanAndValue(sm)
	planS, valS := ps.PlanAndValue(ss)
	if math.Abs(valM-valS) > 1e-9*valS {
		t.Errorf("multi %v vs aggregated %v", valM, valS)
	}
	if len(planM) != len(planS) {
		t.Fatalf("plans differ in length: %v vs %v", planM, planS)
	}
	for i := range planM {
		if math.Abs(planM[i]-planS[i]) > 1e-9 {
			t.Fatalf("plans differ at %d: %v vs %v", i, planM, planS)
		}
	}
}

func TestDPNextFailureStateApproximationAccuracy(t *testing.T) {
	// §3.3: the approximated age state must give success probabilities
	// within a fraction of a percent of the exact ones (the paper reports
	// worst-case 0.2% for MTBF-sized chunks).
	w := dist.WeibullFromMeanShape(125*365*86400, 0.7)
	units := 2048
	job := &sim.Job{Work: 1e6, C: 600, R: 600, D: 60, Units: units}
	now := 400 * 86400.0
	renew := make([]float64, units)
	// 300 units failed at assorted times.
	for i := 0; i < 300; i++ {
		renew[i] = now * float64(i+1) / 400
	}
	s := dpState(job, now, renew)
	p := NewDPNextFailure(w, 125*365*86400, WithStateApprox(10, 100))
	groups := p.planner.buildGroups(s)
	// Exact and approximate success probability over various windows.
	platformMTBF := 125.0 * 365 * 86400 / float64(units)
	for _, frac := range []float64{1.0 / 64, 1.0 / 16, 1.0 / 4, 1} {
		x := platformMTBF * frac
		exact := 0.0
		for u := 0; u < units; u++ {
			exact += w.CumHazard(now-renew[u]+x) - w.CumHazard(now-renew[u])
		}
		approx := 0.0
		for _, g := range groups {
			approx += g.weight * (w.CumHazard(g.tau+x) - w.CumHazard(g.tau))
		}
		pe := math.Exp(-exact)
		pa := math.Exp(-approx)
		if rel := math.Abs(pa-pe) / pe; rel > 0.002 {
			t.Errorf("window %.4g: approx Psuc %v vs exact %v (rel err %v)", x, pa, pe, rel)
		}
	}
	// The grouping must conserve the unit count.
	var total float64
	for _, g := range groups {
		total += g.weight
	}
	if math.Abs(total-float64(units)) > 1e-9 {
		t.Errorf("group weights sum to %v, want %d", total, units)
	}
}

func TestDPNextFailureThroughSimulator(t *testing.T) {
	w := dist.WeibullFromMeanShape(20000, 0.7)
	job := &sim.Job{Work: 30000, C: 200, R: 200, D: 60, Units: 4, Start: 1000}
	p := NewDPNextFailure(w, 20000, WithQuanta(60))
	ts := trace.GenerateRenewal(w, 4, 1e8, 60, 11)
	res, err := sim.Run(context.Background(), job, p, ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkTime < job.Work-1e-6 {
		t.Errorf("incomplete work: %+v", res)
	}
	if e := res.AccountingError(); math.Abs(e) > 1e-6 {
		t.Errorf("accounting error %v", e)
	}
	if res.Chunks == 0 {
		t.Error("no committed chunks")
	}
}

func TestDPNextFailureHalfPlanReplans(t *testing.T) {
	// With truncation active, the executed plan must be re-solved before
	// the truncated horizon is exhausted; we just verify the policy keeps
	// producing chunks beyond the first horizon.
	e := dist.NewExponentialMean(10000)
	job := &sim.Job{Work: 200000, C: 100, R: 100, D: 10, Units: 1}
	p := NewDPNextFailure(e, 10000, WithQuanta(50))
	if err := p.Start(job); err != nil {
		t.Fatal(err)
	}
	ts := &trace.Set{Horizon: 1e9, Units: []trace.Trace{{}}}
	res, err := sim.Run(context.Background(), job, p, ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkTime < job.Work-1e-3 {
		t.Errorf("did not complete: %+v", res)
	}
}

func TestDPNextFailureStartValidation(t *testing.T) {
	e := dist.NewExponentialMean(100)
	job := &sim.Job{Work: 100, C: 1, R: 1, D: 1, Units: 1}
	if err := NewDPNextFailure(e, 100, WithQuanta(1)).Start(job); err == nil {
		t.Error("1 quantum accepted")
	}
	if err := NewDPNextFailure(e, 0).Start(job); err == nil {
		t.Error("zero MTBF accepted")
	}
}

func TestDPMakespanMatchesTheorem1(t *testing.T) {
	// For exponential failures the DP must approach the analytical optimum
	// of Theorem 1 as the quantum shrinks.
	const w, c, r, d = 86400.0, 600.0, 600.0, 60.0
	lambda := 1.0 / 21600 // MTBF 6h
	e := dist.NewExponentialRate(lambda)
	table, err := BuildDPMakespanTable(e, w, c, r, d, 0, 96)
	if err != nil {
		t.Fatal(err)
	}
	want, err := theory.ExpectedMakespanExp(w, lambda, c, d, r)
	if err != nil {
		t.Fatal(err)
	}
	got := table.ExpectedMakespan()
	// The DP is restricted to quantized chunks, so it is >= the continuous
	// optimum, and should be within a couple percent of it.
	if got < want*(1-1e-3) {
		t.Errorf("DP value %v below the analytic optimum %v", got, want)
	}
	if got > want*1.02 {
		t.Errorf("DP value %v too far above optimum %v", got, want)
	}
}

func TestDPMakespanBeatsEqualChunkRestrictions(t *testing.T) {
	// The DP's value must be <= the expected makespan of every equal-chunk
	// strategy expressible on its grid (K dividing the quanta count).
	const w, c, r, d = 40000.0, 300.0, 300.0, 30.0
	lambda := 1.0 / 9000
	e := dist.NewExponentialRate(lambda)
	const x = 60
	table, err := BuildDPMakespanTable(e, w, c, r, d, 0, x)
	if err != nil {
		t.Fatal(err)
	}
	got := table.ExpectedMakespan()
	for _, k := range []int{1, 2, 3, 4, 5, 6, 10, 12, 15, 20, 30, 60} {
		ref := theory.ExpectedMakespanExpK(w, lambda, c, d, r, k)
		if got > ref*(1+1e-9) {
			t.Errorf("DP %v worse than equal-chunk K=%d (%v)", got, k, ref)
		}
	}
}

func TestDPMakespanPolicyThroughSimulator(t *testing.T) {
	const w, c, r, d = 40000.0, 300.0, 300.0, 30.0
	e := dist.NewExponentialMean(9000)
	table, err := BuildDPMakespanTable(e, w, c, r, d, 0, 60)
	if err != nil {
		t.Fatal(err)
	}
	job := &sim.Job{Work: w, C: c, R: r, D: d, Units: 1}
	var totalDP, totalOpt float64
	opt := MustOptExp(w, 1.0/9000, c)
	for seed := uint64(0); seed < 40; seed++ {
		ts := trace.GenerateRenewal(e, 1, 1e8, d, seed)
		resDP, err := sim.Run(context.Background(), job, NewDPMakespan(table), ts)
		if err != nil {
			t.Fatal(err)
		}
		if e := resDP.AccountingError(); math.Abs(e) > 1e-6 {
			t.Fatalf("accounting error %v", e)
		}
		resOpt, err := sim.Run(context.Background(), job, opt, ts)
		if err != nil {
			t.Fatal(err)
		}
		totalDP += resDP.Makespan
		totalOpt += resOpt.Makespan
	}
	// DPMakespan should be competitive with the analytic optimum (within
	// quantization noise) on exponential failures.
	if totalDP > totalOpt*1.05 {
		t.Errorf("DPMakespan total %v vs OptExp %v", totalDP, totalOpt)
	}
}

func TestDPMakespanWeibullBuilds(t *testing.T) {
	wb := dist.WeibullFromMeanShape(9000, 0.7)
	table, err := BuildDPMakespanTable(wb, 30000, 300, 300, 30, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	v := table.ExpectedMakespan()
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 30000 {
		t.Errorf("Weibull DP expected makespan %v", v)
	}
	// And run it.
	job := &sim.Job{Work: 30000, C: 300, R: 300, D: 30, Units: 1}
	ts := trace.GenerateRenewal(wb, 1, 1e8, 30, 5)
	res, err := sim.Run(context.Background(), job, NewDPMakespan(table), ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkTime < 30000-1e-6 {
		t.Errorf("incomplete: %+v", res)
	}
}

// TestDPMakespanTableKeepsOnlyChoices pins what a solved table keeps: a
// run's walk reads only the choice tables, so the solve's value tables
// and survival grids are dropped and SizeBytes weighs what is left.
func TestDPMakespanTableKeepsOnlyChoices(t *testing.T) {
	table, err := BuildDPMakespanTable(dist.WeibullFromMeanShape(9000, 0.7), 30000, 300, 300, 30, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	if table.valFresh != nil || table.valPost != nil || table.gridFresh != nil || table.gridPost != nil {
		t.Fatal("a solved table keeps its value tables or survival grids")
	}
	if want := int64(len(table.choiceFresh)+len(table.choicePost))*4 + 256; table.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d (the choice tables)", table.SizeBytes(), want)
	}
}

func TestDPMakespanJobMismatch(t *testing.T) {
	e := dist.NewExponentialMean(1000)
	table, err := BuildDPMakespanTable(e, 1000, 10, 10, 1, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	job := &sim.Job{Work: 2000, C: 10, R: 10, D: 1, Units: 1}
	if err := NewDPMakespan(table).Start(job); err == nil {
		t.Error("work mismatch accepted")
	}
}

func TestDPMakespanBuildValidation(t *testing.T) {
	e := dist.NewExponentialMean(1000)
	if _, err := BuildDPMakespanTable(e, 0, 1, 1, 1, 0, 10); err == nil {
		t.Error("zero work accepted")
	}
	if _, err := BuildDPMakespanTable(e, 100, -1, 1, 1, 0, 10); err == nil {
		t.Error("negative C accepted")
	}
	if _, err := BuildDPMakespanTable(e, 100, 1, 1, 1, 0, 1); err == nil {
		t.Error("1 quantum accepted")
	}
	if _, err := BuildDPMakespanTable(e, 100, 1, 1, 1, -1, 10); err == nil {
		t.Error("negative tau0 accepted")
	}
}

func TestDPMakespanFirstChunkMatchesOptimalK(t *testing.T) {
	// The first chunk chosen by the DP should be close to W/K* from
	// Theorem 1.
	const w, c, r, d = 86400.0, 600.0, 600.0, 60.0
	lambda := 1.0 / 21600
	e := dist.NewExponentialRate(lambda)
	table, err := BuildDPMakespanTable(e, w, c, r, d, 0, 96)
	if err != nil {
		t.Fatal(err)
	}
	_, kStar, period, err := theory.OptimalExp(w, lambda, c)
	if err != nil {
		t.Fatal(err)
	}
	job := &sim.Job{Work: w, C: c, R: r, D: d, Units: 1}
	pol := NewDPMakespan(table)
	if err := pol.Start(job); err != nil {
		t.Fatal(err)
	}
	s := &sim.State{Job: job, Remaining: w}
	first := pol.NextChunk(s)
	if math.Abs(first-period) > 2*table.Quantum() {
		t.Errorf("first chunk %v vs optimal period %v (K*=%d, u=%v)", first, period, kStar, table.Quantum())
	}
}
