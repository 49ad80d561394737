package policy

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/theory"
	"repro/internal/trace"
)

func TestYoungDalyPeriods(t *testing.T) {
	const c, mtbf, d, r = 600.0, 86400.0, 60.0, 600.0
	young := NewYoung(c, mtbf)
	wantYoung := math.Sqrt(2 * c * mtbf)
	if math.Abs(young.Period()-wantYoung) > 1e-9 {
		t.Errorf("Young period %v, want %v", young.Period(), wantYoung)
	}
	low := NewDalyLow(c, mtbf, d, r)
	wantLow := math.Sqrt(2 * c * (mtbf + d + r))
	if math.Abs(low.Period()-wantLow) > 1e-9 {
		t.Errorf("DalyLow period %v, want %v", low.Period(), wantLow)
	}
	if low.Period() <= young.Period() {
		t.Error("DalyLow must exceed Young (it adds D+R to the MTBF)")
	}
	high := NewDalyHigh(c, mtbf)
	if high.Period() <= 0 {
		t.Errorf("DalyHigh period %v", high.Period())
	}
	// The higher-order estimate is below the first-order one (the -C term).
	if high.Period() >= young.Period() {
		t.Errorf("DalyHigh %v should be below Young %v for these parameters", high.Period(), young.Period())
	}
}

func TestDalyHighLargeCRegime(t *testing.T) {
	// When C >= 2M Daly's estimate degenerates to the MTBF itself.
	p := NewDalyHigh(500, 200)
	if p.Period() != 200 {
		t.Errorf("DalyHigh period %v, want MTBF 200", p.Period())
	}
}

func TestPeriodicPolicyBehaviour(t *testing.T) {
	p := NewPeriodic("test", 100)
	job := &sim.Job{Work: 250, C: 10, R: 10, D: 10, Units: 1}
	if err := p.Start(job); err != nil {
		t.Fatal(err)
	}
	s := &sim.State{Job: job, Remaining: 250}
	if got := p.NextChunk(s); got != 100 {
		t.Errorf("chunk = %v", got)
	}
	s.Remaining = 42
	if got := p.NextChunk(s); got != 42 {
		t.Errorf("tail chunk = %v", got)
	}
	bad := NewPeriodic("bad", 0)
	if err := bad.Start(job); err == nil {
		t.Error("zero period accepted")
	}
	inf := NewPeriodic("inf", math.Inf(1))
	if err := inf.Start(job); err == nil {
		t.Error("infinite period accepted")
	}
}

func TestOptExpMatchesTheory(t *testing.T) {
	const w, c = 698000.0, 600.0
	rate := 45208.0 / (125 * 365 * 86400)
	p, err := NewOptExp(w, rate, c)
	if err != nil {
		t.Fatal(err)
	}
	_, kStar, period, err := theory.OptimalExp(w, rate, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Period()-period) > 1e-9 {
		t.Errorf("OptExp period %v, want %v (K*=%d)", p.Period(), period, kStar)
	}
	if _, err := NewOptExp(-1, rate, c); err == nil {
		t.Error("invalid work accepted")
	}
}

func TestOptExpNearDalyHighForSmallLambdaC(t *testing.T) {
	// §5.1.1: DalyHigh and OptExp behave almost identically.
	const w, c = 698000.0, 600.0
	rate := 45208.0 / (125 * 365 * 86400)
	opt := MustOptExp(w, rate, c)
	high := NewDalyHigh(c, 1/rate)
	ratio := opt.Period() / high.Period()
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("OptExp %v vs DalyHigh %v: ratio %v", opt.Period(), high.Period(), ratio)
	}
}

func TestBouguerraExponentialClosesToOptExp(t *testing.T) {
	// With k=1 the rejuvenation assumption is harmless (memorylessness):
	// Bouguerra's period should be within a few percent of OptExp's.
	const w, c, d, r = 698000.0, 600.0, 60.0, 600.0
	units := 45208
	procMean := 125.0 * 365 * 86400
	e := dist.NewExponentialMean(procMean)
	b, err := NewBouguerra(w, units, e, c, d, r)
	if err != nil {
		t.Fatal(err)
	}
	opt := MustOptExp(w, float64(units)/procMean, c)
	ratio := b.Period() / opt.Period()
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("Bouguerra %v vs OptExp %v (ratio %v)", b.Period(), opt.Period(), ratio)
	}
}

func TestBouguerraOverCheckpointsForSmallShape(t *testing.T) {
	// §5.2.2: under Weibull k<1 the fresh-platform assumption inflates the
	// early failure rate, so Bouguerra picks a much shorter period than
	// OptExp-with-matching-MTBF.
	const w, c, d, r = 698000.0, 600.0, 60.0, 600.0
	units := 45208
	procMean := 125.0 * 365 * 86400
	wb := dist.WeibullFromMeanShape(procMean, 0.7)
	b, err := NewBouguerra(w, units, wb, c, d, r)
	if err != nil {
		t.Fatal(err)
	}
	opt := MustOptExp(w, float64(units)/procMean, c)
	if b.Period() >= opt.Period() {
		t.Errorf("Bouguerra period %v should be below OptExp %v under k=0.7", b.Period(), opt.Period())
	}
	if b.Period() < 0.05*opt.Period() {
		t.Errorf("Bouguerra period %v implausibly small vs OptExp %v", b.Period(), opt.Period())
	}
}

func TestBouguerraUnsupportedDistribution(t *testing.T) {
	emp := dist.NewEmpirical([]float64{1, 2, 3})
	if _, err := NewBouguerra(1000, 4, emp, 10, 1, 10); err == nil {
		t.Error("Bouguerra should reject empirical laws")
	}
}

func TestLiuExponentialFeasible(t *testing.T) {
	// Single processor, moderate MTBF: the schedule must exist with
	// strictly increasing dates and intervals above C.
	e := dist.NewExponentialMean(86400)
	l, err := NewLiu(20*86400, 1, e, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Feasible() {
		t.Fatal("Liu schedule infeasible for 1-proc exponential")
	}
	dates := l.Dates()
	if len(dates) < 2 {
		t.Fatalf("schedule too short: %d dates", len(dates))
	}
	prev := 0.0
	for i, d := range dates {
		if d-prev <= 600 {
			t.Fatalf("interval %d = %v <= C", i, d-prev)
		}
		prev = d
	}
}

func TestLiuIntervalsGrowForDecreasingHazard(t *testing.T) {
	// For k<1 the frequency function decreases, so intervals lengthen.
	wb := dist.WeibullFromMeanShape(86400, 0.7)
	l, err := NewLiu(5*86400, 1, wb, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Feasible() {
		t.Skip("schedule infeasible at this scale")
	}
	dates := l.Dates()
	if len(dates) < 4 {
		t.Skip("not enough dates")
	}
	first := dates[1] - dates[0]
	later := dates[3] - dates[2]
	if later < first {
		t.Errorf("intervals should grow: first=%v later=%v", first, later)
	}
}

func TestLiuInfeasibleOnLargePlatforms(t *testing.T) {
	// §5.2.2 footnote 2 and §5.2.2's Figure 5 discussion: for small shape
	// parameters and large platforms Liu's early checkpoint intervals fall
	// below C and the schedule is nonsensical. Our reconstruction turns
	// infeasible at Exascale scale for k=0.7 and already at Petascale
	// scale for k=0.5.
	cases := []struct {
		shape float64
		units int
	}{
		{0.7, 1 << 20}, // Exascale, k = 0.7
		{0.5, 45208},   // Petascale, k = 0.5
		{0.33, 45208},  // Petascale, smallest published LANL shape
	}
	for _, cse := range cases {
		wb := dist.WeibullFromMeanShape(125*365*86400, cse.shape)
		l, err := NewLiu(698000, cse.units, wb, 600)
		if err != nil {
			t.Fatal(err)
		}
		if l.Feasible() {
			t.Errorf("k=%v units=%d: Liu should be infeasible", cse.shape, cse.units)
			continue
		}
		job := &sim.Job{Work: 698000, C: 600, R: 600, D: 60, Units: cse.units}
		if err := l.Start(job); err == nil {
			t.Errorf("k=%v units=%d: Start should fail", cse.shape, cse.units)
		}
	}
}

func TestLiuShortEarlyIntervalsAtPetascaleWeibull(t *testing.T) {
	// At k=0.7 / 45,208 processors our reconstruction remains (barely)
	// feasible but its early intervals are several times shorter than the
	// optimal ~3,000-6,000 s chunks, which is what drives Liu's poor
	// degradation in the paper's Figure 4.
	wb := dist.WeibullFromMeanShape(125*365*86400, 0.7)
	l, err := NewLiu(698000, 45208, wb, 600)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Feasible() {
		t.Skip("schedule infeasible at this scale in this reconstruction")
	}
	dates := l.Dates()
	if first := dates[0]; first-600 > 2000 {
		t.Errorf("first Liu work interval %v s; expected well below the ~3,000 s optimum", first-600)
	}
}

func TestLiuThroughSimulator(t *testing.T) {
	e := dist.NewExponentialMean(7200)
	l, err := NewLiu(20000, 1, e, 60)
	if err != nil {
		t.Fatal(err)
	}
	ts := trace.GenerateRenewal(e, 1, 1e8, 60, 3)
	job := &sim.Job{Work: 20000, C: 60, R: 60, D: 60, Units: 1}
	res, err := sim.Run(context.Background(), job, l, ts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WorkTime < 20000-1e-6 {
		t.Errorf("Liu run did not complete the work: %+v", res)
	}
	if e := res.AccountingError(); math.Abs(e) > 1e-6 {
		t.Errorf("accounting error %v", e)
	}
}

// TestLiuRunsShareScheduleWithOwnCursors runs simulations concurrently
// on instances that share one schedule (Liu.NewPolicy), each on its own
// failure trace: every run must equal a run on a schedule of its own, so
// no run moves another's cursor. Run it under -race.
func TestLiuRunsShareScheduleWithOwnCursors(t *testing.T) {
	wb := dist.WeibullFromMeanShape(86400, 0.7)
	job := &sim.Job{Work: 20 * 86400, C: 600, R: 600, D: 60, Units: 1}
	shared, err := NewLiu(job.Work, 1, wb, job.C)
	if err != nil {
		t.Fatal(err)
	}
	dates := shared.Dates()

	// Interleaved by hand: one run's commit must not move the other's
	// cursor.
	a, b := shared.NewPolicy(), shared.NewPolicy()
	for _, l := range []*Liu{a, b} {
		if err := l.Start(job); err != nil {
			t.Fatal(err)
		}
	}
	s := &sim.State{Job: job, Remaining: job.Work}
	first := a.NextChunk(s)
	a.OnChunkCommitted(s, first)
	if got := b.NextChunk(s); got != first {
		t.Fatalf("second run's first chunk %v, want %v (the first run's)", got, first)
	}

	const runs = 6
	got := make([]sim.Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ts := trace.GenerateRenewal(wb, 1, 1e9, job.D, uint64(i+1))
			got[i], errs[i] = sim.Run(context.Background(), job, shared.NewPolicy(), ts)
		}()
	}
	wg.Wait()
	for i := range runs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		own, err := NewLiu(job.Work, 1, wb, job.C)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(context.Background(), job, own, trace.GenerateRenewal(wb, 1, 1e9, job.D, uint64(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Errorf("run %d on the shared schedule: %+v, on its own: %+v", i, got[i], want)
		}
		if got[i].Failures == 0 {
			t.Errorf("run %d met no failure, so its cursor never reset", i)
		}
	}
	if !slices.Equal(shared.Dates(), dates) {
		t.Error("runs changed the shared schedule")
	}
}

func TestLiuRejectsUnsupported(t *testing.T) {
	emp := dist.NewEmpirical([]float64{1, 2, 3})
	if _, err := NewLiu(100, 1, emp, 1); err == nil {
		t.Error("Liu should reject empirical laws")
	}
	if _, err := NewLiu(0, 1, dist.NewExponentialMean(10), 1); err == nil {
		t.Error("Liu should reject zero work")
	}
}

func TestAggregateRenewal(t *testing.T) {
	e := dist.NewExponentialMean(1000)
	ae, err := AggregateRenewal(e, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ae.Mean()-100) > 1e-9 {
		t.Errorf("aggregated exponential mean %v, want 100", ae.Mean())
	}
	w := dist.NewWeibull(0.5, 1000)
	aw, err := AggregateRenewal(w, 16)
	if err != nil {
		t.Fatal(err)
	}
	ww := aw.(dist.Weibull)
	// scale / p^(1/k) = 1000 / 16^2 = 3.90625.
	if math.Abs(ww.Scale-1000.0/256) > 1e-9 || ww.Shape != 0.5 {
		t.Errorf("aggregated weibull = %+v", ww)
	}
	// Sanity: survival of the aggregate equals the product of unit
	// survivals (law of the minimum).
	for _, x := range []float64{10, 100, 1000} {
		want := math.Pow(w.Survival(x), 16)
		if got := aw.Survival(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("min-law survival at %v: %v vs %v", x, got, want)
		}
	}
}
