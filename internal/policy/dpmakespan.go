package policy

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/theory"
)

// DPMakespanTable is the memoized solution of Algorithm 1 (DPMakespan):
// the dynamic program that minimizes the expected makespan for arbitrary
// failure distributions on a single processor (or on the paper's
// aggregated macro-processor for parallel jobs, which deliberately assumes
// all-processor rejuvenation, §3.2).
//
// States follow the paper's (x, b, y) encoding: x quanta of work remain, b
// records whether a failure has occurred since the job started, and y*u is
// the execution time elapsed since the last renewal — the processor's age
// is tau0 + y*u while failure-free and y*u (starting at y = R/u)
// afterwards. Checkpoint and recovery durations are rounded to whole
// quanta inside the age bookkeeping (exact values are used for the success
// probabilities and time accounting), which is the paper's quantization.
//
// The post-failure column (x, 0, R/u) is self-referential through its own
// failure branch; its Bellman equation is affine in itself and solved in
// closed form per candidate chunk (the minimum of per-candidate affine
// fixed points is the fixed point of the minimum because every slope 1-P
// is below 1).
//
// For Exponential failures the age coordinate is irrelevant
// (memorylessness), and the table collapses to a one-dimensional exact DP
// over x, which permits very fine quanta.
//
// The table is immutable after construction and safely shared by
// concurrent runs. It keeps only what a run's walk reads, the choice
// tables, and the root state's expected makespan: the value tables and
// survival grids of the solve are dropped once it ends.
type DPMakespanTable struct {
	d          dist.Distribution
	work       float64
	c, r, down float64
	tau0       float64
	x          int
	u          float64
	eTrec      float64
	root       float64 // expected makespan from the initial state

	// Generic (x, b, y) tables. yMax bounds the age coordinate. The value
	// tables and grids live only while solveGeneric runs.
	cq, rq      int
	yMax        int
	valFresh    []float64
	valPost     []float64
	choiceFresh []int32
	choicePost  []int32
	gridFresh   *tlostGrid
	gridPost    *tlostGrid

	// Exponential fast path (expo != nil): 1-D exact DP.
	expo      *dist.Exponential
	choiceExp []int32
}

// tlostGrid tabulates the conditional survival S(base+t)/S(base) and its
// running integral on a uniform grid, so that success probabilities and
// E(Tlost) lookups inside the DP are O(1).
type tlostGrid struct {
	step float64
	s    []float64 // S(base + t) / S(base)
	in   []float64 // integral of s over [0, t]
}

func newTlostGrid(d dist.Distribution, base, tmax float64, points int) *tlostGrid {
	g := &tlostGrid{step: tmax / float64(points)}
	g.s = make([]float64, points+2)
	g.in = make([]float64, points+2)
	prev := 1.0
	g.s[0] = 1
	for j := 1; j < len(g.s); j++ {
		t := float64(j) * g.step
		cur := d.CondSurvival(t, base)
		g.s[j] = cur
		g.in[j] = g.in[j-1] + (prev+cur)/2*g.step
		prev = cur
	}
	return g
}

func (g *tlostGrid) survival(t float64) float64 {
	if t <= 0 {
		return 1
	}
	f := t / g.step
	i := int(f)
	if i >= len(g.s)-1 {
		return g.s[len(g.s)-1]
	}
	frac := f - float64(i)
	return g.s[i]*(1-frac) + g.s[i+1]*frac
}

func (g *tlostGrid) integral(t float64) float64 {
	if t <= 0 {
		return 0
	}
	f := t / g.step
	i := int(f)
	if i >= len(g.in)-1 {
		return g.in[len(g.in)-1]
	}
	frac := f - float64(i)
	return g.in[i]*(1-frac) + g.in[i+1]*frac
}

// psuc returns P(no failure while elapsed goes from a to a+len | age base+a).
func (g *tlostGrid) psuc(a, length float64) float64 {
	sa := g.survival(a)
	if sa <= 0 {
		return 0
	}
	return g.survival(a+length) / sa
}

// tlost returns E(Tlost(length | age base+a)): expected time into the
// attempt at which the failure strikes, conditioned on striking.
func (g *tlostGrid) tlost(a, length float64) float64 {
	sa := g.survival(a)
	sb := g.survival(a + length)
	denom := sa - sb
	if denom < 1e-15 {
		return length / 2
	}
	v := (g.integral(a+length) - g.integral(a) - length*sb) / denom
	return math.Min(math.Max(v, 0), length)
}

// BuildDPMakespanTable constructs the DP table. The distribution is the
// failure law of the (macro-)processor; tau0 is the age at job release;
// quanta sets the resolution (the paper's u is work/quanta).
func BuildDPMakespanTable(d dist.Distribution, work, c, r, down, tau0 float64, quanta int) (*DPMakespanTable, error) {
	switch {
	case !(work > 0):
		return nil, fmt.Errorf("policy: DPMakespan: non-positive work %v", work)
	case c < 0 || r < 0 || down < 0:
		return nil, fmt.Errorf("policy: DPMakespan: negative overheads C=%v R=%v D=%v", c, r, down)
	case quanta < 2:
		return nil, fmt.Errorf("policy: DPMakespan: need at least 2 quanta, got %d", quanta)
	case tau0 < 0:
		return nil, fmt.Errorf("policy: DPMakespan: negative tau0 %v", tau0)
	}
	x := quanta
	t := &DPMakespanTable{
		d:     d,
		work:  work,
		c:     c,
		r:     r,
		down:  down,
		tau0:  tau0,
		x:     x,
		u:     work / float64(x),
		eTrec: theory.ExpTrec(d, down, r),
	}
	if math.IsInf(t.eTrec, 1) {
		return nil, fmt.Errorf("policy: DPMakespan: recovery can never succeed (E(Trec) infinite)")
	}
	if e, ok := d.(dist.Exponential); ok {
		t.expo = &e
		t.solveExponential()
	} else {
		t.solveGeneric()
	}
	if math.IsInf(t.root, 1) || math.IsNaN(t.root) {
		return nil, fmt.Errorf("policy: DPMakespan: root state has no finite expected makespan")
	}
	return t, nil
}

// solveExponential runs the exact memoryless DP: every state's failure
// branch points to itself (age is irrelevant), so
//
//	E(x) = min_i [ P_i (len_i + E(x-i)) + (1-P_i)(lost_i + E(Trec)) ] / P_i.
func (t *DPMakespanTable) solveExponential() {
	lambda := t.expo.Lambda
	val := make([]float64, t.x+1)
	t.choiceExp = make([]int32, t.x+1)
	for x := 1; x <= t.x; x++ {
		best := math.Inf(1)
		bestI := int32(0)
		for i := 1; i <= x; i++ {
			length := float64(i)*t.u + t.c
			p := math.Exp(-lambda * length)
			if p <= 0 {
				continue
			}
			lost := theory.ExpTlostExp(lambda, length)
			cur := (p*(length+val[x-i]) + (1-p)*(lost+t.eTrec)) / p
			if cur < best {
				best = cur
				bestI = int32(i)
			}
		}
		val[x] = best
		t.choiceExp[x] = bestI
	}
	t.root = val[t.x]
}

// solveGeneric runs the (x, b, y) DP bottom-up over x, then keeps the
// root value and drops the value tables and grids.
func (t *DPMakespanTable) solveGeneric() {
	t.cq = int(math.Round(t.c / t.u))
	t.rq = int(math.Round(t.r / t.u))
	// Max age coordinate: starting at rq, every chunk adds <= x + cq.
	t.yMax = t.rq + t.x*(1+t.cq) + 1
	size := (t.x + 1) * (t.yMax + 1)
	t.valFresh = makeNaN(size)
	t.valPost = makeNaN(size)
	t.choiceFresh = make([]int32, size)
	t.choicePost = make([]int32, size)

	tmax := float64(t.yMax)*t.u + float64(t.x)*t.u + t.c + t.r + t.u
	points := 4 * (t.x + t.yMax)
	if points < 2048 {
		points = 2048
	}
	if points > 1<<16 {
		points = 1 << 16
	}
	t.gridFresh = newTlostGrid(t.d, t.tau0, tmax, points)
	t.gridPost = newTlostGrid(t.d, 0, tmax, points)

	// Bottom-up in x: successors of (x, ...) all have smaller x, and the
	// failure branch of every state is (post, x, rq), computed first for
	// each x via its closed-form self-reference. Only reachable ages are
	// solved: committing (x.total - x) quanta over n chunks advances y by
	// (x.total - x) + n*cq <= (x.total - x)(1 + cq).
	for x := 1; x <= t.x; x++ {
		t.solveSelfRef(x)
		failTail := t.valPost[t.idx(x, t.rq)]
		yReach := (t.x-x)*(1+t.cq) + 1
		for y := 0; y <= yReach && y <= t.yMax; y++ {
			if y != 0 && y+t.rq <= t.yMax { // y == 0 is the self-solved column
				t.solveStateWithFail(false, x, y+t.rq, failTail)
			}
			t.solveStateWithFail(true, x, y, failTail)
		}
	}
	t.root = t.valFresh[t.idx(t.x, 0)]
	t.valFresh, t.valPost, t.gridFresh, t.gridPost = nil, nil, nil, nil
}

func (t *DPMakespanTable) idx(x, y int) int { return x*(t.yMax+1) + y }

// solveSelfRef computes the post-failure column (x, rq), whose failure
// branch points at itself: per candidate i the Bellman equation
// E = P(len+succ) + (1-P)(lost + eTrec + E) solves to
// E_i = [P(len+succ) + (1-P)(lost + eTrec)] / P.
func (t *DPMakespanTable) solveSelfRef(x int) {
	grid := t.gridPost
	y := t.rq
	a := float64(y) * t.u
	best := math.Inf(1)
	bestI := int32(0)
	for i := 1; i <= x; i++ {
		length := float64(i)*t.u + t.c
		p := grid.psuc(a, length)
		if p <= 0 {
			continue
		}
		succ := t.succValue(false, x-i, y+i+t.cq)
		lost := grid.tlost(a, length)
		cur := (p*(length+succ) + (1-p)*(lost+t.eTrec)) / p
		if cur < best {
			best = cur
			bestI = int32(i)
		}
	}
	t.valPost[t.idx(x, y)] = best
	t.choicePost[t.idx(x, y)] = bestI
}

// solveStateWithFail computes a non-self-referential state given the value
// of its failure branch.
func (t *DPMakespanTable) solveStateWithFail(fresh bool, x, y int, failTail float64) {
	val, choice, grid := t.valPost, t.choicePost, t.gridPost
	if fresh {
		val, choice, grid = t.valFresh, t.choiceFresh, t.gridFresh
	}
	a := float64(y) * t.u
	best := math.Inf(1)
	bestI := int32(0)
	for i := 1; i <= x; i++ {
		length := float64(i)*t.u + t.c
		p := grid.psuc(a, length)
		succ := t.succValue(fresh, x-i, y+i+t.cq)
		lost := grid.tlost(a, length)
		cur := p*(length+succ) + (1-p)*(lost+t.eTrec+failTail)
		if cur < best {
			best = cur
			bestI = int32(i)
		}
	}
	val[t.idx(x, y)] = best
	choice[t.idx(x, y)] = bestI
}

// succValue reads a successor state's value (0 when the work is done).
func (t *DPMakespanTable) succValue(fresh bool, x, y int) float64 {
	if x <= 0 {
		return 0
	}
	if y > t.yMax {
		y = t.yMax
	}
	if fresh {
		return t.valFresh[t.idx(x, y)]
	}
	return t.valPost[t.idx(x, y)]
}

// ExpectedMakespan returns the DP's expected makespan from the initial
// state (the approximation of E(T*(W|tau0)) computed by Algorithm 1).
func (t *DPMakespanTable) ExpectedMakespan() float64 { return t.root }

// Quantum returns the time quantum u.
func (t *DPMakespanTable) Quantum() float64 { return t.u }

// SizeBytes estimates the table's memory footprint (its choice tables),
// by which the experiment engine's cache budgets evictions.
func (t *DPMakespanTable) SizeBytes() int64 {
	return int64(len(t.choiceFresh)+len(t.choicePost)+len(t.choiceExp))*4 + 256
}

// chunkAt returns the optimal chunk (in quanta) for the given walking
// position.
func (t *DPMakespanTable) chunkAt(fresh bool, x, y int) int {
	if x <= 0 {
		return 0
	}
	if x > t.x {
		x = t.x
	}
	if t.expo != nil {
		return int(t.choiceExp[x])
	}
	if y > t.yMax {
		y = t.yMax
	}
	if fresh {
		return int(t.choiceFresh[t.idx(x, y)])
	}
	return int(t.choicePost[t.idx(x, y)])
}

// DPMakespan walks a shared DPMakespanTable during a run: success advances
// the elapsed-age coordinate, a failure jumps to the post-failure column
// (x, R/u).
type DPMakespan struct {
	t        *DPMakespanTable
	fresh    bool
	y        int
	failures int
}

// NewDPMakespan returns a fresh per-run policy over the shared table.
func NewDPMakespan(t *DPMakespanTable) *DPMakespan {
	return &DPMakespan{t: t, fresh: true}
}

// Name implements sim.Policy.
func (p *DPMakespan) Name() string { return "DPMakespan" }

// Start implements sim.Policy.
func (p *DPMakespan) Start(job *sim.Job) error {
	if math.Abs(job.Work-p.t.work) > 1e-6*p.t.work {
		return fmt.Errorf("policy: DPMakespan table built for work %v, job has %v", p.t.work, job.Work)
	}
	p.fresh = true
	p.y = 0
	p.failures = 0
	return nil
}

// OnFailure implements sim.FailureObserver.
func (p *DPMakespan) OnFailure(s *sim.State) {
	p.fresh = false
	p.y = p.t.rq
	p.failures = s.Failures
}

// OnChunkCommitted implements sim.CommitObserver.
func (p *DPMakespan) OnChunkCommitted(s *sim.State, chunk float64) {
	p.y += int(math.Round(chunk/p.t.u)) + p.t.cq
}

// ChunkState implements advisor.ChunkStateDeclarer: the table walk
// advances on commits and failures only. NextChunk's own reset repeats
// what OnFailure already did, because a session consults the policy only
// after the recovery that called OnFailure.
func (p *DPMakespan) ChunkState() sim.ChunkState { return sim.ChunkStateNone }

// ExpectedMakespan returns the table's expected makespan from the
// initial state — the Algorithm 1 objective value the policy's schedule
// optimizes. The advisor layer attaches it to decisions as rationale.
func (p *DPMakespan) ExpectedMakespan() float64 { return p.t.ExpectedMakespan() }

// NextChunk implements sim.Policy.
func (p *DPMakespan) NextChunk(s *sim.State) float64 {
	if s.Failures != p.failures {
		// Defensive: stay correct even without the OnFailure callback.
		p.fresh = false
		p.y = p.t.rq
		p.failures = s.Failures
	}
	x := int(math.Round(s.Remaining / p.t.u))
	if x <= 0 {
		return s.Remaining
	}
	i := p.t.chunkAt(p.fresh, x, p.y)
	if i <= 0 {
		return math.Min(p.t.u, s.Remaining)
	}
	return math.Min(float64(i)*p.t.u, s.Remaining)
}

// AggregateRenewal exposes the macro-processor law used by the
// rejuvenation-assuming policies (Bouguerra, Liu, parallel DPMakespan):
// Exponential rate p*lambda, or Weibull scale lambda/p^(1/k).
func AggregateRenewal(d dist.Distribution, units int) (dist.Distribution, error) {
	return aggregateRenewal(d, units)
}

func makeNaN(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = math.NaN()
	}
	return s
}
