package policy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"

	"repro/internal/dist"
	"repro/internal/sim"
)

// DPNextFailurePlanner holds the immutable configuration of the paper's
// main heuristic contribution (Algorithm 2, §2.4/§3.3): the dynamic
// program that maximizes the expected amount of work completed before the
// next failure, re-planned after every failure.
//
// The planner is shared read-only by every concurrent run of a scenario;
// the per-trace mutable execution state (the chunk-plan cursor, the
// failure counter, and the re-planning scratch slabs) lives in the
// DPNextFailure instances it hands out via NewPolicy. Because the very
// first planning pass of a run depends only on the job geometry when no
// unit has failed yet, the planner memoizes that pristine-state plan: in
// scenarios where the job is released before the first failure (the
// paper's single-processor tables), the expensive initial DP is solved
// once per scenario instead of once per trace.
//
// Implementation notes mirroring §3.3:
//
//   - Because chunks are only re-planned at failures, the per-state
//     processor ages are fully determined by the elapsed execution time, so
//     the joint success probability collapses to a single scalar function
//     G(t) = sum_g w_g H(tau_g + t) over processor groups (H = cumulative
//     hazard), precomputed on a grid: each DP transition costs O(1).
//   - The processor-age state is approximated: the NExact smallest ages are
//     kept exact; the rest are binned onto NApprox reference values placed
//     at survival-interpolated quantiles of the failure law.
//   - The planning horizon is truncated to min(remaining, 2*MTBF/p) and
//     only the first half of the planned chunks is executed before
//     re-planning, exactly as the paper prescribes to keep the algorithm
//     fast enough for production use.
//
// Incremental re-planning (this file's warm path) keeps every decision
// bit-identical to the frozen from-scratch solver in
// dpnextfailure_reference.go while removing its per-call cost:
//
//   - The age-group buffers, the G(t) grid and the extracted plan live
//     in per-instance slabs; each solve borrows its value/argmin tables
//     from a pool shared by every instance. Steady-state re-planning
//     allocates nothing, and an idle instance holds no tables.
//   - The horizon cap min(2*MTBF/p, 30 Young periods) is hoisted into
//     Start — it depends only on the job, not the state.
//   - The survival grid is rebuilt only when its inputs (age groups,
//     horizon, resolution) actually changed. The pristine state's grid
//     can be shared across planners through a process-wide cache
//     (WithSharedGrids), and the grids of later states across the
//     instances of one scope (NewScopedPolicy).
//   - An instance-owned grid of more than sharedGridMaxGroups groups is
//     filled only at the entries the solve reads (listGridReads), each
//     computed exactly as a full fill computes it.
//   - Each instance remembers the plans it solved on cache-shared grids,
//     keyed by the grid and the bits of (x, u, c) (planKey): a shared
//     grid is never written after its build, so its identity names its
//     bits, and a re-plan whose state lands on a remembered key serves
//     the stored plan instead of solving. A run on one processor keeps
//     returning to the same recovered age at the same remaining work, so
//     its re-plans are mostly served. Instance-owned grids are refilled
//     in place and never enter the memo; planMemoMax bounds it.
//   - Candidate chunks whose provable upper bound e^d <= 1+d+d^2/2
//     (valid for d <= 0) cannot beat the incumbent skip the math.Exp
//     call; a 1e-9 relative slack absorbs float rounding so the argmax —
//     and therefore the plan — is exactly the reference's.
//   - WithCoarseQuanta opts post-failure re-plans into a coarser DP
//     (fewer quanta, a 256-point grid). That mode is approximate by
//     construction; its value loss is bounded (see doc.go) and it is
//     never used for the pristine plan or when exactness is required.
type DPNextFailurePlanner struct {
	d        dist.Distribution
	unitMean float64 // per-unit MTBF used for the horizon truncation
	quanta   int
	coarse   int // 0 = always exact; else post-failure replan resolution
	nExact   int
	nApprox  int
	halfPlan bool

	// grids, when non-nil, shares the pristine state's survival grid
	// across planners, keyed by (lawKey, age groups, horizon,
	// resolution). Its key carries no seed and no post-failure age, so it
	// is safe in a process-wide cache; later states share through the
	// instance's scope instead (DPNextFailure.grids).
	grids  SharedCache
	lawKey string

	// pristine memoizes the plan for failure-free initial states, keyed by
	// the state signature. Computed under mu so concurrent first-deciders
	// of the same scenario share one DP solve.
	mu       sync.Mutex
	pristine map[pristineKey][]float64
}

// SharedCache is the minimal surface of a build-once artifact cache used
// to share survival grids across planners and instances; engine.Cache
// implements it. build returns the artifact and its weight in bytes.
type SharedCache interface {
	Do(key string, build func() (artifact any, weight int64, err error)) (any, error)
}

// pristineKey identifies a failure-free decision state completely: with no
// failed units every group age equals Now, so (remaining, now, C, units)
// determines the DP instance.
type pristineKey struct {
	remaining float64
	now       float64
	c         float64
	units     int
}

// DPNextFailure walks a shared DPNextFailurePlanner during one simulated
// run. It carries the per-trace mutable state: the plan cursor, the
// failure counter, the job-derived horizon cap (hoisted out of replan by
// Start), and the lazily-allocated re-planning scratch slabs.
type DPNextFailure struct {
	planner    *DPNextFailurePlanner
	horizonCap float64 // min(2*MTBF/p, 30 Young periods); set by Start
	plan       []float64
	cursor     int
	failures   int
	rp         *replanScratch
	// grids, when non-nil, shares the survival grids of non-pristine
	// states with the other instances of the same scope (NewScopedPolicy).
	grids SharedCache
	// solveHook, when set, observes the input of every DP solve of the
	// warm path (tests count solves through it).
	solveHook func(planKey)
}

// DPNextFailureOption customizes the policy.
type DPNextFailureOption func(*DPNextFailure)

// WithQuanta sets the DP resolution (number of work quanta in the planning
// horizon; the paper's time quantum u is horizon/quanta).
func WithQuanta(n int) DPNextFailureOption {
	return func(p *DPNextFailure) { p.planner.quanta = n }
}

// WithStateApprox sets the §3.3 state-approximation parameters (the paper
// uses nExact=10, nApprox=100).
func WithStateApprox(nExact, nApprox int) DPNextFailureOption {
	return func(p *DPNextFailure) { p.planner.nExact, p.planner.nApprox = nExact, nApprox }
}

// WithFullPlan disables the execute-only-half-the-plan optimization
// (useful for tests on tiny instances).
func WithFullPlan() DPNextFailureOption {
	return func(p *DPNextFailure) { p.planner.halfPlan = false }
}

// WithCoarseQuanta opts post-failure re-plans into an approximate coarse
// mode: they solve the truncated DP over n quanta (n < WithQuanta's
// resolution) on a 256-point survival grid instead of the exact
// configuration. The pristine (failure-free) plan is always solved at
// full resolution. Coarse decisions are NOT bit-identical to the exact
// solver; the expected-work loss of a coarse plan is bounded by roughly
// one coarse quantum per planned chunk (asserted by the differential
// suite). Use for latency-sensitive serving where re-plan throughput
// matters more than the last fraction of expected work.
func WithCoarseQuanta(n int) DPNextFailureOption {
	return func(p *DPNextFailure) { p.planner.coarse = n }
}

// WithSharedGrids wires the planner to a process-wide artifact cache for
// the pristine state's survival grid, and names the law for every grid
// key. lawKey must uniquely identify the failure law (the engine uses its
// canonical distribution key); grids are further keyed by the exact bit
// patterns of the age groups and horizon, so a cache hit is
// bitwise-equivalent to building the grid locally.
func WithSharedGrids(c SharedCache, lawKey string) DPNextFailureOption {
	return func(p *DPNextFailure) { p.planner.grids, p.planner.lawKey = c, lawKey }
}

// NewDPNextFailurePlanner returns the immutable shared planner. d is the
// per-unit failure law and unitMean its MTBF (used only to truncate the
// planning horizon). Options must be applied here: the planner must not be
// mutated once NewPolicy instances exist.
func NewDPNextFailurePlanner(d dist.Distribution, unitMean float64, opts ...DPNextFailureOption) *DPNextFailurePlanner {
	return NewDPNextFailure(d, unitMean, opts...).planner
}

// NewPolicy returns a fresh per-run policy instance over the shared
// planner. Its grids for states past the pristine one stay in its own
// scratch.
func (pl *DPNextFailurePlanner) NewPolicy() *DPNextFailure {
	return &DPNextFailure{planner: pl}
}

// NewScopedPolicy returns a fresh per-run policy instance that shares
// the survival grids of its non-pristine states (up to
// sharedGridMaxGroups age groups) through grids: typically the cache of
// one request or run, whose other instances meet the same post-failure
// ages. Grid keys carry the planner's law key, so a planner built
// without WithSharedGrids shares nothing. Shared grids are always filled
// completely.
func (pl *DPNextFailurePlanner) NewScopedPolicy(grids SharedCache) *DPNextFailure {
	p := pl.NewPolicy()
	if pl.lawKey != "" {
		p.grids = grids
	}
	return p
}

// NewDPNextFailure returns a fresh per-run policy instance backed by its
// own planner. To share the planning memo across runs, build one
// DPNextFailurePlanner and use NewPolicy instead.
func NewDPNextFailure(d dist.Distribution, unitMean float64, opts ...DPNextFailureOption) *DPNextFailure {
	p := &DPNextFailure{planner: &DPNextFailurePlanner{
		d:        d,
		unitMean: unitMean,
		quanta:   150,
		nExact:   10,
		nApprox:  100,
		halfPlan: true,
	}}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Name implements sim.Policy.
func (p *DPNextFailure) Name() string { return "DPNextFailure" }

// Start implements sim.Policy. Besides validating the configuration it
// derives the horizon cap, which depends only on the job: replan used to
// recompute it on every call.
func (p *DPNextFailure) Start(job *sim.Job) error {
	pl := p.planner
	if pl.quanta < 2 {
		return fmt.Errorf("policy: DPNextFailure needs at least 2 quanta, got %d", pl.quanta)
	}
	if pl.coarse != 0 && (pl.coarse < 2 || pl.coarse > pl.quanta) {
		return fmt.Errorf("policy: DPNextFailure coarse quanta must be in [2, quanta=%d], got %d", pl.quanta, pl.coarse)
	}
	if !(pl.unitMean > 0) {
		return fmt.Errorf("policy: DPNextFailure: non-positive unit MTBF %v", pl.unitMean)
	}
	// Horizon truncation: min(remaining, 2 * platform MTBF) (§3.3). On
	// mid-size platforms 2*MTBF/p can span only a handful of optimal
	// chunks, which would make the quantum coarser than the decisions it
	// must resolve; we additionally cap the horizon at ~30 Young periods
	// so the quantum stays a small fraction of a chunk. At the paper's
	// Petascale/Exascale scales the 2*MTBF/p term is the smaller one and
	// the behavior is exactly the paper's. The state-dependent min with
	// Remaining happens in replan; everything else is job-only and lives
	// here.
	platformMTBF := pl.unitMean / float64(job.Units)
	hc := 2 * platformMTBF
	if young := 30 * math.Sqrt(2*job.C*platformMTBF); young > 0 && young < hc {
		hc = young
	}
	p.horizonCap = hc
	p.plan = nil
	p.cursor = 0
	p.failures = 0
	return nil
}

// OnFailure invalidates the current plan.
func (p *DPNextFailure) OnFailure(s *sim.State) {
	p.plan = nil
	p.cursor = 0
	p.failures = s.Failures
}

// ChunkState implements advisor.ChunkStateDeclarer: NextChunk advances
// the plan cursor, and OnFailure discards the plan. The re-planning
// scratch only memoizes solves, so skipping earlier consults changes no
// decision.
func (p *DPNextFailure) ChunkState() sim.ChunkState { return sim.ChunkStateUntilFailure }

// NextChunk implements sim.Policy.
func (p *DPNextFailure) NextChunk(s *sim.State) float64 {
	if s.Failures != p.failures {
		p.plan = nil
		p.cursor = 0
		p.failures = s.Failures
	}
	if p.cursor >= len(p.plan) {
		if pristine(s) {
			// Failure-free initial state: identical for every trace of the
			// scenario, so the plan is memoized on the shared planner.
			p.plan = p.planner.pristinePlan(p, s)
		} else {
			p.plan = p.replan(s)
		}
		p.cursor = 0
	}
	if len(p.plan) == 0 {
		// Degenerate state (e.g. empirical law past its support): creep
		// forward one quantum at a time.
		return math.Min(s.Remaining, math.Max(s.Remaining/float64(p.planner.quanta), 1e-9))
	}
	chunk := p.plan[p.cursor]
	p.cursor++
	return math.Min(chunk, s.Remaining)
}

// pristine reports whether s is a failure-free initial state: identical
// for every trace of a scenario.
func pristine(s *sim.State) bool {
	return s.Failures == 0 && len(s.FailedUnits) == 0 && s.Remaining == s.Job.Work
}

// pristinePlan returns the memoized plan for a failure-free state. The
// returned slice is shared read-only across instances: NextChunk only
// walks it with a cursor. The stored plan is copied out of the solving
// instance's scratch slab, which later re-plans overwrite.
func (pl *DPNextFailurePlanner) pristinePlan(p *DPNextFailure, s *sim.State) []float64 {
	key := pristineKey{remaining: s.Remaining, now: s.Now, c: s.Job.C, units: s.Job.Units}
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if plan, ok := pl.pristine[key]; ok {
		return plan
	}
	plan := append([]float64(nil), p.replan(s)...)
	if pl.pristine == nil {
		pl.pristine = map[pristineKey][]float64{}
	}
	pl.pristine[key] = plan
	return plan
}

// taugroup is a group of units sharing (exactly or approximately) the same
// age since renewal.
type taugroup struct {
	tau    float64
	weight float64
}

// Grid resolutions: the exact mode matches the reference solver's 1024
// points; coarse mode trades resolution for fill cost.
const (
	gridPoints       = 1024
	coarseGridPoints = 256

	// sharedGridMaxGroups bounds when a grid cache is consulted: key
	// construction allocates, and states with many distinct ages are
	// effectively unique to their instance anyway. Small counts (the
	// pristine single group, the first few failures) are exactly the ones
	// many instances share. An instance-owned grid of more groups is
	// filled only where the solve reads it.
	sharedGridMaxGroups = 4

	// dpBoundSlack absorbs float rounding between the pruning upper bound
	// and the exact candidate value so a pruned candidate provably cannot
	// have been the argmax. See solveNextFailureDPInto.
	dpBoundSlack = 1 + 1e-9
)

// replanScratch holds one instance's preallocated re-planning state. All
// slabs grow to their high-water mark once and are reused; the warm path
// performs no allocation.
type replanScratch struct {
	// Age-group construction buffers (buildGroupsInto).
	taus    []float64
	groups  []taugroup
	refs    []float64
	weights []float64

	// The survival grid last used, with the signature it was built from.
	// grid may point at ownGrid (backed by gbuf) or at a cache-shared,
	// immutable grid; the signature makes reuse decisions identical either
	// way. gridPartial marks an ownGrid filled only at reads, which is
	// valid for the (x, u, c) of reads alone.
	grid        *survivalGrid
	ownGrid     survivalGrid
	gbuf        []float64
	gridGroups  []taugroup
	gridTmax    float64
	gridN       int
	gridPartial bool

	// The grid indices a solve of (readsX, readsU, readsC) on a grid of
	// readsN intervals reads, kept while re-plans keep that configuration
	// (a run truncated at its horizon cap keeps u), and the marking slab
	// listGridReads uses.
	reads    []int32
	readMark []bool
	readsX   int
	readsU   float64
	readsC   float64
	readsN   int
	readsOK  bool

	iu []float64 // iu[i] = float64(i) * u for the current solve

	// The last extracted (untruncated) plan and the full input signature
	// it was solved from; a bitwise match re-serves it without solving.
	plan      []float64
	prevU     float64
	prevC     float64
	prevX     int
	prevTrunc bool
	planOK    bool

	// The plans solved on cache-shared grids (see planKey), cleared when
	// it holds planMemoMax of them.
	memo map[planKey][]float64
}

// planKey names a solve on a cache-shared survival grid: the grid, whose
// identity names its bits because a shared grid is never written after
// its build, and the bits of (x, u, c). The solve reads nothing else, so
// equal keys mean bitwise-equal plans. An instance-owned grid is refilled
// in place and never names a key.
type planKey struct {
	grid *survivalGrid
	x    int
	u, c uint64
}

// planMemoMax bounds an instance's plan memo. A run revisits few
// post-failure states (on one processor, the recovered age at each
// remaining-work level), so a small memo serves most of its re-plans.
const planMemoMax = 64

func (p *DPNextFailure) scratch() *replanScratch {
	if p.rp == nil {
		p.rp = &replanScratch{}
	}
	return p.rp
}

// replan solves the truncated NextFailure DP for the current state and
// returns the chunk plan (a view into the instance scratch, valid until
// the next replan). In exact mode the result is bit-identical to
// replanReference; with WithCoarseQuanta and at least one observed
// failure it solves the cheaper coarse configuration instead.
func (p *DPNextFailure) replan(s *sim.State) []float64 {
	pl := p.planner
	target := math.Min(s.Remaining, p.horizonCap)
	if target <= 0 {
		return nil
	}
	truncated := target < s.Remaining*(1-1e-12)
	x, gridN := pl.quanta, gridPoints
	if pl.coarse > 0 && s.Failures > 0 {
		x, gridN = pl.coarse, coarseGridPoints
	}
	u := target / float64(x)
	c := s.Job.C
	tmax := float64(x)*(u+c) + u + c

	sc := p.scratch()
	groups := pl.buildGroupsInto(s, sc)

	// Two (x, u, c) can share tmax bits and still read different
	// entries, so a partly filled grid is fresh only for its own.
	gridFresh := sc.grid != nil && sc.gridN == gridN && sc.gridTmax == tmax && sameGroups(groups, sc.gridGroups) &&
		(!sc.gridPartial || sc.readsX == x && sc.readsU == u && sc.readsC == c)
	if sc.planOK && gridFresh && sc.prevX == x && sc.prevU == u && sc.prevC == c && sc.prevTrunc == truncated {
		// Bitwise-identical inputs: the previous solve's plan is this
		// state's plan.
		return pl.finishPlan(sc, truncated)
	}
	sc.setIU(x, u)
	if !gridFresh {
		shared := p.grids
		if pristine(s) {
			shared = pl.grids
		}
		sc.acquireGrid(pl, shared, groups, x, u, c, tmax, gridN)
	}

	// Keys of the instance-owned grid never enter the memo, so a hit is
	// a plan solved on this very shared grid.
	key := planKey{grid: sc.grid, x: x, u: math.Float64bits(u), c: math.Float64bits(c)}
	if plan, ok := sc.memo[key]; ok {
		sc.plan = append(sc.plan[:0], plan...)
	} else {
		if p.solveHook != nil {
			p.solveHook(key)
		}
		sc.solveInto(x, c)
		if sc.grid != &sc.ownGrid {
			sc.remember(key)
		}
	}
	sc.prevU, sc.prevC, sc.prevX, sc.prevTrunc, sc.planOK = u, c, x, truncated, true
	return pl.finishPlan(sc, truncated)
}

// remember stores a copy of the plan just solved under key.
func (sc *replanScratch) remember(key planKey) {
	if len(sc.memo) >= planMemoMax {
		clear(sc.memo)
	}
	if sc.memo == nil {
		sc.memo = make(map[planKey][]float64)
	}
	sc.memo[key] = append([]float64(nil), sc.plan...)
}

// finishPlan applies the §3.3 execute-half-the-plan rule to the scratch
// plan.
func (pl *DPNextFailurePlanner) finishPlan(sc *replanScratch, truncated bool) []float64 {
	plan := sc.plan
	if truncated && pl.halfPlan && len(plan) > 1 {
		plan = plan[:(len(plan)+1)/2]
	}
	return plan
}

// sameGroups reports whether two group sets are bitwise identical.
func sameGroups(a, b []taugroup) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// acquireGrid points sc.grid at a survival grid for (groups, tmax, gridN)
// that the solve of x quanta of size u with checkpoint cost c can read: a
// complete one from shared when it is non-nil and the group set is small,
// otherwise one built into the instance-owned slab — completely for a
// small group set, at the entries the solve reads for a large one. Every
// path computes each entry it fills exactly as newSurvivalGrid does.
func (sc *replanScratch) acquireGrid(pl *DPNextFailurePlanner, shared SharedCache, groups []taugroup, x int, u, c, tmax float64, gridN int) {
	var grid *survivalGrid
	small := len(groups) <= sharedGridMaxGroups
	if shared != nil && small {
		grid = pl.sharedGrid(shared, groups, tmax, gridN)
	}
	sc.gridPartial = false
	if grid == nil {
		need := gridN + 2
		if cap(sc.gbuf) < need {
			sc.gbuf = make([]float64, need)
		}
		sc.ownGrid.g = sc.gbuf[:need]
		idx := allGridIndices[:need]
		if !small {
			idx = sc.gridReads(x, u, c, tmax, gridN)
			sc.gridPartial = true
		}
		fillSurvivalGrid(&sc.ownGrid, pl.d, groups, tmax, gridN, idx)
		grid = &sc.ownGrid
	}
	sc.grid = grid
	sc.gridGroups = append(sc.gridGroups[:0], groups...)
	sc.gridTmax = tmax
	sc.gridN = gridN
	sc.planOK = false
}

// gridReads returns the grid indices the solve of x quanta of size u
// (sc.iu, set by setIU) with checkpoint cost c reads on a grid of n
// intervals over tmax, listing them only when that configuration differs
// from the last one listed.
func (sc *replanScratch) gridReads(x int, u, c, tmax float64, n int) []int32 {
	if sc.readsOK && sc.readsX == x && sc.readsU == u && sc.readsC == c && sc.readsN == n {
		return sc.reads
	}
	if cap(sc.readMark) < n+2 {
		sc.readMark = make([]bool, n+2)
	}
	sc.reads = listGridReads(sc.reads[:0], sc.readMark[:n+2], x, c, sc.iu, tmax, n)
	sc.readsX, sc.readsU, sc.readsC, sc.readsN, sc.readsOK = x, u, c, n, true
	return sc.reads
}

// sharedGrid fetches (building once across its users) the grid from a
// shared cache. Returns nil on any cache error so the caller falls back
// to a local build.
func (pl *DPNextFailurePlanner) sharedGrid(shared SharedCache, groups []taugroup, tmax float64, gridN int) *survivalGrid {
	key := gridCacheKey(pl.lawKey, groups, tmax, gridN)
	v, err := shared.Do(key, func() (any, int64, error) {
		sg := &survivalGrid{g: make([]float64, gridN+2)}
		fillSurvivalGrid(sg, pl.d, groups, tmax, gridN, allGridIndices[:gridN+2])
		return sg, int64((gridN + 2) * 8), nil
	})
	if err != nil {
		return nil
	}
	sg, ok := v.(*survivalGrid)
	if !ok {
		return nil
	}
	return sg
}

// gridCacheKey encodes every bit the grid depends on: the law, the exact
// age-group values and weights, the horizon, and the resolution. Equal
// keys therefore imply bitwise-equal grids.
func gridCacheKey(lawKey string, groups []taugroup, tmax float64, gridN int) string {
	b := make([]byte, 0, 48+len(lawKey)+35*len(groups))
	b = append(b, "dpnfgrid|"...)
	b = append(b, lawKey...)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(tmax), 16)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(gridN), 10)
	for _, gr := range groups {
		b = append(b, '|')
		b = strconv.AppendUint(b, math.Float64bits(gr.tau), 16)
		b = append(b, ':')
		b = strconv.AppendUint(b, math.Float64bits(gr.weight), 16)
	}
	return string(b)
}

// setIU sizes sc.iu for x quanta and fills iu[i] = i*u, the chunk
// lengths the solve and listGridReads share.
func (sc *replanScratch) setIU(x int, u float64) {
	if cap(sc.iu) < x+1 {
		sc.iu = make([]float64, x+1)
	} else {
		sc.iu = sc.iu[:x+1]
	}
	for i := range sc.iu {
		sc.iu[i] = float64(i) * u
	}
}

// dpTables are the value and argmin tables of one solve.
type dpTables struct {
	val    []float64
	choice []int32
}

// dpTablePool lends every instance its tables for one solveInto only, so
// an idle session holds none.
var dpTablePool = sync.Pool{New: func() any { return new(dpTables) }}

// solveInto runs the DP solve of x quanta (sc.iu, set by setIU) against
// sc.grid on tables borrowed for the solve, leaves the extracted plan in
// sc.plan and returns its value, the expected work before the next
// failure.
func (sc *replanScratch) solveInto(x int, c float64) float64 {
	stride := x + 1
	need := stride * stride
	t := dpTablePool.Get().(*dpTables)
	defer dpTablePool.Put(t)
	if cap(t.val) < need {
		t.val, t.choice = make([]float64, need), make([]int32, need)
	}
	val, choice := t.val[:need], t.choice[:need]
	// Row 0 (rem = 0) is read as all zeros and never written by a solve.
	clear(val[:stride])

	solveNextFailureDPInto(x, c, sc.grid, val, choice, sc.iu)

	// Extract the plan from the initial state.
	plan := sc.plan[:0]
	rem, n := x, 0
	for rem > 0 {
		i := int(choice[rem*stride+n])
		if i <= 0 {
			break
		}
		plan = append(plan, sc.iu[i])
		rem -= i
		n++
	}
	sc.plan = plan
	return val[x*stride]
}

// buildGroupsInto constructs the §3.3 approximate age state: the NExact
// smallest ages exactly, the rest binned onto NApprox survival-quantile
// reference values. Units that never failed share a single group (their
// age is simply Now), which keeps the construction O(#failed log #failed)
// even on million-unit platforms. All buffers come from sc; the returned
// slice aliases sc.groups.
func (pl *DPNextFailurePlanner) buildGroupsInto(s *sim.State, sc *replanScratch) []taugroup {
	taus := sc.taus[:0]
	for i := range s.FailedUnits {
		taus = append(taus, s.Age(i))
	}
	sort.Float64s(taus)
	sc.taus = taus
	neverCount := s.Job.Units - len(taus)
	neverTau := s.Now // renewal at trace time 0

	groups := sc.groups[:0]
	nExact := pl.nExact
	if nExact > len(taus) {
		nExact = len(taus)
	}
	for _, t := range taus[:nExact] {
		groups = append(groups, taugroup{tau: t, weight: 1})
	}
	rest := taus[nExact:]
	if len(rest)+boolToInt(neverCount > 0) <= pl.nApprox {
		// Few enough distinct ages: keep them all exactly.
		for _, t := range rest {
			groups = append(groups, taugroup{tau: t, weight: 1})
		}
		if neverCount > 0 {
			groups = append(groups, taugroup{tau: neverTau, weight: float64(neverCount)})
		}
		sc.groups = groups
		return groups
	}

	// Reference values: tau1 = smallest remaining age, tauM = largest;
	// intermediate values interpolate linearly in survival-probability
	// space (§3.3).
	tauLo := rest[0]
	tauHi := rest[len(rest)-1]
	if neverCount > 0 && neverTau > tauHi {
		tauHi = neverTau
	}
	m := pl.nApprox
	refs := sc.refs
	if cap(refs) < m {
		refs = make([]float64, m)
	} else {
		refs = refs[:m]
	}
	sc.refs = refs
	refs[0] = tauLo
	refs[m-1] = tauHi
	sLo := pl.d.Survival(tauLo)
	sHi := pl.d.Survival(tauHi)
	for i := 2; i < m; i++ {
		q := float64(m-i)/float64(m-1)*sLo + float64(i-1)/float64(m-1)*sHi
		refs[i-1] = dist.InverseSurvival(pl.d, q)
	}
	sort.Float64s(refs)
	weights := sc.weights
	if cap(weights) < m {
		weights = make([]float64, m)
	} else {
		weights = weights[:m]
		for i := range weights {
			weights[i] = 0
		}
	}
	sc.weights = weights
	for _, t := range rest {
		assignNearest(refs, weights, t, 1)
	}
	if neverCount > 0 {
		assignNearest(refs, weights, neverTau, float64(neverCount))
	}
	for i, w := range weights {
		if w > 0 {
			groups = append(groups, taugroup{tau: refs[i], weight: w})
		}
	}
	sc.groups = groups
	return groups
}

// assignNearest adds weight w to the reference value nearest t by age.
func assignNearest(refs, weights []float64, t, w float64) {
	m := len(refs)
	i := sort.SearchFloat64s(refs, t)
	switch {
	case i == 0:
		weights[0] += w
	case i >= m:
		weights[m-1] += w
	case t-refs[i-1] <= refs[i]-t:
		weights[i-1] += w
	default:
		weights[i] += w
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// survivalGrid tabulates G(t) = sum_g w_g H(tau_g + t) on a uniform grid
// so the DP can evaluate joint success probabilities in O(1):
// Psuc over elapsed [a, b] = exp(G(a) - G(b)).
type survivalGrid struct {
	step float64
	g    []float64
}

// newSurvivalGrid builds a freshly allocated exact-resolution grid. The
// warm path uses fillSurvivalGrid into a scratch slab instead.
func newSurvivalGrid(d dist.Distribution, groups []taugroup, tmax float64) *survivalGrid {
	sg := &survivalGrid{g: make([]float64, gridPoints+2)}
	fillSurvivalGrid(sg, d, groups, tmax, gridPoints, allGridIndices)
	return sg
}

// allGridIndices lists every index of an exact-resolution grid; its
// prefixes list those of the coarser ones. A complete fill walks one.
var allGridIndices = func() []int32 {
	idx := make([]int32, gridPoints+2)
	for j := range idx {
		idx[j] = int32(j)
	}
	return idx
}()

// fillSurvivalGrid sets sg's step for n intervals over [0, tmax] and
// fills the entries idx of sg.g (whose length must already be n+2) with
// the cumulative-hazard mixture of groups. Each entry is computed the
// same way whichever other entries are filled. The per-family arms are
// operation-for-operation identical to the generic loop — they exist
// only to devirtualize the CumHazard call on the two closed-form laws
// that dominate planning workloads, which the reference solver pays
// interface dispatch for. Resolution note (exact mode): 1024 points over
// the horizon is fine enough that linear interpolation of the cumulative
// hazard is accurate for the smooth laws used here.
func fillSurvivalGrid(sg *survivalGrid, d dist.Distribution, groups []taugroup, tmax float64, n int, idx []int32) {
	sg.step = tmax / float64(n)
	g := sg.g
	switch law := d.(type) {
	case dist.Exponential:
		for _, j := range idx {
			t := float64(j) * sg.step
			var acc float64
			for _, gr := range groups {
				acc += gr.weight * law.CumHazard(gr.tau+t)
			}
			g[j] = acc
		}
	case dist.Weibull:
		for _, j := range idx {
			t := float64(j) * sg.step
			var acc float64
			for _, gr := range groups {
				acc += gr.weight * law.CumHazard(gr.tau+t)
			}
			g[j] = acc
		}
	default:
		for _, j := range idx {
			t := float64(j) * sg.step
			var acc float64
			for _, gr := range groups {
				acc += gr.weight * d.CumHazard(gr.tau+t)
			}
			g[j] = acc
		}
	}
}

// listGridReads appends to dst, in increasing order, the indices of the
// grid entries solveNextFailureDPInto reads when it solves x quanta with
// chunk lengths iu and checkpoint cost c on a grid of n intervals over
// tmax, and returns it. It walks the solve's states and candidates with
// the solve's own float expressions, and marks both entries at
// interpolates for each elapsed time, or the clamped end entry. mark
// (length n+2) is scratch.
func listGridReads(dst []int32, mark []bool, x int, c float64, iu []float64, tmax float64, n int) []int32 {
	clear(mark)
	step := tmax / float64(n)
	for rem := 1; rem <= x; rem++ {
		for k := 0; k <= x-rem; k++ {
			a := iu[x-rem] + float64(k)*c
			markGridRead(mark, a, step)
			for i := 1; i <= rem; i++ {
				markGridRead(mark, a+iu[i]+c, step)
			}
		}
	}
	for j, m := range mark {
		if m {
			dst = append(dst, int32(j))
		}
	}
	return dst
}

// markGridRead marks the entries survivalGrid.at reads for t on a grid
// with the given step and len(mark) points, by at's own expressions.
func markGridRead(mark []bool, t, step float64) {
	if t <= 0 {
		mark[0] = true
		return
	}
	i := int(t / step)
	if i >= len(mark)-1 {
		mark[len(mark)-1] = true
		return
	}
	mark[i] = true
	mark[i+1] = true
}

// at linearly interpolates G(t).
func (sg *survivalGrid) at(t float64) float64 {
	if t <= 0 {
		return sg.g[0]
	}
	f := t / sg.step
	i := int(f)
	if i >= len(sg.g)-1 {
		return sg.g[len(sg.g)-1]
	}
	frac := f - float64(i)
	return sg.g[i]*(1-frac) + sg.g[i+1]*frac
}

// psuc returns the probability that no unit fails while elapsed time runs
// from a to b.
func (sg *survivalGrid) psuc(a, b float64) float64 {
	return math.Exp(sg.at(a) - sg.at(b))
}

// solveNextFailureDPInto runs Algorithm 2 on x quanta of size u with
// checkpoint cost c, writing into the provided slabs. State (x', n): x'
// quanta remaining, n chunks committed; the elapsed execution time is
// (x-x')*u + n*c, which makes the whole transition structure expressible
// through the survival grid. G(a) is hoisted out of the candidate loop —
// every transition from a state shares the same start age.
//
// Two candidate filters skip the math.Exp call without ever changing the
// argmax (so plans stay bit-identical to solveNextFailureDPReference):
//
//   - d <= -745: math.Exp(d) underflows to exactly 0, so v = 0 can never
//     exceed best (best >= 0 and ties keep the incumbent).
//   - Otherwise, e^d <= 1 + d + d^2/2 for every d <= 0 (the difference
//     has nonpositive derivative and vanishes at 0), so when that bound
//     times w — inflated by dpBoundSlack to absorb the rounding of the
//     bound, of math.Exp, and of the products — is still strictly below
//     the incumbent, the exact v := Exp(d)*w could not have won. The only
//     positive d values that can occur are rounding-level (G is
//     nondecreasing), where the slack again covers the gap.
func solveNextFailureDPInto(x int, c float64, grid *survivalGrid, val []float64, choice []int32, iu []float64) {
	stride := x + 1
	for rem := 1; rem <= x; rem++ {
		maxN := x - rem
		row := rem * stride
		for n := 0; n <= maxN; n++ {
			a := iu[x-rem] + float64(n)*c
			ga := grid.at(a)
			best := 0.0
			bestI := int32(0)
			succ := (rem-1)*stride + n + 1 // idx(rem-i, n+1) at i = 1
			for i := 1; i <= rem; i++ {
				w := iu[i] + val[succ]
				succ -= stride
				d := ga - grid.at(a+iu[i]+c)
				if d <= -745 {
					continue
				}
				if q := 1 + d + 0.5*d*d; q*w*dpBoundSlack < best {
					continue
				}
				if v := math.Exp(d) * w; v > best {
					best = v
					bestI = int32(i)
				}
			}
			val[row+n] = best
			choice[row+n] = bestI
		}
	}
}

// solveNextFailureDP solves x quanta of size u on grid and returns a
// freshly allocated optimal chunk plan along with its objective value,
// the expected work before the next failure. Kept for callers outside
// the warm path.
func solveNextFailureDP(x int, u, c float64, grid *survivalGrid) ([]float64, float64) {
	sc := &replanScratch{grid: grid}
	sc.setIU(x, u)
	v := sc.solveInto(x, c)
	return sc.plan, v
}

// buildGroups constructs the §3.3 age-group state with fresh buffers.
// Production re-planning goes through buildGroupsInto; this remains for
// direct callers and tests.
func (pl *DPNextFailurePlanner) buildGroups(s *sim.State) []taugroup {
	return pl.buildGroupsInto(s, &replanScratch{})
}

// PlanAndValue solves the DP for the given state and returns the full
// (untruncated-by-half) plan and its objective value, the expected work
// completed before the next failure. Used by tests to compare against the
// brute-force oracle of Proposition 3. Unlike replan it never applies the
// Young-period horizon cap or the coarse mode, matching its historical
// contract; the returned plan is freshly allocated.
func (p *DPNextFailure) PlanAndValue(s *sim.State) ([]float64, float64) {
	pl := p.planner
	platformMTBF := pl.unitMean / float64(s.Job.Units)
	target := math.Min(s.Remaining, 2*platformMTBF)
	x := pl.quanta
	u := target / float64(x)
	groups := pl.buildGroups(s)
	grid := newSurvivalGrid(pl.d, groups, float64(x)*(u+s.Job.C)+u+s.Job.C)
	return solveNextFailureDP(x, u, s.Job.C, grid)
}
