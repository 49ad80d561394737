package policy

import (
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/sim"
)

// This file freezes the pre-incremental DPNextFailure solver verbatim as
// the differential-test oracle. replanReference is the from-scratch
// pipeline exactly as it shipped before the warm-start/slab rewrite:
// every allocation, every float operation, in the original order. The
// production replan must produce bit-identical plans in exact mode; the
// differential and fuzz suites (dpnf_differential_test.go,
// dpnf_fuzz_test.go) enforce that on randomized failure histories across
// every distribution family. Do not "improve" this code — its value is
// that it does not change.

// replanReference solves the truncated NextFailure DP from scratch and
// returns the chunk plan. It is the oracle for the incremental replan.
func (pl *DPNextFailurePlanner) replanReference(s *sim.State) []float64 {
	platformMTBF := pl.unitMean / float64(s.Job.Units)
	target := math.Min(s.Remaining, 2*platformMTBF)
	if young := 30 * math.Sqrt(2*s.Job.C*platformMTBF); young > 0 && young < target {
		target = young
	}
	if target <= 0 {
		return nil
	}
	truncated := target < s.Remaining*(1-1e-12)
	x := pl.quanta
	u := target / float64(x)

	groups := pl.buildGroupsReference(s)
	grid := newSurvivalGridReference(pl.d, groups, float64(x)*(u+s.Job.C)+u+s.Job.C)

	plan, _ := solveNextFailureDPReference(x, u, s.Job.C, grid)
	if truncated && pl.halfPlan && len(plan) > 1 {
		plan = plan[:(len(plan)+1)/2]
	}
	return plan
}

// buildGroupsReference is the frozen §3.3 age-group construction.
func (pl *DPNextFailurePlanner) buildGroupsReference(s *sim.State) []taugroup {
	taus := make([]float64, 0, len(s.FailedUnits))
	for i := range s.FailedUnits {
		taus = append(taus, s.Age(i))
	}
	sort.Float64s(taus)
	neverCount := s.Job.Units - len(taus)
	neverTau := s.Now // renewal at trace time 0

	var groups []taugroup
	nExact := pl.nExact
	if nExact > len(taus) {
		nExact = len(taus)
	}
	for _, t := range taus[:nExact] {
		groups = append(groups, taugroup{tau: t, weight: 1})
	}
	rest := taus[nExact:]
	if len(rest)+boolToInt(neverCount > 0) <= pl.nApprox {
		for _, t := range rest {
			groups = append(groups, taugroup{tau: t, weight: 1})
		}
		if neverCount > 0 {
			groups = append(groups, taugroup{tau: neverTau, weight: float64(neverCount)})
		}
		return groups
	}

	tauLo := rest[0]
	tauHi := rest[len(rest)-1]
	if neverCount > 0 && neverTau > tauHi {
		tauHi = neverTau
	}
	m := pl.nApprox
	refs := make([]float64, m)
	refs[0] = tauLo
	refs[m-1] = tauHi
	sLo := pl.d.Survival(tauLo)
	sHi := pl.d.Survival(tauHi)
	for i := 2; i < m; i++ {
		q := float64(m-i)/float64(m-1)*sLo + float64(i-1)/float64(m-1)*sHi
		refs[i-1] = dist.InverseSurvival(pl.d, q)
	}
	sort.Float64s(refs)
	weights := make([]float64, m)
	assign := func(t float64, w float64) {
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
	for _, t := range rest {
		assign(t, 1)
	}
	if neverCount > 0 {
		assign(neverTau, float64(neverCount))
	}
	for i, w := range weights {
		if w > 0 {
			groups = append(groups, taugroup{tau: refs[i], weight: w})
		}
	}
	return groups
}

// newSurvivalGridReference is the frozen interface-dispatched grid fill.
func newSurvivalGridReference(d dist.Distribution, groups []taugroup, tmax float64) *survivalGrid {
	const n = 1024
	sg := &survivalGrid{step: tmax / float64(n), g: make([]float64, n+2)}
	for j := range sg.g {
		t := float64(j) * sg.step
		var acc float64
		for _, gr := range groups {
			acc += gr.weight * d.CumHazard(gr.tau+t)
		}
		sg.g[j] = acc
	}
	return sg
}

// solveNextFailureDPReference is the frozen Algorithm 2 solve: fresh
// value/argmin tables per call, no candidate pruning.
func solveNextFailureDPReference(x int, u, c float64, grid *survivalGrid) ([]float64, float64) {
	stride := x + 1
	val := make([]float64, stride*stride)
	choice := make([]int32, stride*stride)
	idx := func(rem, n int) int { return rem*stride + n }

	for rem := 1; rem <= x; rem++ {
		maxN := x - rem
		for n := 0; n <= maxN; n++ {
			a := float64(x-rem)*u + float64(n)*c
			ga := grid.at(a)
			best := 0.0
			bestI := int32(0)
			for i := 1; i <= rem; i++ {
				b := a + float64(i)*u + c
				v := math.Exp(ga-grid.at(b)) * (float64(i)*u + val[idx(rem-i, n+1)])
				if v > best {
					best = v
					bestI = int32(i)
				}
			}
			val[idx(rem, n)] = best
			choice[idx(rem, n)] = bestI
		}
	}

	var plan []float64
	rem, n := x, 0
	for rem > 0 {
		i := int(choice[idx(rem, n)])
		if i <= 0 {
			break
		}
		plan = append(plan, float64(i)*u)
		rem -= i
		n++
	}
	return plan, val[idx(x, 0)]
}
