package service

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/advisor"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/spec"
)

// hoardScenario is a cheap scenario with DPNextFailure re-planning: a
// one-processor platform, or sixteen units whose failures soon give a
// state more than four age groups. Every job starts at time 0, before
// any failure, so its first plan is the pristine one.
func hoardScenario(units int, seed uint64) *spec.ScenarioSpec {
	plat := spec.PlatformRef{Preset: "oneproc", MTBF: platform.Day}
	if units > 1 {
		plat = spec.PlatformRef{Custom: &spec.PlatformCustom{
			Name: "hoard", PTotal: units, D: 60, CBase: 300, RBase: 300,
			MTBF: 2 * platform.Day, W: float64(units) * 4 * platform.Day,
		}}
	}
	return &spec.ScenarioSpec{
		Name:     fmt.Sprintf("hoard-%d", units),
		Platform: plat,
		P:        units,
		Dist:     spec.DistSpec{Family: "weibull", Shape: 0.7},
		Horizon:  platform.Year,
		Traces:   2,
		Seed:     seed,
	}
}

var hoardCandidates = spec.CandidatesSpec{Policies: []spec.PolicySpec{
	{Kind: "young"}, {Kind: "dpnextfailure", Quanta: 20},
}}

// hoardTraffic sends one round of the traffic whose seeded artifacts
// must not outlive their request: an evaluation per scenario and a
// sweep at the given seed, and a DPNextFailure session whose every
// batch reports a failure on another unit.
func hoardTraffic(t *testing.T, url string, seed uint64) {
	t.Helper()
	for _, units := range []int{1, 16} {
		es := &spec.ExperimentSpec{Name: "hoard", Scenario: hoardScenario(units, seed), Candidates: hoardCandidates}
		if resp, b := postJSON(t, url+"/v1/evaluate", marshalSpec(t, es)); resp.StatusCode != http.StatusOK {
			t.Fatalf("evaluate status = %d: %s", resp.StatusCode, b)
		}
	}
	sweep := &spec.ExperimentSpec{Name: "hoard-sweep", Scenario: hoardScenario(16, seed),
		Grid: &spec.GridSpec{Shape: []float64{0.5, 0.7}}, Candidates: hoardCandidates}
	if lines := sweepLines(t, url, marshalSpec(t, sweep)); len(lines) != 3 {
		t.Fatalf("sweep answered %d lines, want 2 cells and the trailer", len(lines))
	}
	sess := createSession(t, url, []byte(`{"name": "hoard",
  "scenario": {"platform": {"custom": {"pTotal": 16, "d": 60, "cBase": 300, "rBase": 300, "mtbf": 172800, "w": 5529600}},
    "p": 16, "dist": {"family": "weibull", "shape": 0.7}},
  "policy": {"kind": "dpnextfailure", "quanta": 20}}`))
	d := sess.Decision
	for unit := 0; unit < 8; unit++ {
		at := d.Now + d.Chunk/2
		resp, er := postEvents(t, url, sess.ID, []advisor.Event{
			{Kind: advisor.EventFailure, Time: at, Unit: unit},
			{Kind: advisor.EventRecovered, Time: at + 360},
		})
		if resp.StatusCode != http.StatusOK || er.Decision == nil {
			t.Fatalf("session batch %d: status %d, %+v", unit, resp.StatusCode, er)
		}
		d = er.Decision
	}
}

// TestProcessCacheHoldsNoSeededArtifacts is the hoarding regression:
// after the warm-ups, fresh-seed evaluations, a sweep and DPNextFailure
// sessions with failures leave the process-wide engine cache exactly as
// the warm-ups did. Their trace sets and post-failure survival grids are
// keyed by a seed or by ages no later request meets, so they live in the
// request's scope (or the session's scratch) and go with it; the process
// cache keeps planners, tables and the pristine grids.
func TestProcessCacheHoldsNoSeededArtifacts(t *testing.T) {
	cache := engine.NewCache(0)
	_, ts := newTestServer(t, Config{Engine: engine.New(engine.Config{Workers: 2, Cache: cache})})
	hoardTraffic(t, ts.URL, 1)
	warm := cache.Keys()
	for seed := uint64(2); seed <= 4; seed++ {
		hoardTraffic(t, ts.URL, seed)
	}
	after := cache.Keys()
	for _, k := range after {
		if strings.HasPrefix(k, "trace|") {
			t.Errorf("process cache holds a trace set: %s", k)
		}
		// dpnfgrid|law|tmax|resolution|tau:weight|...: the pristine grid
		// has one group, every unit at age 0.
		if f := strings.Split(k, "|"); f[0] == "dpnfgrid" && (len(f) != 5 || !strings.HasPrefix(f[4], "0:")) {
			t.Errorf("process cache holds a post-failure grid: %s", k)
		}
	}
	if strings.Join(after, "\n") != strings.Join(warm, "\n") {
		t.Errorf("process cache went from %d entries after the warm-ups to %d:\nwarm-ups %q\nafter    %q",
			len(warm), len(after), warm, after)
	}
}
