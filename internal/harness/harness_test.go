package harness

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/platform"
)

// quickScenario returns a small single-processor scenario that runs in
// milliseconds.
func quickScenario(d dist.Distribution) Scenario {
	spec := platform.OneProc(d.Mean())
	spec.W = 40000
	spec.CBase = 300
	spec.RBase = 300
	return Scenario{
		Name:     "quick",
		Spec:     spec,
		P:        1,
		Dist:     d,
		Overhead: platform.OverheadConstant,
		Work:     platform.Work{Model: platform.WorkEmbarrassing},
		Horizon:  1e8,
		Start:    0,
		Traces:   24,
		Seed:     7,
	}
}

func TestDeriveValidation(t *testing.T) {
	sc := quickScenario(dist.NewExponentialMean(9000))
	if _, err := sc.Derive(); err != nil {
		t.Fatal(err)
	}
	bad := sc
	bad.P = 0
	if _, err := bad.Derive(); err == nil {
		t.Error("P=0 accepted")
	}
	bad = sc
	bad.Traces = 0
	if _, err := bad.Derive(); err == nil {
		t.Error("Traces=0 accepted")
	}
	bad = sc
	bad.Horizon = 10
	if _, err := bad.Derive(); err == nil {
		t.Error("short horizon accepted")
	}
	bad = sc
	bad.Dist = nil
	if _, err := bad.Derive(); err == nil {
		t.Error("nil distribution accepted")
	}
}

func TestDerivedQuantities(t *testing.T) {
	spec := platform.Petascale(125)
	sc := Scenario{
		Name: "derive", Spec: spec, P: 45208,
		Dist:     dist.NewExponentialMean(125 * platform.Year),
		Overhead: platform.OverheadConstant,
		Work:     platform.Work{Model: platform.WorkEmbarrassing},
		Horizon:  11 * platform.Year, Start: platform.Year, Traces: 1, Seed: 1,
	}
	d, err := sc.Derive()
	if err != nil {
		t.Fatal(err)
	}
	if d.Units != 45208 || d.C != 600 || d.R != 600 || d.D != 60 {
		t.Errorf("derived = %+v", d)
	}
	// W(p) for the full platform is about 8 days.
	if days := d.WorkP / platform.Day; days < 7.5 || days > 8.5 {
		t.Errorf("W(p) = %v days", days)
	}
	// Platform MTBF about one day.
	if math.Abs(d.PlatformMTBF-platform.Day) > 0.02*platform.Day {
		t.Errorf("platform MTBF = %v", d.PlatformMTBF)
	}
}

func TestNewStats(t *testing.T) {
	s := NewStats([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 || s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Errorf("stats = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 4)
	if math.Abs(s.Std-want) > 1e-12 {
		t.Errorf("std = %v, want %v", s.Std, want)
	}
	empty := NewStats(nil)
	if !math.IsNaN(empty.Mean) {
		t.Error("empty stats should be NaN")
	}
}

func TestSearchPeriodLBFindsGoodPeriod(t *testing.T) {
	sc := quickScenario(dist.NewExponentialMean(9000))
	cfg := DefaultPeriodLBConfig()
	cfg.EvalTraces = 12
	cfg.GeometricSteps = 8
	cfg.LinearSteps = 4
	period, err := SearchPeriodLB(context.Background(), engine.Default(), sc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The best fixed period should be within a factor ~3 of Young's.
	young := math.Sqrt(2 * 300 * 9060)
	if period < young/3 || period > young*3 {
		t.Errorf("PeriodLB found %v, Young is %v", period, young)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "bee"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	var text bytes.Buffer
	if err := tab.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "333") {
		t.Errorf("text output:\n%s", out)
	}
	var csv bytes.Buffer
	if err := tab.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if got := csv.String(); got != "a,bee\n1,2\n333,4\n" {
		t.Errorf("csv output %q", got)
	}
}

func TestDegradationTableIncludesSkipped(t *testing.T) {
	ev := &Evaluation{
		Order:       []string{"LowerBound", "Young"},
		Degradation: map[string]Stats{"LowerBound": {Mean: 0.9}, "Young": {Mean: 1.02}},
		MakespanSec: map[string]Stats{"LowerBound": {Mean: 3600}, "Young": {Mean: 4000}},
		Failures:    map[string]Stats{"Young": {Mean: 3}},
		Skipped:     map[string]string{"Liu": "infeasible"},
	}
	tab := DegradationTable("t", ev)
	var buf bytes.Buffer
	if err := tab.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Liu") || !strings.Contains(out, "n/a") {
		t.Errorf("skipped policy missing:\n%s", out)
	}
}

func TestSeriesTable(t *testing.T) {
	s := []Series{
		{Label: "A", X: []float64{1, 2}, Y: []float64{0.5, 0.6}},
		{Label: "B", X: []float64{2, 3}, Y: []float64{0.7, math.NaN()}},
	}
	tab := SeriesTable("fig", "p", s)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var buf bytes.Buffer
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "n/a") {
		t.Errorf("NaN cell not rendered:\n%s", buf.String())
	}
}
