package exper

import (
	"bytes"
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/spec"
)

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must have an experiment.
	want := []string{
		"table2", "table3", "table4", "spares",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig98", "fig99", "fig100",
		"figA-period-exp", "figA-period-weibull", "figB-matrix",
	}
	for _, id := range want {
		if _, ok := Find(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	if len(All()) < len(want) {
		t.Errorf("registry has %d experiments, want >= %d", len(All()), len(want))
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs/All length mismatch")
	}
}

// TestSpecsRoundTrip: every declarative experiment's spec survives the
// canonical encoding unchanged, so the spec a tool dumps replays exactly
// what its flags run. It also pins which experiments are declarative.
func TestSpecsRoundTrip(t *testing.T) {
	var declarative []string
	for _, e := range All() {
		if e.Spec == nil {
			continue
		}
		declarative = append(declarative, e.ID)
		es := e.Spec(tiny())
		var buf bytes.Buffer
		if err := spec.EncodeExperiment(&buf, es); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got, err := spec.DecodeExperiment(&buf)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !reflect.DeepEqual(got, es) {
			t.Errorf("%s: the spec changed in an encode/decode round trip", e.ID)
		}
	}
	want := []string{"table2", "table3", "table4", "spares", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "ablation-dpnf"}
	slices.Sort(declarative)
	slices.Sort(want)
	if !slices.Equal(declarative, want) {
		t.Errorf("declarative experiments = %v, want %v", declarative, want)
	}
}

func TestFindUnknown(t *testing.T) {
	if _, ok := Find("nope"); ok {
		t.Error("unknown id found")
	}
}

// tiny returns ultra-small parameters for smoke tests.
func tiny() Params { return Params{Traces: 2, Seed: 11, Quanta: 30, PeriodLBTraces: 4} }

func TestFig1Smoke(t *testing.T) {
	e, _ := Find("fig1")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), &buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "rejuvenate-all") || !strings.Contains(out, "single-rejuvenation") {
		t.Errorf("fig1 output:\n%s", out)
	}
}

func TestTable4Smoke(t *testing.T) {
	e, _ := Find("table4")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), &buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"LowerBound", "Young", "DPNextFailure", "OptExp", "PeriodLB"} {
		if !strings.Contains(out, name) {
			t.Errorf("table4 output missing %s:\n%s", name, out)
		}
	}
}

func TestSparesSmoke(t *testing.T) {
	e, _ := Find("spares")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), &buf, tiny()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "failures") {
		t.Errorf("spares output:\n%s", buf.String())
	}
}

func TestFig2SmokeCSV(t *testing.T) {
	e, _ := Find("fig2")
	var buf bytes.Buffer
	p := tiny()
	p.CSV = true
	if err := e.Run(context.Background(), &buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "processors") || !strings.Contains(out, "DPNextFailure") {
		t.Errorf("fig2 output:\n%s", out)
	}
	if !strings.Contains(out, ",") {
		t.Error("CSV section missing")
	}
}

func TestFig7Smoke(t *testing.T) {
	e, _ := Find("fig7")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), &buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "lanl-19-synthetic") {
		t.Errorf("fig7 output:\n%s", out)
	}
}

// TestFigAReferenceLines: an Appendix A table draws the PeriodVariation
// curve and one reference line per fixed heuristic and the LowerBound,
// never a column per swept period.
func TestFigAReferenceLines(t *testing.T) {
	e, _ := Find("figA-period-exp")
	var buf bytes.Buffer
	if err := e.Run(context.Background(), &buf, tiny()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "PeriodVar[") {
		t.Errorf("figA output has PeriodVar[...] columns:\n%s", out)
	}
	for _, name := range []string{"PeriodVariation", "LowerBound", "Young", "OptExp", "DPMakespan"} {
		if !strings.Contains(out, name) {
			t.Errorf("figA output missing %s:\n%s", name, out)
		}
	}
}

func TestParamsHelpers(t *testing.T) {
	p := Params{}
	if p.traces(10, 600) != 10 || p.pick(1, 2) != 1 || p.seed() == 0 {
		t.Error("quick defaults broken")
	}
	p.Full = true
	if p.traces(10, 600) != 600 || p.pick(1, 2) != 2 {
		t.Error("full mode broken")
	}
	p.Traces = 7
	if p.traces(10, 600) != 7 {
		t.Error("override broken")
	}
	p.Seed = 99
	if p.seed() != 99 {
		t.Error("seed override broken")
	}
}
