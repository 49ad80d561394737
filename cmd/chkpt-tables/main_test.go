package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/engine"
	"repro/internal/exper"
	"repro/internal/spec"
)

// fixtureParams are the parameters the checked-in testdata fixtures were
// generated with (see `make spec-goldens`):
//
//	chkpt-tables -exp table2 -traces 3 -quanta 30 -seed 11 -periodlb-traces 4 -dump-spec
func fixtureParams() exper.Params {
	return exper.Params{
		Traces:         3,
		Quanta:         30,
		Seed:           11,
		PeriodLBTraces: 4,
		Engine:         engine.New(engine.Config{Cache: engine.NewCache(0)}),
	}
}

// TestSpecFixtureInSync fails when the checked-in table2.json drifts from
// the spec the flags compile to — the reminder to run `make spec-goldens`
// after changing the table2 definition.
func TestSpecFixtureInSync(t *testing.T) {
	e, ok := exper.Find("table2")
	if !ok || e.Spec == nil {
		t.Fatal("table2 is not a spec-expressible experiment")
	}
	es := e.Spec(fixtureParams())
	if es.Title == "" {
		es.Title = e.Title // the -dump-spec fixup
	}
	var buf bytes.Buffer
	if err := spec.EncodeExperiment(&buf, es); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/table2.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("testdata/table2.json is stale; run `make spec-goldens`.\n--- dumped ---\n%s\n--- checked in ---\n%s", buf.Bytes(), want)
	}
}

// TestSpecReproducesFlagOutput is the acceptance criterion: the
// checked-in JSON spec reproduces the paper table byte-identically to the
// flag-driven invocation, and both match the checked-in golden.
func TestSpecReproducesFlagOutput(t *testing.T) {
	ctx := context.Background()

	var flagOut bytes.Buffer
	if err := cliutil.RunExperiments(ctx, &flagOut, "chkpt-tables", []string{"table2"}, fixtureParams(), false); err != nil {
		t.Fatalf("flag-driven run: %v", err)
	}
	var specOut bytes.Buffer
	if err := cliutil.RunSpecFile(ctx, &specOut, "chkpt-tables", "testdata/table2.json", fixtureParams()); err != nil {
		t.Fatalf("spec-driven run: %v", err)
	}
	if !bytes.Equal(flagOut.Bytes(), specOut.Bytes()) {
		t.Errorf("spec-driven output differs from flag-driven output:\n--- flags ---\n%s\n--- spec ---\n%s",
			flagOut.Bytes(), specOut.Bytes())
	}
	golden, err := os.ReadFile("testdata/table2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(specOut.Bytes(), golden) {
		t.Errorf("output differs from testdata/table2.golden; run `make spec-goldens` if the change is intentional.\n--- got ---\n%s\n--- golden ---\n%s",
			specOut.Bytes(), golden)
	}
}

// TestCancelledSpecRun: a pre-cancelled context fails fast with
// context.Canceled and produces at most a deterministic prefix.
func TestCancelledSpecRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	err := cliutil.RunSpecFile(ctx, &out, "chkpt-tables", "testdata/table2.json", fixtureParams())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
