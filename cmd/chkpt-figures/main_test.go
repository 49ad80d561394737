package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/engine"
	"repro/internal/exper"
	"repro/internal/spec"
)

// fixtureParams are the parameters the checked-in testdata goldens and
// fixtures were generated with (chkpt-figures_ARGS in the Makefile, see
// `make spec-goldens`):
//
//	chkpt-figures -exp <id> -traces 2 -quanta 25 -seed 5 -periodlb-traces 3
func fixtureParams() exper.Params {
	return exper.Params{
		Traces:         2,
		Quanta:         25,
		Seed:           5,
		PeriodLBTraces: 3,
		Engine:         engine.New(engine.Config{Cache: engine.NewCache(0)}),
	}
}

// fixtureIDs lists the experiments with a checked-in spec fixture.
func fixtureIDs(t *testing.T) []string {
	t.Helper()
	paths, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(paths))
	for i, path := range paths {
		ids[i] = strings.TrimSuffix(filepath.Base(path), ".json")
	}
	return ids
}

// TestGoldensCoverRegistry: every registered experiment has an output
// golden under one of the two experiment tools, and every declarative one
// pinned here has its spec fixture, except fig7, whose spec carries its
// log's samples — the lists `make spec-goldens` loops over must not miss
// an experiment.
func TestGoldensCoverRegistry(t *testing.T) {
	for _, e := range exper.All() {
		_, errHere := os.Stat(filepath.Join("testdata", e.ID+".golden"))
		_, errTables := os.Stat(filepath.Join("..", "chkpt-tables", "testdata", e.ID+".golden"))
		if errHere != nil && errTables != nil {
			t.Errorf("%s has no golden; add it to a tool's id list in the Makefile and run `make spec-goldens`", e.ID)
		}
		if errHere != nil || e.Spec == nil || e.ID == "fig7" {
			continue
		}
		if _, err := os.Stat(filepath.Join("testdata", e.ID+".json")); err != nil {
			t.Errorf("%s is declarative but has no spec fixture; run `make spec-goldens`", e.ID)
		}
	}
}

// TestSpecFixtureInSync fails when a checked-in spec fixture drifts from
// the spec the flags compile to — the reminder to run `make spec-goldens`
// after changing a figure's definition.
func TestSpecFixtureInSync(t *testing.T) {
	for _, id := range fixtureIDs(t) {
		e, ok := exper.Find(id)
		if !ok || e.Spec == nil {
			t.Errorf("testdata/%s.json: %s is not a spec-expressible experiment", id, id)
			continue
		}
		es := e.Spec(fixtureParams())
		if es.Title == "" {
			es.Title = e.Title // the -dump-spec fixup
		}
		var buf bytes.Buffer
		if err := spec.EncodeExperiment(&buf, es); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("testdata/%s.json is stale; run `make spec-goldens`.\n--- dumped ---\n%s\n--- checked in ---\n%s", id, buf.Bytes(), want)
		}
	}
}

// TestSpecReproducesFlagOutput is the declarative-API contract for the
// figures: each checked-in spec reproduces its figure byte-identically to
// the flag-driven invocation, and both match the checked-in golden. The
// fixtures take about 15 s together; -short checks fig2 alone.
func TestSpecReproducesFlagOutput(t *testing.T) {
	ctx := context.Background()
	for _, id := range fixtureIDs(t) {
		if testing.Short() && id != "fig2" {
			continue
		}
		// Both runs share one cache, which never changes results; the
		// spec run takes the flag run's planners from it.
		p := fixtureParams()
		var flagOut bytes.Buffer
		if err := cliutil.RunExperiments(ctx, &flagOut, "chkpt-figures", []string{id}, p, false); err != nil {
			t.Fatalf("%s: flag-driven run: %v", id, err)
		}
		var specOut bytes.Buffer
		if err := cliutil.RunSpecFile(ctx, &specOut, "chkpt-figures", filepath.Join("testdata", id+".json"), p); err != nil {
			t.Fatalf("%s: spec-driven run: %v", id, err)
		}
		if !bytes.Equal(flagOut.Bytes(), specOut.Bytes()) {
			t.Errorf("%s: spec-driven output differs from flag-driven output:\n--- flags ---\n%s\n--- spec ---\n%s",
				id, flagOut.Bytes(), specOut.Bytes())
		}
		golden, err := os.ReadFile(filepath.Join("testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(specOut.Bytes(), golden) {
			t.Errorf("%s: output differs from testdata/%s.golden; run `make spec-goldens` if the change is intentional.\n--- got ---\n%s\n--- golden ---\n%s",
				id, id, specOut.Bytes(), golden)
		}
	}
}
