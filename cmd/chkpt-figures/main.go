// Command chkpt-figures regenerates the data series behind the paper's
// figures (Figure 1 through the appendix sweeps) as aligned text tables
// and optional CSV.
//
// Figures with a declarative form (fig5) can be dumped with -dump-spec
// and replayed byte-identically with -spec; any experiment spec file runs
// through -spec. Timings go to stderr, so stdout is deterministic.
//
// Examples:
//
//	chkpt-figures -list
//	chkpt-figures -exp fig4
//	chkpt-figures -exp fig2,fig4,fig7 -csv
//	chkpt-figures -exp fig5 -dump-spec > fig5.json
//	chkpt-figures -spec fig5.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/exper"
)

func figureIDs() []string {
	var out []string
	for _, e := range exper.All() {
		if strings.HasPrefix(e.ID, "fig") {
			out = append(out, e.ID)
		}
	}
	return out
}

func main() {
	var (
		ids       = flag.String("exp", "all", "comma-separated figure ids or 'all'")
		list      = flag.Bool("list", false, "list available figures and exit")
		full      = flag.Bool("full", false, "paper-scale parameters; slow")
		quanta    = flag.Int("quanta", 0, "override DP resolution")
		csv       = flag.Bool("csv", false, "also emit CSV")
		plbTraces = flag.Int("periodlb-traces", 0, "override the PeriodLB search trace count (0 = mode default)")
		specFile  = flag.String("spec", "", "run a declarative experiment spec file (JSON) instead of the registered figures")
		dumpSpec  = flag.Bool("dump-spec", false, "print the selected figures' declarative specs (JSON) and exit")
	)
	runf := cliutil.AddRunFlags(flag.CommandLine, 0, 0, true)
	engf := cliutil.AddEngineFlags(flag.CommandLine)
	flag.Parse()

	const tool = "chkpt-figures"
	if *list {
		for _, e := range exper.All() {
			if strings.HasPrefix(e.ID, "fig") {
				fmt.Printf("%-22s %s\n", e.ID, e.Title)
			}
		}
		return
	}
	if err := runf.Validate(); err != nil {
		cliutil.Fatal(tool, err)
	}
	eng, err := engf.Engine()
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	// One scope per invocation: every experiment it runs shares trace
	// sets and post-failure grids.
	eng = eng.Scope()
	p := exper.Params{Full: *full, Traces: runf.Traces, Seed: runf.Seed, CSV: *csv, Quanta: *quanta, PeriodLBTraces: *plbTraces, Engine: eng}

	ctx, stop := cliutil.SignalContext()
	defer stop()

	if *specFile != "" {
		if err := cliutil.RunSpecFile(ctx, os.Stdout, tool, *specFile, p); err != nil {
			cliutil.Fatal(tool, err)
		}
		return
	}
	selected := figureIDs()
	if *ids != "all" {
		selected = strings.Split(*ids, ",")
	}
	if err := cliutil.RunExperiments(ctx, os.Stdout, tool, selected, p, *dumpSpec); err != nil {
		cliutil.Fatal(tool, err)
	}
}
