// Command chkpt-tables regenerates the paper's result tables (Tables 2-4
// and the §5.2.2 spare-processor statistics).
//
// Experiments are declarative: flags compile down to an experiment spec
// (print it with -dump-spec), and -spec runs a checked-in spec file with
// byte-identical output to the flag-driven invocation. Tables stream to
// stdout; timings go to stderr, so stdout is deterministic.
//
// Examples:
//
//	chkpt-tables                           # quick mode, all tables
//	chkpt-tables -exp table4               # one table
//	chkpt-tables -full -traces 600         # paper-scale methodology
//	chkpt-tables -exp table2 -dump-spec    # print the declarative spec
//	chkpt-tables -spec testdata/table2.json
package main

import (
	"flag"
	"os"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/exper"
)

var tableIDs = []string{"table2", "table3", "table4", "spares"}

func main() {
	var (
		ids       = flag.String("exp", "all", "comma-separated experiment ids ("+strings.Join(tableIDs, ", ")+") or 'all'")
		full      = flag.Bool("full", false, "paper-scale parameters (600 traces, fine DP quanta); slow")
		quanta    = flag.Int("quanta", 0, "override DP resolution")
		csv       = flag.Bool("csv", false, "also emit CSV")
		plbTraces = flag.Int("periodlb-traces", 0, "override the PeriodLB search trace count (0 = mode default)")
		specFile  = flag.String("spec", "", "run a declarative experiment spec file (JSON) instead of the registered tables")
		dumpSpec  = flag.Bool("dump-spec", false, "print the selected experiments' declarative specs (JSON) and exit")
	)
	runf := cliutil.AddRunFlags(flag.CommandLine, 0, 0, true)
	engf := cliutil.AddEngineFlags(flag.CommandLine)
	flag.Parse()

	const tool = "chkpt-tables"
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
	selected := tableIDs
	if *ids != "all" {
		selected = strings.Split(*ids, ",")
	}
	if err := cliutil.RunExperiments(ctx, os.Stdout, tool, selected, p, *dumpSpec); err != nil {
		cliutil.Fatal(tool, err)
	}
}
