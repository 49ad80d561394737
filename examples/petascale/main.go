// Petascale: a miniature of the paper's headline experiment (Table 4 /
// Figure 4) — a Jaguar-scale job on 45,208 processors with Weibull
// failures, comparing all the checkpointing policies with the §4.1
// degradation-from-best methodology.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	checkpoint "repro"
	"repro/internal/harness"
)

func main() {
	ctx := context.Background()
	spec := checkpoint.PetascalePlatform(125) // Table 1: Jaguar-like
	sc := checkpoint.Scenario{
		Name:     "petascale-demo",
		Spec:     spec,
		P:        spec.PTotal,
		Dist:     checkpoint.WeibullFromMeanShape(spec.MTBF, 0.7),
		Overhead: checkpoint.OverheadConstant,
		Work:     checkpoint.Work{Model: checkpoint.WorkEmbarrassing},
		Horizon:  11 * checkpoint.Year,
		Start:    checkpoint.Year,
		Traces:   10, // the paper uses 600; this is a demo
		Seed:     2024,
	}

	// The §4.1 policy set; DPMakespan is left out, as the paper drops it
	// for Weibull parallel jobs.
	std := checkpoint.StandardSpec{DPNextFailureQuanta: 120, IncludeLiu: true, IncludeBouguerra: true}
	eng := checkpoint.DefaultEngine()
	cands, err := checkpoint.StandardCandidates(ctx, eng, sc, std)
	if err != nil {
		log.Fatal(err)
	}
	ev, err := checkpoint.Evaluate(ctx, eng, sc, cands)
	if err != nil {
		log.Fatal(err)
	}

	tab := harness.DegradationTable(
		"45,208 processors, Weibull k=0.7, MTBF 125 years, C=R=600 s, D=60 s (10 traces)", ev)
	if err := tab.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	dpnf := ev.Degradation["DPNextFailure"].Mean
	young := ev.Degradation["Young"].Mean
	fmt.Printf("DPNextFailure degradation %.4f vs Young %.4f: the dynamic program\n", dpnf, young)
	fmt.Printf("saves %.1f%% of the makespan by adapting chunk sizes to processor ages.\n",
		100*(young-dpnf)/young)
	if reason, ok := ev.Skipped["Liu"]; ok {
		fmt.Printf("Liu was skipped: %s\n", reason)
	}
}
