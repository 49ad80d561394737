// Benchmarks regenerating every table and figure of the paper (scaled to
// benchmark-friendly sizes; use cmd/chkpt-tables and cmd/chkpt-figures for
// presentation-quality runs, and their -full flags for the paper-scale
// methodology), plus micro-benchmarks of the core machinery.
package checkpoint_test

import (
	"context"
	"io"
	"sync"
	"testing"

	checkpoint "repro"
	"repro/internal/engine"
	"repro/internal/exper"
)

// benchParams keeps each experiment iteration small enough for testing.B.
// The experiments run in one scope of the default engine for the whole
// benchmark binary, as the cmd tools open one per invocation: an
// experiment reuses the trace sets an earlier one drew for the same
// scenario (spares after table4).
func benchParams() exper.Params {
	return exper.Params{Traces: 2, Seed: 7, Quanta: 40, PeriodLBTraces: 4, Engine: benchScope()}
}

var benchScope = sync.OnceValue(func() *engine.Engine { return engine.Default().Scope() })

func benchExperiment(b *testing.B, id string) {
	e, ok := exper.Find(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(context.Background(), io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact. ---

func BenchmarkTable2(b *testing.B)                    { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)                    { benchExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)                    { benchExperiment(b, "table4") }
func BenchmarkSpares(b *testing.B)                    { benchExperiment(b, "spares") }
func BenchmarkFig1(b *testing.B)                      { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)                      { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)                      { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)                      { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)                      { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)                      { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)                      { benchExperiment(b, "fig7") }
func BenchmarkFig98(b *testing.B)                     { benchExperiment(b, "fig98") }
func BenchmarkFig99(b *testing.B)                     { benchExperiment(b, "fig99") }
func BenchmarkFig100(b *testing.B)                    { benchExperiment(b, "fig100") }
func BenchmarkFigAppAPeriodSweepExp(b *testing.B)     { benchExperiment(b, "figA-period-exp") }
func BenchmarkFigAppAPeriodSweepWeibull(b *testing.B) { benchExperiment(b, "figA-period-weibull") }
func BenchmarkFigAppBMatrix(b *testing.B)             { benchExperiment(b, "figB-matrix") }

// Extensions: the §8 replication question and the DPNextFailure ablation.
func BenchmarkExtReplication(b *testing.B)  { benchExperiment(b, "replication") }
func BenchmarkExtDPNFAblation(b *testing.B) { benchExperiment(b, "ablation-dpnf") }

// --- Engine benchmarks: worker scaling and the DP-table cache. ---
// These are the repo's BENCH baseline for the parallel experiment engine;
// the *CacheHits* metrics must stay > 0 (they prove the shared cache is
// serving artifacts instead of rebuilding them).

// benchEngineParams runs an experiment with an explicit engine.
func benchEngineParams(eng *engine.Engine) exper.Params {
	p := benchParams()
	p.Engine = eng
	return p
}

// benchTable4Engine measures the headline Table 4 experiment on an engine
// with the given worker count, sharing one cache across all b.N
// iterations, and reports the cache hit rate per iteration.
func benchTable4Engine(b *testing.B, workers int) {
	e, ok := exper.Find("table4")
	if !ok {
		b.Fatal("table4 not registered")
	}
	cache := engine.NewCache(0)
	p := benchEngineParams(engine.New(engine.Config{Workers: workers, Cache: cache}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(context.Background(), io.Discard, p); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(float64(st.Hits)/float64(b.N), "cachehits/op")
	if b.N > 1 && st.Hits == 0 {
		b.Fatal("repeated iterations produced zero cache hits")
	}
}

func BenchmarkEngineTable4Workers1(b *testing.B) { benchTable4Engine(b, 1) }
func BenchmarkEngineTable4Workers4(b *testing.B) { benchTable4Engine(b, 4) }

// BenchmarkEngineDPTableCache measures a cached DPMakespan table fetch
// against the cold build measured by BenchmarkDPMakespanTableBuild.
func BenchmarkEngineDPTableCache(b *testing.B) {
	law := checkpoint.WeibullFromMeanShape(checkpoint.Day, 0.7)
	cache := checkpoint.NewCache(0)
	eng := checkpoint.NewEngine(checkpoint.EngineConfig{Workers: 1, Cache: cache})
	if _, err := eng.DPMakespanTable(context.Background(), law, 20*checkpoint.Day, 600, 600, 60, 0, 80); err != nil {
		b.Fatal(err) // warm the entry: every iteration below is a hit
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.DPMakespanTable(context.Background(), law, 20*checkpoint.Day, 600, 600, 60, 0, 80); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := cache.Stats()
	b.ReportMetric(float64(st.Hits), "cachehits")
	if st.Hits == 0 {
		b.Fatal("cache recorded no hits")
	}
}

// BenchmarkEngineTraceCache measures a cached Petascale trace-set fetch
// inside one engine scope against the cold generation measured by
// BenchmarkTraceGeneration.
func BenchmarkEngineTraceCache(b *testing.B) {
	law := checkpoint.WeibullFromMeanShape(125*checkpoint.Year, 0.7)
	eng := checkpoint.NewEngine(checkpoint.EngineConfig{Cache: checkpoint.NewCache(0)}).Scope()
	first := eng.GenerateTraces(context.Background(), law, 45208, 12*checkpoint.Year, 60, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if eng.GenerateTraces(context.Background(), law, 45208, 12*checkpoint.Year, 60, 3) != first {
			b.Fatal("the scope's cache did not serve the trace set")
		}
	}
}

// BenchmarkEngineRunOverhead measures the pool's per-cell dispatch cost on
// trivial cells (the floor under every fan-out).
func BenchmarkEngineRunOverhead(b *testing.B) {
	eng := checkpoint.NewEngine(checkpoint.EngineConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.EngineRun(context.Background(), eng, 256, func(j int) (int, error) { return j, nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the core machinery. ---

// BenchmarkSimulatorRun measures one full simulated run of a Petascale-ish
// job with a periodic policy.
func BenchmarkSimulatorRun(b *testing.B) {
	law := checkpoint.WeibullFromMeanShape(125*checkpoint.Year, 0.7)
	const units = 4096
	ts := checkpoint.GenerateTraces(law, units, 12*checkpoint.Year, 60, 3)
	job := &checkpoint.Job{
		Work: 8 * checkpoint.Day,
		C:    600, R: 600, D: 60,
		Units: units,
		Start: checkpoint.Year,
	}
	pol := checkpoint.NewYoung(600, law.Mean()/units)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.Simulate(context.Background(), job, pol, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPNextFailurePlan measures one DPNextFailure planning pass
// (the operation executed after every failure in production).
func BenchmarkDPNextFailurePlan(b *testing.B) {
	law := checkpoint.WeibullFromMeanShape(125*checkpoint.Year, 0.7)
	const units = 45208
	ts := checkpoint.GenerateTraces(law, units, 12*checkpoint.Year, 60, 3)
	job := &checkpoint.Job{
		Work: 8 * checkpoint.Day,
		C:    600, R: 600, D: 60,
		Units: units,
		Start: checkpoint.Year,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol := checkpoint.NewDPNextFailure(law, law.Mean(), checkpoint.WithQuanta(150))
		if _, err := checkpoint.Simulate(context.Background(), job, pol, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPMakespanTableBuild measures the one-off Algorithm 1 table
// construction.
func BenchmarkDPMakespanTableBuild(b *testing.B) {
	law := checkpoint.WeibullFromMeanShape(checkpoint.Day, 0.7)
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.BuildDPMakespanTable(law, 20*checkpoint.Day, 600, 600, 60, 0, 80); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures renewal-trace generation at Petascale
// unit counts.
func BenchmarkTraceGeneration(b *testing.B) {
	law := checkpoint.WeibullFromMeanShape(125*checkpoint.Year, 0.7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkpoint.GenerateTraces(law, 45208, 12*checkpoint.Year, 60, uint64(i))
	}
}

// BenchmarkLowerBound measures the omniscient bound on a busy trace.
func BenchmarkLowerBound(b *testing.B) {
	law := checkpoint.NewExponentialMean(4000)
	ts := checkpoint.GenerateTraces(law, 8, 1e8, 60, 5)
	job := &checkpoint.Job{Work: 200000, C: 300, R: 300, D: 60, Units: 8}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := checkpoint.SimulateLowerBound(context.Background(), job, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmpiricalCondSurvival measures the log-based conditional
// survival lookup that dominates DPNextFailure's grid build in §6 runs.
func BenchmarkEmpiricalCondSurvival(b *testing.B) {
	logd := checkpoint.SyntheticLog(checkpoint.Cluster19, 50000, 1)
	emp := checkpoint.NewEmpirical(logd)
	mean := emp.Mean()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += emp.CondSurvival(mean/16, float64(i%1000)*mean/500)
	}
	_ = sink
}
