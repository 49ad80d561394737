// Package exper registers one runnable experiment per table and figure of
// the paper's evaluation (§5-§6 plus the appendices).
//
// Paper mapping (experiment id → artifact):
//
//   - table2/table3: Tables 2-3, single processor, Exponential/Weibull
//     k=0.7 (tables.go);
//   - table4: Table 4, 45,208 processors, Weibull k=0.7 — the headline
//     result (tables.go);
//   - spares: the §5.2.2 failures-per-run statistics behind the spare
//     processor discussion (tables.go);
//   - fig1: the §3.1 platform-MTBF comparison (figures.go);
//   - fig2/fig3/fig4/fig6: degradation vs processors on the
//     Petascale/Exascale grids, Exponential and Weibull laws (figures.go);
//   - fig5: degradation vs Weibull shape k (figures.go);
//   - fig7/fig100: the §6 log-based experiments on the synthetic LANL
//     clusters (logbased.go);
//   - fig98/fig99: the Appendix D work-model figures (figures.go);
//   - figA-*/figB-matrix: the Appendix A period sweeps and the Appendix
//     B/C law × work-model × overhead matrix (appendix.go);
//   - replication/optimal-p/ablation-dpnf: the §8 future-work extensions
//     and the DPNextFailure design ablation (extensions.go).
//
// Each experiment has laptop-scale "quick" defaults and a paper-scale mode
// (-full): the quick mode preserves the qualitative findings (orderings,
// crossovers) with fewer traces, coarser processor grids and coarser DP
// quanta, while the full mode restores the 600-trace, full-grid
// methodology of §4. All experiments execute their cells through the
// experiment engine configured in Params (worker count and artifact cache
// — see repro/internal/engine); output is byte-identical for every worker
// count.
//
// Experiment.Run takes a context.Context that cancels mid-experiment
// (the cmd tools wire SIGINT/SIGTERM to it).
//
// Every comparison of a candidate set runs as spec cells (repro/internal/
// spec), the one path of the §4.1 methodology. The experiments whose
// output is one spec's rendering are declarative — table2/3/4, spares,
// fig2-fig7 and ablation-dpnf: each registers a Spec builder, register
// derives Run from it (RunSpec), and the cmd tools' -dump-spec prints
// the same spec, so a dumped spec replayed with -spec prints the
// flag-driven bytes. fig98/99, fig100 and the appendix sweeps build
// their cells as specs too, but render them with table code of their
// own (a makespan pivot, two logs in a row, reference lines, a matrix),
// so they register Run only. fig1, replication and optimal-p compare no
// candidate set (closed forms, a replicated simulator run, one policy
// over a processor grid), so they call the theory and the simulator
// directly.
package exper
