// Package engine is the parallel experiment engine behind every table and
// figure of the reproduction: a bounded worker pool with deterministic
// result ordering, plus a shared artifact cache.
//
// It has no direct counterpart in the paper — it is the infrastructure
// that makes the §4.1 methodology (hundreds of pre-generated traces per
// scenario cell, swept over processor grids in §5) tractable at scale.
// An experiment decomposes into (scenario × policy × trace) cells; Run
// and Stream execute cells concurrently and hand results back ordered by
// cell index, so the same seed produces byte-identical tables for every
// worker count. Stream additionally delivers each result as soon as the
// contiguous prefix of cells has completed — the single-processor table
// experiments use it to render each finished scenario while the remaining
// scenarios still run.
//
// The Cache memoizes the expensive artifacts cells share, in two tiers.
// The engine's own cache is process-wide and holds only seed-free
// artifacts, which any later request can hit: DPMakespan tables (Algorithm
// 1, built once per (law, job geometry, quanta) key), DPNextFailure
// planners (Algorithm 2, whose pristine-state plan memo turns the
// per-trace initial solve into a lookup) and the survival grid of the
// pristine state. Artifacts whose key carries a seed or a post-failure age
// set — renewal trace sets (§4.1's paired traces, reused by every policy
// of a scenario and by scenarios sharing a seed) and the DPNextFailure
// survival grids of the states after the pristine one — live in a scope
// (Engine.Scope): a second cache, with the process cache's byte budget,
// that belongs to one request, sweep job or CLI invocation, is shared by
// its cells, and is dropped with it. So the process cache does not grow
// with traffic, and a server's worst case is one budget for the process
// cache plus one per admission slot. The spec entry points open a scope
// per call unless handed one, experiment runs open one per run, and the
// batch tools one per invocation; sessions compile outside any scope and
// keep their post-failure grids in their own scratch. Every cached
// artifact is a deterministic pure function of its key, so hits never
// change experiment output — they only skip recomputation. Entries are
// built at most once (concurrent requesters block on the first builder)
// and evicted least-recently-used against a byte budget.
//
// Nested Run/Stream calls are allowed — each call spawns its own worker
// set, so a cell may itself fan out (the PeriodLB search inside a figure
// cell, for example) without risking pool starvation.
//
// Cancellation: Run and Stream take a context.Context. Cancelling it
// stops workers from claiming further cells and returns ctx.Err()
// promptly; cells that completed keep their deterministic values, so
// anything already emitted by Stream is a contiguous prefix of the
// uncancelled sequence. An uncancelled context never changes results.
package engine
