// Package service binds the declarative experiment layer (internal/spec)
// and the parallel evaluation engine (internal/engine) to an HTTP network
// surface — the first subsystem on the serving half of the roadmap, where
// checkpoint-interval recommendations are consumed by schedulers instead
// of read off batch-generated tables.
//
// The API mirrors how the paper's results are used in practice: a caller
// describes a platform, a failure law and a job, and asks which
// checkpointing policy (and period) minimizes the expected makespan.
//
//   - POST /v1/evaluate  — synchronous single-cell evaluation of an
//     ExperimentSpec document (the same strict-decode JSON the cmd tools'
//     -spec flag loads). Identical concurrent requests are coalesced on
//     the spec's canonical hash: one engine run serves every waiter.
//   - POST /v1/sweep     — streaming grid sweep: cells are emitted as
//     NDJSON in the experiment's deterministic expansion order, as soon
//     as the completed prefix grows (engine.Stream semantics). Each cell
//     carries its rendered table text, byte-identical to what
//     `chkpt-tables -spec` prints, so a stream concatenation reproduces
//     the batch output exactly. Client disconnects cancel the sweep via
//     the request context.
//   - POST /v1/sweeps, GET /v1/sweeps/{id} — durable sweep jobs: the
//     same grid as /v1/sweep, journaled in the store (internal/store)
//     under the spec's canonical hash before the submission is
//     acknowledged. Cells persist content-addressed in expansion order
//     as they complete, so the completed set is always a prefix;
//     re-submitting an identical spec resumes from that prefix and
//     re-runs zero completed cells, across process restarts included.
//     GET streams the cells as NDJSON from ?from=N (default 0) — the
//     persisted prefix straight from the store, then live cells as the
//     runner lands them — byte-identical to the /v1/sweep stream.
//   - GET  /v1/recommend — convenience lookup: platform preset, law
//     family/shape, processor count and optional C/D/R/work overrides in
//     query parameters; returns the winning policy and period.
//   - POST /v1/sessions, GET/DELETE /v1/sessions/{id},
//     POST /v1/sessions/{id}/events — online advisor sessions: the
//     internal/advisor decision loop as a network API. A SessionSpec
//     (scenario + one policy, strict decode) compiles through the policy
//     registry into a live session; event batches apply in order under a
//     per-session lock and answer with the next decision; sessions live
//     in a bounded TTL store (sliding window, lazy reclamation; a full
//     store answers 429 like the admission queue). Every accepted event
//     is appended to the durable session log before the decision is
//     returned, so a restarted server rehydrates a session on demand by
//     replaying its journal — bit-identical to the uninterrupted
//     session, per the advisor/simulator equivalence contract. DELETE
//     and TTL eviction write tombstones: a dead session stays dead.
//   - GET  /v1/registry  — the registered distribution families, policy
//     kinds and platform presets (the spec registries).
//   - GET  /healthz, GET /metrics, GET /v1/debug/traces — mounted by
//     obs.Serve, the code chkpt-store serves them from too: liveness
//     with build info; Prometheus-style text metrics (request counts
//     and latency histograms by matched route, the span-fed stage
//     histograms, coalescing hits, admission rejections, engine cache
//     hit/miss/eviction counters, session store gauges/counters,
//     session recoveries, sweep-job and durable-store counters) from
//     the server's obs.Registry; and the span ring.
//
// The server is production-shaped rather than a demo mux: a bounded
// admission queue sheds load with 429 + Retry-After before work starts,
// per-request timeouts bound every evaluation, access logs go through
// log/slog, and cmd/chkpt-serve drains gracefully on SIGTERM through the
// same signal wiring the batch tools use (internal/cliutil).
//
// Determinism is inherited, not re-proven: results depend only on the
// spec document (traces, seeds, quanta are all inside it), never on the
// server's worker count, cache state or request interleaving.
package service
