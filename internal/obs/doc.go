// Package obs is the observability layer: request-scoped context
// propagation, in-process span tracing, and the clock boundary that
// keeps the deterministic core wall-clock-free.
//
// The paper's contribution is a latency decomposition — where a
// parallel job's time goes between useful work, checkpoint cost C,
// downtime D and recovery R — and this package lets the serving stack
// answer the same question about itself. Every hot path records spans,
// and the span names map onto the paper's cost terms:
//
//   - "advisor.replan" is the cost of consulting the policy for a fresh
//     decision — the serving-side analogue of deciding ω (the next
//     chunk) after a failure. Its "warm" attribute separates the cold
//     first plan (Algorithm 2 solved from scratch) from warm-start
//     re-plans off the previous plan's memo, mirroring the paper's
//     distinction between building the DP and walking it.
//   - "store.append" + "store.fsync" are the checkpoint cost C of the
//     serving tier itself: the durable journaling a decision pays
//     before it is acknowledged, exactly like a checkpoint paying C
//     before work may proceed.
//   - "store.replay" is recovery R: rebuilding a session's state from
//     its log after a crash, the replay-is-recovery contract.
//   - "advisor.observe" ingests downtime/recovery events (D and R as
//     reported by the platform) into the session state machine.
//   - "engine.cell" and "engine.cache" attribute evaluation latency to
//     simulation work vs. artifact (DP table, planner, trace set)
//     construction, and the cache attribute separates pay-once builds
//     from hits — the engine's own C-vs-work split.
//
// # Clock discipline
//
// All wall-clock access goes through the Clock interface. NewRealClock
// is the only sanctioned time.Now call site in the module — the
// chkpt-vet determinism analyzer enforces this mechanically (time.Now
// is permitted only inside the real clock's Now method; every other
// package takes an injected Clock). Tests inject a FakeClock so traced
// durations, request ids and TTLs are deterministic.
//
// # Context propagation
//
// WithRequestID/RequestID carry the per-request correlation id minted
// by the service middleware; WithTracer/TracerFrom carry the process
// tracer. StartSpan reads both from the context, so the deterministic
// core can be instrumented without knowing about HTTP: a package that
// is handed a context records spans if and only if the caller attached
// a tracer, and records nothing (with zero allocations on the span
// path) otherwise. Detach copies the observability values onto a fresh
// context so detached work (coalesced evaluations, background sweep
// runners) stays correlated without inheriting cancellation.
//
// # One surface for every server
//
// chkpt-serve and chkpt-store mount the same code. A Registry holds
// counter and histogram families with atomic observation, plus
// collectors (Registry.Collect) that render values another component
// owns from one snapshot per scrape. Serve mounts GET /healthz,
// GET /metrics and GET /v1/debug/traces and wraps the mux with the
// request middleware and per-route request metrics. Stages, the
// tracer's OnEnd hook, maps spans onto stage histograms, so the store
// server measures C (fsync) and R (replay) where they are paid.
package obs
