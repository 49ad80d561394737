package service

import (
	"repro/internal/obs"
	"repro/internal/store"
)

// remoteStoreOps mirrors the remote store wire protocol's operation
// names so every {op,result} series of
// chkpt_remote_store_rpc_seconds renders from the first scrape, before
// (or without) any RPC. An op this list doesn't know — a protocol
// extension — still gets a series lazily on its first observation.
var remoteStoreOps = []string{
	"created", "event", "advised", "tombstone", "replay",
	"put", "get", "put-leased",
	"lease-acquire", "lease-renew", "lease-release", "stats",
}

// metrics holds the counters the server owns, registered on its obs
// registry (see register for what each counts).
type metrics struct {
	coalesceRuns       *obs.Counter
	coalesceHits       *obs.Counter
	rejected           *obs.Counter
	sweepCancelled     *obs.Counter
	decisions          *obs.Counter
	sweepJobsCreated   *obs.Counter
	sweepJobsResumed   *obs.Counter
	sweepCellsComputed *obs.Counter
	sweepCellsRestored *obs.Counter
}

// register builds the server's families on reg: the counters it owns
// (s.met), and collectors for the values the session store, the durable
// store and the engine cache own.
func (s *Server) register(reg *obs.Registry) {
	s.met = &metrics{
		coalesceRuns:       reg.Counter("chkpt_coalesce_runs_total", "Coalesced evaluations actually executed."),
		coalesceHits:       reg.Counter("chkpt_coalesce_hits_total", "Requests served by joining another request's evaluation."),
		rejected:           reg.Counter("chkpt_admission_rejected_total", "Requests shed by the admission queue (429)."),
		sweepCancelled:     reg.Counter("chkpt_sweep_cancelled_total", "Sweeps terminated by client cancellation."),
		decisions:          reg.Counter("chkpt_session_decisions_total", "Advisor decisions served over /v1/sessions."),
		sweepJobsCreated:   reg.Counter("chkpt_sweep_jobs_created_total", "Durable sweep jobs journaled via POST /v1/sweeps."),
		sweepJobsResumed:   reg.Counter("chkpt_sweep_jobs_resumed_total", "Sweep-job submissions or loads that found an existing job."),
		sweepCellsComputed: reg.Counter("chkpt_sweep_cells_computed_total", "Sweep-job cells evaluated by the runners."),
		sweepCellsRestored: reg.Counter("chkpt_sweep_cells_restored_total", "Sweep-job cells recovered from the result store without re-running."),
	}
	reg.Collect(func(sc *obs.Scrape) {
		ss := s.store.stats()
		sc.Counter("chkpt_sessions_created_total", "Advisor sessions created.", ss.created)
		sc.Counter("chkpt_sessions_evicted_total", "Advisor sessions reclaimed by TTL expiry.", ss.evicted)
		sc.Counter("chkpt_sessions_rejected_total", "Session creations refused by the store capacity bound (429).", ss.rejected)
		sc.Counter("chkpt_sessions_recovered_total", "Sessions rehydrated from the durable event log.", ss.recovered)
		sc.Gauge("chkpt_sessions_open", "Live advisor sessions.", int64(ss.open))
	})
	store.RegisterStats(reg, s.st.Stats)
	reg.Collect(func(sc *obs.Scrape) {
		cs, ok := s.eng.CacheStats()
		if !ok {
			return
		}
		sc.Counter("chkpt_engine_cache_hits_total", "Engine artifact cache hits.", cs.Hits)
		sc.Counter("chkpt_engine_cache_misses_total", "Engine artifact cache misses.", cs.Misses)
		sc.Counter("chkpt_engine_cache_evictions_total", "Engine artifact cache LRU evictions.", cs.Evictions)
		sc.Gauge("chkpt_engine_cache_entries", "Live engine cache entries.", int64(cs.Entries))
		sc.Gauge("chkpt_engine_cache_bytes", "Estimated engine cache footprint in bytes.", cs.Bytes)
		sc.Gauge("chkpt_engine_cache_budget_bytes", "Engine cache eviction threshold in bytes.", cs.Budget)
	})
}

// Snapshot is a point-in-time copy of the server's counters, exposed for
// tests and operational introspection.
type Snapshot struct {
	// CoalesceRuns counts evaluations actually executed; CoalesceHits
	// counts requests that shared another request's run.
	CoalesceRuns, CoalesceHits uint64
	// Rejected counts requests shed by the admission queue (429).
	Rejected uint64
	// SweepCancelled counts sweeps terminated by client cancellation.
	SweepCancelled uint64
	// SessionsOpen gauges the live advisor sessions; SessionsCreated,
	// SessionsEvicted (TTL expiries) and SessionsRejected (capacity 429s)
	// count the store's lifecycle events.
	SessionsOpen                                       int
	SessionsCreated, SessionsEvicted, SessionsRejected uint64
	// SessionsRecovered counts sessions rehydrated from the durable log
	// after a restart (or after being dropped from memory).
	SessionsRecovered uint64
	// SessionDecisions counts advisor decisions served over /v1/sessions.
	SessionDecisions uint64
	// SweepJobsCreated / SweepJobsResumed count durable sweep jobs
	// journaled vs found already journaled; SweepCellsComputed /
	// SweepCellsRestored count cells evaluated vs recovered from the
	// store without re-running.
	SweepJobsCreated, SweepJobsResumed     uint64
	SweepCellsComputed, SweepCellsRestored uint64
	// Store snapshots the persistence backend's operation counters.
	Store store.Stats
}

// Metrics returns a point-in-time snapshot of the server's counters.
func (s *Server) Metrics() Snapshot {
	m, ss := s.met, s.store.stats()
	return Snapshot{
		CoalesceRuns:       m.coalesceRuns.Value(),
		CoalesceHits:       m.coalesceHits.Value(),
		Rejected:           m.rejected.Value(),
		SweepCancelled:     m.sweepCancelled.Value(),
		SessionsOpen:       ss.open,
		SessionsCreated:    ss.created,
		SessionsEvicted:    ss.evicted,
		SessionsRejected:   ss.rejected,
		SessionsRecovered:  ss.recovered,
		SessionDecisions:   m.decisions.Value(),
		SweepJobsCreated:   m.sweepJobsCreated.Value(),
		SweepJobsResumed:   m.sweepJobsResumed.Value(),
		SweepCellsComputed: m.sweepCellsComputed.Value(),
		SweepCellsRestored: m.sweepCellsRestored.Value(),
		Store:              s.st.Stats(),
	}
}
