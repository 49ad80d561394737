package service

import (
	"context"
	"log/slog"
	"net/http"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/store"
)

// Config tunes a Server. The zero value is serviceable: default engine,
// one evaluation slot per engine worker, a 16-deep wait queue and a
// two-minute request timeout.
type Config struct {
	// Engine executes evaluations; its worker pool bounds the parallelism
	// inside one evaluation and its cache shares DP tables, planners and
	// traces across requests. Nil means engine.Default().
	Engine *engine.Engine
	// MaxConcurrent bounds the evaluations executing at once (queued
	// requests beyond it wait). Non-positive means the engine's worker
	// count.
	MaxConcurrent int
	// QueueDepth bounds how many admitted requests may wait for an
	// execution slot; anything beyond is rejected with 429. Zero means 16;
	// negative means no waiting queue (slots only).
	QueueDepth int
	// RequestTimeout bounds each evaluation (and each streamed sweep) from
	// admission to completion. Zero means 2 minutes; negative disables the
	// timeout.
	RequestTimeout time.Duration
	// SessionTTL bounds how long an untouched advisor session stays live;
	// every request for a session slides its window. Zero means 15
	// minutes.
	SessionTTL time.Duration
	// MaxSessions bounds the live session store; creations beyond it (with
	// nothing expired to reclaim) answer 429. Zero means 1024.
	MaxSessions int
	// Store is the durable persistence layer: the session event log and
	// the content-addressed result store. Nil means store.NewMem, the
	// store over an in-memory file system, where nothing survives the
	// process. The caller owns a provided store (the server never closes
	// it).
	Store store.Store
	// Version is the build identification reported by /healthz. Empty
	// means "dev".
	Version string
	// Logger receives structured access logs. Nil means text logs on
	// stderr.
	Logger *slog.Logger
	// Clock is the server's time source (session TTLs, access-log
	// latencies, span durations). Nil means the real clock; tests inject
	// obs.NewFakeClock for deterministic timing.
	Clock obs.Clock
	// IDs mints request ids for requests arriving without an
	// X-Request-ID header. Nil means random ids; tests inject
	// obs.NewSequenceIDSource for deterministic ones.
	IDs obs.IDSource
	// ReplicaID names this server instance in the fleet: it is the lease
	// owner for sweep-job claims. Empty mints a random one — correct for
	// a fleet, where owners must differ; fix it only in tests.
	ReplicaID string
	// SweepLeaseTTL is how long a sweep-job claim lives between renewals
	// (the window after a replica dies before another may reclaim its
	// job). Zero means 15 seconds. Measured on the store's clock.
	SweepLeaseTTL time.Duration
	// SweepRetryDelay is how long a replica waits before re-probing a
	// job whose lease another replica holds. Zero means 250ms.
	SweepRetryDelay time.Duration
}

// Server is the HTTP evaluation service over the spec/engine stack. Build
// one with New and mount Handler on an http.Server.
type Server struct {
	eng     *engine.Engine
	adm     *admission
	coal    *coalescer
	met     *metrics
	store   *sessionStore
	st      store.Store
	sweeps  *sweepJobs
	log     *slog.Logger
	timeout time.Duration
	handler http.Handler

	// Lease-claimed sweep execution (see runSweepCells): this replica's
	// lease owner name and its claim timing.
	replicaID       string
	sweepLeaseTTL   time.Duration
	sweepRetryDelay time.Duration

	// jobsCtx bounds background sweep-job runners to the server lifetime;
	// Close cancels it and waits for them.
	jobsCtx    context.Context
	jobsCancel context.CancelFunc

	// evalGate, when set (tests only), runs inside every coalesced
	// evaluation after admission and before the engine run.
	evalGate func()
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	eng := cfg.Engine
	if eng == nil {
		eng = engine.Default()
	}
	conc := cfg.MaxConcurrent
	if conc <= 0 {
		conc = eng.Workers()
	}
	depth := cfg.QueueDepth
	switch {
	case depth == 0:
		depth = 16
	case depth < 0:
		depth = 0
	}
	timeout := cfg.RequestTimeout
	if timeout == 0 {
		timeout = 2 * time.Minute
	}
	ttl := cfg.SessionTTL
	if ttl <= 0 {
		ttl = 15 * time.Minute
	}
	maxSessions := cfg.MaxSessions
	if maxSessions <= 0 {
		maxSessions = 1024
	}
	version := cfg.Version
	if version == "" {
		version = "dev"
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	st := cfg.Store
	if st == nil {
		st = store.NewMem(store.Options{})
	}
	clock := cfg.Clock
	if clock == nil {
		clock = obs.NewRealClock()
	}
	replicaID := cfg.ReplicaID
	if replicaID == "" {
		replicaID = "replica-" + obs.NewRandomIDSource().NewID()
	}
	leaseTTL := cfg.SweepLeaseTTL
	if leaseTTL <= 0 {
		leaseTTL = 15 * time.Second
	}
	retryDelay := cfg.SweepRetryDelay
	if retryDelay <= 0 {
		retryDelay = 250 * time.Millisecond
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerConfig{
		Clock: clock,
		OnEnd: obs.Stages(reg, remoteStoreOps),
	})
	jobsCtx, jobsCancel := context.WithCancel(obs.WithTracer(context.Background(), tracer))
	s := &Server{
		eng:        eng,
		adm:        newAdmission(conc, depth),
		coal:       newCoalescer(),
		store:      newSessionStore(ttl, maxSessions, st, clock),
		st:         st,
		sweeps:     newSweepJobs(),
		log:        logger,
		timeout:    timeout,
		jobsCtx:    jobsCtx,
		jobsCancel: jobsCancel,

		replicaID:       replicaID,
		sweepLeaseTTL:   leaseTTL,
		sweepRetryDelay: retryDelay,
	}

	s.register(reg)

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/registry", s.handleRegistry)
	mux.HandleFunc("POST /v1/evaluate", s.handleEvaluate)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("GET /v1/recommend", s.handleRecommend)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleSessionEvents)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepJobCreate)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepJobGet)
	s.handler = obs.Serve(mux, obs.ServeConfig{
		Registry: reg,
		Tracer:   tracer,
		Span:     "http.request",
		IDs:      cfg.IDs,
		Logger:   logger,
		Version:  version,
	})
	return s
}

// Handler returns the service's HTTP handler: the API mux, with the
// obs health, metrics and trace endpoints, wrapped in the request-id,
// tracing, access-log and metrics middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Close stops the server's background work: it cancels every running
// sweep-job runner and waits for them to drain. It does not close the
// configured store — the caller owns that handle (and closes it after
// Close returns, so no runner races a closed store).
func (s *Server) Close() {
	s.jobsCancel()
	s.sweeps.wait()
}

// runContext returns the context a coalesced evaluation executes under:
// bounded by the request timeout but detached from any single client, so
// one disconnecting waiter never cancels the work other waiters share.
// The observability values (tracer, request id, parent span) are carried
// over, so the detached work stays correlated with the request that
// started the flight.
func (s *Server) runContext(ctx context.Context) (context.Context, context.CancelFunc) {
	detached := obs.Detach(ctx)
	if s.timeout < 0 {
		return context.WithCancel(detached)
	}
	return context.WithTimeout(detached, s.timeout)
}

// requestContext bounds a non-coalesced (streaming) request: the client's
// context plus the request timeout, so both disconnects and overlong
// sweeps cancel the engine run.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout < 0 {
		return context.WithCancel(r.Context())
	}
	return context.WithTimeout(r.Context(), s.timeout)
}
