package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
)

// Backend is what a store server serves: the full store plus its lease
// face. Both local backends (MemStore, FileStore) satisfy it.
type Backend interface {
	store.Store
	store.LeaseStore
}

// ServerConfig configures a StoreServer.
type ServerConfig struct {
	// Backend is the store being served. Required.
	Backend Backend
	// Logger receives the access log. Nil discards it.
	Logger *slog.Logger
	// IDs mints request ids for requests arriving without an
	// X-Request-ID header. Nil selects the random source.
	IDs obs.IDSource
	// Clock times the server's spans and requests. Nil selects the real
	// clock.
	Clock obs.Clock
	// TraceCapacity bounds the span ring buffer (0 = default).
	TraceCapacity int
	// Version is reported by /healthz.
	Version string
}

// StoreServer exposes a Backend over the wire protocol, with the same
// observability surface the API server has (obs.Serve): X-Request-ID
// adoption, an own span ring at /v1/debug/traces, /metrics and a
// /healthz probe. Backend spans (store.append, store.fsync,
// store.replay, store.lease, ...) started under a request context land
// in this server's tracer carrying the client's request id — that is
// what makes one logical request traceable across both processes — and
// feed this server's stage histograms, so the checkpoint cost C (fsync)
// and recovery cost R (replay) are measured where they are paid.
type StoreServer struct {
	be      Backend
	rpcs    *obs.CounterVec // wire operations served, by op
	handler http.Handler
}

// NewStoreServer builds the server around a backend.
func NewStoreServer(cfg ServerConfig) *StoreServer {
	if cfg.Backend == nil {
		panic("cluster: ServerConfig.Backend is required")
	}
	reg := obs.NewRegistry()
	sv := &StoreServer{
		be:   cfg.Backend,
		rpcs: reg.CounterVec("chkpt_store_server_rpcs_total", "Wire operations served, by op.", "op"),
	}
	for _, op := range wireOps {
		sv.rpcs.With(op)
	}
	store.RegisterStats(reg, cfg.Backend.Stats)
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+wirePathPrefix+"{op}", sv.handleOp)
	sv.handler = obs.Serve(mux, obs.ServeConfig{
		Registry: reg,
		Tracer: obs.NewTracer(obs.TracerConfig{
			Clock:    cfg.Clock,
			Capacity: cfg.TraceCapacity,
			OnEnd:    obs.Stages(reg, nil),
		}),
		Span:    "store.serve",
		IDs:     cfg.IDs,
		Logger:  cfg.Logger,
		Version: cfg.Version,
	})
	return sv
}

// Handler returns the server's HTTP handler.
func (sv *StoreServer) Handler() http.Handler { return sv.handler }

// handleOp decodes one framed operation, dispatches it against the
// backend, and answers one framed response envelope, followed for a
// successful replay by the session's log image, with the reply's
// Content-Length set. Domain errors ride inside the 200; only an
// undecodable request (which was not executed, so the client may treat
// it as never sent) is a plain-text 400.
func (sv *StoreServer) handleOp(w http.ResponseWriter, r *http.Request) {
	op := r.PathValue("op")
	obs.SpanFrom(r.Context()).SetAttr("op", op)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxWireBytes))
	if err != nil {
		http.Error(w, fmt.Sprintf("read request: %v", err), http.StatusBadRequest)
		return
	}
	var req wireRequest
	if err := decodeWire(body, &req); err != nil {
		http.Error(w, fmt.Sprintf("decode request: %v", err), http.StatusBadRequest)
		return
	}
	resp, ok := sv.dispatch(r.Context(), op, &req)
	if !ok {
		http.Error(w, fmt.Sprintf("bad %s request: %s", op, resp.Err.Msg), http.StatusBadRequest)
		return
	}
	sv.rpcs.With(op).Inc()
	frame, err := encodeWire(&resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)+len(resp.image)))
	_, _ = w.Write(frame)
	_, _ = w.Write(resp.image)
}

// dispatch runs one operation. ok=false means the request itself was
// malformed (unknown op, missing fields) and nothing was executed; the
// caller answers 400 with resp.Err.Msg.
func (sv *StoreServer) dispatch(ctx context.Context, op string, req *wireRequest) (wireResponse, bool) {
	bad := func(format string, args ...any) (wireResponse, bool) {
		return wireResponse{Err: &wireError{Kind: kindBadRequest, Msg: fmt.Sprintf(format, args...)}}, false
	}
	fail := func(err error) (wireResponse, bool) {
		return wireResponse{Err: toWireError(err)}, true
	}
	ttl := time.Duration(req.TTLMS) * time.Millisecond
	switch op {
	case opCreated:
		if req.ID == "" || req.Spec == nil {
			return bad("created needs id and spec")
		}
		return fail(sv.be.AppendCreated(ctx, req.ID, req.Spec))
	case opEvent:
		if req.ID == "" || req.Event == nil {
			return bad("event needs id and event")
		}
		return fail(sv.be.AppendEvent(ctx, req.ID, *req.Event))
	case opAdvised:
		if req.ID == "" {
			return bad("advised needs id")
		}
		return fail(sv.be.AppendAdvised(ctx, req.ID))
	case opTombstone:
		if req.ID == "" {
			return bad("tombstone needs id")
		}
		return fail(sv.be.Tombstone(ctx, req.ID))
	case opReplay:
		if req.ID == "" {
			return bad("replay needs id")
		}
		rep, err := sv.be.Replay(ctx, req.ID)
		if err != nil {
			return fail(err)
		}
		image, err := rep.Image()
		if err != nil {
			return fail(err)
		}
		return wireResponse{Records: 1 + len(rep.Steps), image: image}, true
	case opPut:
		if req.Key == "" {
			return bad("put needs key")
		}
		return fail(sv.be.Put(ctx, req.Key, req.Val))
	case opGet:
		if req.Key == "" {
			return bad("get needs key")
		}
		val, found, err := sv.be.Get(ctx, req.Key)
		if err != nil {
			return fail(err)
		}
		return wireResponse{Val: val, Found: found}, true
	case opPutLeased:
		if req.Key == "" || req.Lease == nil {
			return bad("put-leased needs key and lease")
		}
		return fail(sv.be.PutLeased(ctx, *req.Lease, req.Key, req.Val))
	case opLeaseAcquire:
		if req.Key == "" || req.Owner == "" {
			return bad("lease-acquire needs key and owner")
		}
		l, err := sv.be.AcquireLease(ctx, req.Key, req.Owner, ttl)
		if err != nil {
			return fail(err)
		}
		return wireResponse{Lease: &l}, true
	case opLeaseRenew:
		if req.Lease == nil {
			return bad("lease-renew needs lease")
		}
		return fail(sv.be.RenewLease(ctx, *req.Lease, ttl))
	case opLeaseRelease:
		if req.Lease == nil {
			return bad("lease-release needs lease")
		}
		return fail(sv.be.ReleaseLease(ctx, *req.Lease))
	case opStats:
		st := sv.be.Stats()
		return wireResponse{Stats: &st}, true
	default:
		return bad("unknown op %q", op)
	}
}
