package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

// SessionState is the observable state of a live session, embedded in
// every session response.
type SessionState struct {
	Policy    string  `json:"policy"`
	Now       float64 `json:"now"`
	Remaining float64 `json:"remaining"`
	Failures  int     `json:"failures,omitempty"`
	Outage    bool    `json:"outage,omitempty"`
	Done      bool    `json:"done,omitempty"`
}

// SessionResponse answers session creation and state reads. Decision is
// present whenever the platform is up (an outage has no decision until
// its recovered event arrives).
type SessionResponse struct {
	ID        string            `json:"id"`
	Name      string            `json:"name,omitempty"`
	ExpiresAt time.Time         `json:"expiresAt"`
	State     SessionState      `json:"state"`
	Decision  *advisor.Decision `json:"decision,omitempty"`
}

// SessionEventsRequest is the POST /v1/sessions/{id}/events payload: a
// batch of events applied in order.
type SessionEventsRequest struct {
	Events []advisor.Event `json:"events"`
}

// SessionEventsResponse reports how much of a batch applied and the
// decision that now stands. On a rejected event the response is a 400
// whose body still carries Applied: everything before the bad event is
// applied and stays applied (the advisor rejects atomically per event,
// not per batch).
type SessionEventsResponse struct {
	ID       string            `json:"id"`
	Applied  int               `json:"applied"`
	State    SessionState      `json:"state"`
	Decision *advisor.Decision `json:"decision,omitempty"`
	Error    string            `json:"error,omitempty"`
}

// sessionState snapshots a session. Callers hold the liveSession mutex.
func sessionState(s *advisor.Session) SessionState {
	return SessionState{
		Policy:    s.PolicyName(),
		Now:       s.Now(),
		Remaining: s.Remaining(),
		Failures:  s.Failures(),
		Outage:    s.InOutage(),
		Done:      s.Done(),
	}
}

// advise asks the session for its standing decision, counting every
// decision actually served. During an outage there is none (nil).
//
// When no decision is cached, consulting the policy can be a state
// change (DPNextFailure advances its plan cursor in NextChunk), so
// where replay must consult the policy at the same point
// (Session.ConsultNeedsMarker), the decision point is journaled as an
// "advised" record BEFORE the policy runs. If the append fails, the
// policy is left unconsulted and no decision is served — the client
// retries, nothing desyncs. A policy that declares that NextChunk keeps
// no state needs a record only when progress came after the last commit
// or recovery; otherwise replay places the consult from the events
// alone, and the batch costs no extra append. Callers hold ls.mu.
//
// A fresh consult records an "advisor.replan" span whose warm attribute
// separates the session's first plan (cold) from later re-plans that
// warm-start off the previous plan.
func (s *Server) advise(ctx context.Context, ls *liveSession) *advisor.Decision {
	if ls.sess.InOutage() {
		return nil
	}
	fresh := !ls.sess.HasDecision()
	if fresh && ls.sess.ConsultNeedsMarker() {
		if err := s.st.AppendAdvised(ctx, ls.id); err != nil {
			s.log.Error("session advised-marker append failed", "session", ls.id, "err", err)
			return nil
		}
	}
	var span *obs.ActiveSpan
	if fresh {
		_, span = obs.StartSpan(ctx, "advisor.replan")
		span.SetAttr("session", ls.id)
		if ls.advised {
			span.SetAttr("warm", "true")
		} else {
			span.SetAttr("warm", "false")
		}
	}
	d, err := ls.sess.Advise()
	span.End()
	if err != nil {
		return nil
	}
	if fresh {
		ls.advised = true
	}
	s.met.decisions.Inc()
	return &d
}

// writeSessionResponse renders a live session's state (with its
// standing decision) under the given status code.
func (s *Server) writeSessionResponse(w http.ResponseWriter, r *http.Request, ls *liveSession, expires time.Time, code int) {
	ls.mu.Lock()
	resp := &SessionResponse{
		ID:        ls.id,
		Name:      ls.name,
		ExpiresAt: expires,
		State:     sessionState(ls.sess),
		Decision:  s.advise(r.Context(), ls),
	}
	ls.mu.Unlock()
	writeJSON(w, code, resp)
}

// handleSessionCreate compiles a session spec and stores a live session.
// Compilation can build DP planners, so it runs inside the same admission
// bulkhead as evaluations; the store itself enforces the session-count
// bound (full store → 429, like the queue).
//
// With ?id= the client chooses the session id, which makes creation
// replica-transparent: two replicas racing the same creation resolve
// through the append-once log — the loser's AppendCreated answers
// ErrSessionExists, and it adopts the winner's session by replay
// (bit-identical, per the replay-equivalence contract) and answers 200
// instead of 201.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	if id != "" {
		if err := store.ValidID(id); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("service: chosen session id: %w", err))
			return
		}
	}
	ss, err := spec.DecodeSession(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	submittedHash := specDigest(ss)
	// A chosen id that is already live here is an idempotent re-create:
	// answer its current state without recompiling anything — but only
	// for a true repeat. A different spec under the same id is a client
	// bug; silently answering the old session would hand it an advisor
	// for the wrong scenario, so it is a 409 instead.
	if id != "" {
		if ls, expires, ok := s.store.get(r.Context(), id); ok {
			if ls.specHash != submittedHash {
				writeError(w, http.StatusConflict, errSpecMismatch(id))
				return
			}
			s.writeSessionResponse(w, r, ls, expires, http.StatusOK)
			return
		}
	}
	// Shed a full store before compiling: DP-planner specs pay a real
	// solve in CompileAdvisor, which a doomed creation must not burn.
	if s.store.full(r.Context()) {
		writeError(w, http.StatusTooManyRequests, errSessionsFull)
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		if errors.Is(err, errOverload) {
			s.met.rejected.Inc()
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, errorStatus(err), err)
		return
	}
	adv, err := spec.CompileAdvisor(ctx, s.eng, ss)
	s.adm.release()
	if err != nil {
		// Compilation failures are configuration mistakes: unknown names,
		// infeasible geometry, unschedulable policies.
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sess, err := adv.NewSession()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ls, expires, existed, err := s.store.create(r.Context(), id, ss.Name, submittedHash, sess)
	if err != nil {
		switch {
		case errors.Is(err, errSessionsFull):
			// Counted by the store (chkpt_sessions_rejected_total), not as
			// an admission-queue shed.
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, store.ErrTombstoned):
			// The id was just reaped; its log ends in a tombstone, as a
			// create after the tombstone lands finds too.
			writeError(w, http.StatusNotFound, errSessionNotFound(id))
		default:
			writeError(w, errorStatus(err), err)
		}
		return
	}
	if existed {
		// A racing creation on this replica won while we compiled. Only a
		// true repeat is idempotent; a different spec is a conflict.
		if ls.specHash != submittedHash {
			writeError(w, http.StatusConflict, errSpecMismatch(id))
			return
		}
		s.writeSessionResponse(w, r, ls, expires, http.StatusOK)
		return
	}
	// Journal the creating spec before acknowledging: a session the
	// client has seen must be recoverable from its log.
	if err := s.st.AppendCreated(r.Context(), ls.id, ss); err != nil {
		s.store.drop(ls.id)
		if errors.Is(err, store.ErrSessionExists) && id != "" {
			// Another replica (or a previous life of this one) created the
			// id first: the append-once log is the arbiter. Adopt the
			// winner's session by replaying its journal — and 409 if the
			// winner's journaled spec is not the one this client submitted.
			if ls, expires, ok := s.getSession(w, r, id); ok {
				if ls.specHash != submittedHash {
					writeError(w, http.StatusConflict, errSpecMismatch(id))
					return
				}
				s.writeSessionResponse(w, r, ls, expires, http.StatusOK)
			}
			return
		}
		writeError(w, errorStatus(err), err)
		return
	}
	s.writeSessionResponse(w, r, ls, expires, http.StatusCreated)
}

// errSessionNotFound is the 404 body for unknown or expired ids.
func errSessionNotFound(id string) error {
	return fmt.Errorf("service: no live session %q (unknown, expired or deleted)", id)
}

// errSpecMismatch is the 409 body for a re-create whose spec differs
// from the one the session was created with.
func errSpecMismatch(id string) error {
	return fmt.Errorf("service: session %q exists with a different spec; delete it or choose another id", id)
}

// getSession returns the live session for id, rehydrating it from the
// durable log when it is not in memory (the restarted-server path).
// Rehydration recompiles the advisor from the journaled spec — a real
// solve for DP policies, so it runs inside the admission bulkhead like
// creation does — and replays the recorded steps, which by the replay
// equivalence property restores the session bit-identically. An id this
// replica removed answers 404 without a replay while its tombstone is
// pending. On failure it writes the error response and returns ok=false.
func (s *Server) getSession(w http.ResponseWriter, r *http.Request, id string) (*liveSession, time.Time, bool) {
	if ls, expires, ok := s.store.get(r.Context(), id); ok {
		return ls, expires, true
	}
	if !s.store.beginReplay(id) {
		writeError(w, http.StatusNotFound, errSessionNotFound(id))
		return nil, time.Time{}, false
	}
	defer s.store.endReplay(id)
	rep, err := s.st.Replay(r.Context(), id)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrNoSession), errors.Is(err, store.ErrTombstoned):
			writeError(w, http.StatusNotFound, errSessionNotFound(id))
		default:
			writeError(w, errorStatus(err), err)
		}
		return nil, time.Time{}, false
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		if errors.Is(err, errOverload) {
			s.met.rejected.Inc()
			writeError(w, http.StatusTooManyRequests, err)
			return nil, time.Time{}, false
		}
		writeError(w, errorStatus(err), err)
		return nil, time.Time{}, false
	}
	adv, err := spec.CompileAdvisor(ctx, s.eng, rep.Spec)
	s.adm.release()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return nil, time.Time{}, false
	}
	sess, err := adv.ReplaySession(nil, rep.Steps)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return nil, time.Time{}, false
	}
	ls, expires, err := s.store.adopt(r.Context(), id, rep.Spec.Name, specDigest(rep.Spec), sess)
	if err != nil {
		switch {
		case errors.Is(err, store.ErrTombstoned):
			writeError(w, http.StatusNotFound, errSessionNotFound(id))
		case errors.Is(err, errSessionsFull):
			writeError(w, http.StatusTooManyRequests, err)
		default:
			writeError(w, errorStatus(err), err)
		}
		return nil, time.Time{}, false
	}
	return ls, expires, true
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	if ls, expires, ok := s.getSession(w, r, r.PathValue("id")); ok {
		s.writeSessionResponse(w, r, ls, expires, http.StatusOK)
	}
}

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req SessionEventsRequest
	if err := decodeStrictJSON(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	if len(req.Events) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("service: event batch is empty"))
		return
	}
	ls, _, ok := s.getSession(w, r, id)
	if !ok {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	resp := &SessionEventsResponse{ID: ls.id}
	for _, ev := range req.Events {
		_, osp := obs.StartSpan(r.Context(), "advisor.observe")
		osp.SetAttr("session", ls.id)
		osp.SetAttr("kind", string(ev.Kind))
		err := ls.sess.Observe(ev)
		osp.End()
		if err != nil {
			// Typed advisor validation error: the batch stops here, the
			// prefix stays applied, and the client learns exactly which
			// constraint the event violated.
			resp.State = sessionState(ls.sess)
			resp.Error = err.Error()
			writeJSON(w, http.StatusBadRequest, resp)
			return
		}
		// Journal before acknowledging: an event the client saw applied
		// must survive a restart. If the append fails, the in-memory
		// session is ahead of its log — drop it, so the next access
		// rehydrates from the acknowledged durable prefix.
		if err := s.st.AppendEvent(r.Context(), ls.id, ev); err != nil {
			s.store.drop(ls.id)
			writeError(w, errorStatus(err), err)
			return
		}
		resp.Applied++
	}
	resp.State = sessionState(ls.sess)
	resp.Decision = s.advise(r.Context(), ls)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.store.delete(r.Context(), id)
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, store.ErrNoSession), errors.Is(err, store.ErrTombstoned):
		writeError(w, http.StatusNotFound, errSessionNotFound(id))
	default:
		writeError(w, errorStatus(err), err)
	}
}

// decodeStrictJSON strict-decodes a small JSON request body.
func decodeStrictJSON(w http.ResponseWriter, r *http.Request, v any) error {
	return spec.DecodeStrict(http.MaxBytesReader(w, r.Body, maxSpecBytes), v)
}
