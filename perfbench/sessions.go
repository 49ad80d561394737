package main

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/store"
)

// Sessions workload size: sessions created at set-up, and batches
// generated per session — several times what a run sends, so a client
// runs dry only if the program gets several times faster.
const (
	sessionsN       = 512
	sessionsBatches = 240
)

// sessionsWorkload is one durable replica taking session event batches:
// the write path of every durable session event. Op b*n+i is batch b of
// session i.
type sessionsWorkload struct {
	sessions []*genSession
	queues   queues // per client, its ops in send order
}

// newSessionsWorkload generates n sessions of up to batches batches.
func newSessionsWorkload(seed uint64, n, batches int, t *tracer) (*sessionsWorkload, error) {
	eng := engine.New(engine.Config{Cache: engine.NewCache(0)})
	opOf := func(i, b int) string { return opID(b*n + i) }
	gs, err := genSessions(context.Background(), eng, seed, n, batches, t, opOf)
	if err != nil {
		return nil, err
	}
	// Client c owns sessions c, c+clientsN, ...; it sends them round by
	// round, so each session's batches stay in order.
	w := &sessionsWorkload{sessions: gs, queues: make(queues, clientsN)}
	for b := range batches {
		for i, g := range gs {
			if b < len(g.batches) {
				w.queues[i%clientsN] = append(w.queues[i%clientsN], b*n+i)
			}
		}
	}
	return w, nil
}

// replica is one service.Server on a loopback listener.
type replica struct {
	srv *service.Server
	eng *engine.Engine
	ln  *loopback
}

// startReplica starts a replica with a fresh engine (an empty cache) on
// the store.
func startReplica(st store.Store, t *tracer) (*replica, error) {
	eng := engine.New(engine.Config{Cache: engine.NewCache(0)})
	srv := service.New(service.Config{
		Engine: eng,
		Store:  st,
		Logger: slog.New(slog.DiscardHandler),
	})
	ln, err := serve(timedHandler(t, spanHandler, srv.Handler()))
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &replica{srv: srv, eng: eng, ln: ln}, nil
}

func (r *replica) close() {
	if r == nil {
		return
	}
	r.ln.close()
	r.srv.Close()
}

// createSessions creates every session through the replica at base, over
// the clients, checking each creation reply.
func createSessions(cs clients, base string, gs []*genSession) error {
	q := make(queues, len(cs))
	for i := range gs {
		q[i%len(cs)] = append(q[i%len(cs)], i)
	}
	ph := closedLoop(len(cs), time.Time{}, q.next(), func(c, i int) error {
		g := gs[i]
		var got service.SessionResponse
		if err := call(cs[c], http.MethodPost, base+"/v1/sessions?id="+g.id, "create-"+g.id, g.body, &got); err != nil {
			return err
		}
		return checkReply(g, got.ID, got.Name, sessionReply(got.State, got.Decision), g.created)
	})
	if ph.failed > 0 {
		return fmt.Errorf("creating sessions: %d of %d failed: %w", ph.failed, ph.attempted, ph.firstErr)
	}
	return nil
}

// postBatch sends batch b of session g and checks the reply.
func postBatch(c *http.Client, base string, g *genSession, b int, reqID string) error {
	body, err := g.batches[b].body(&g.job)
	if err != nil {
		return err
	}
	var got service.SessionEventsResponse
	if err := call(c, http.MethodPost, base+"/v1/sessions/"+g.id+"/events", reqID, body, &got); err != nil {
		return err
	}
	if got.Applied != batchEvents || got.Error != "" {
		return fmt.Errorf("session %s batch %d: applied %d of %d events: %s", g.id, b, got.Applied, batchEvents, got.Error)
	}
	return checkDigest(g, b, got.ID, sessionReply(got.State, got.Decision))
}

type sessionsSystem struct {
	w   *sessionsWorkload
	dir string
	fs  *store.FileStore
	rep *replica
	cs  clients
}

func (w *sessionsWorkload) setup(dir string, t *tracer) (system, error) {
	fs, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	s := &sessionsSystem{w: w, dir: dir, fs: fs, cs: newClients(clientsN)}
	if s.rep, err = startReplica(traceStore(fs, t, spanAppend, spanReplay), t); err != nil {
		s.close()
		return nil, err
	}
	if err := createSessions(s.cs, s.rep.ln.url, w.sessions); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sessionsSystem) measure(deadline time.Time) phase {
	return closedLoop(clientsN, deadline, s.w.queues.next(), func(c, op int) error {
		n := len(s.w.sessions)
		return postBatch(s.cs[c], s.rep.ln.url, s.w.sessions[op%n], op/n, opID(op))
	})
}

func (s *sessionsSystem) storeDir() string { return filepath.Join(s.dir, "store") }

func (s *sessionsSystem) close() {
	s.rep.close()
	s.cs.closeIdle()
	if s.fs != nil {
		s.fs.Close()
	}
}
