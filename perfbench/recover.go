package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/store"
)

// Recover-cluster workload size: session histories seeded at set-up,
// batches per history, and replicas started per measured round.
const (
	recoverN        = 100
	recoverBatches  = 40
	recoverReplicas = 2
)

// recoverWorkload restores a dead replica's sessions through a fresh
// N-replica tier: the read side of the store, the wire, the forwarder and
// advisor replay.
type recoverWorkload struct {
	seed     uint64
	sessions []*genSession
	ops      []int // session restored by each op, in send order, round by round
}

// newRecoverWorkload generates n session histories of batches batches.
func newRecoverWorkload(seed uint64, n, batches int) (*recoverWorkload, error) {
	eng := engine.New(engine.Config{Cache: engine.NewCache(0)})
	gs, err := genSessions(context.Background(), eng, seed, n, batches, nil, nil)
	if err != nil {
		return nil, err
	}
	for _, g := range gs {
		if len(g.batches) != batches {
			return nil, fmt.Errorf("session %s completed after %d batches; its history is too short", g.id, len(g.batches))
		}
	}
	return &recoverWorkload{seed: seed, sessions: gs}, nil
}

// round returns the order round r restores the sessions in.
func (w *recoverWorkload) round(r int) []int {
	return rand.New(rand.NewPCG(w.seed, uint64(r)+1<<32)).Perm(len(w.sessions))
}

type recoverSystem struct {
	w       *recoverWorkload
	fs      *store.FileStore
	storeLn *loopback
	cs      clients
	t       *tracer
	tier    *tier // the last round's replicas and forwarder
	ops     int   // ops sent so far, across rounds
}

// setup starts the store server over a FileStore, seeds every history
// through a previous-life replica on a RemoteStore, and closes that
// replica.
func (w *recoverWorkload) setup(dir string, t *tracer) (system, error) {
	fs, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	s := &recoverSystem{w: w, fs: fs, cs: newClients(clientsN), t: t}
	ss := cluster.NewStoreServer(cluster.ServerConfig{Backend: traceStore(fs, t, spanAppend, spanReplay)})
	if s.storeLn, err = serve(timedHandler(t, spanServer, ss.Handler())); err != nil {
		s.close()
		return nil, err
	}
	if err := s.seed(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *recoverSystem) remote() (*cluster.RemoteStore, error) {
	cfg := cluster.RemoteConfig{BaseURL: s.storeLn.url}
	if s.t != nil {
		cfg.Client = &http.Client{Transport: &tracedTransport{base: http.DefaultTransport, t: s.t}}
	}
	return cluster.NewRemote(cfg)
}

// seed plays every session's history into the store through one replica,
// checking every reply, then closes the replica.
func (s *recoverSystem) seed() error {
	rs, err := s.remote()
	if err != nil {
		return err
	}
	defer rs.Close()
	rep, err := startReplica(rs, nil)
	if err != nil {
		return err
	}
	defer rep.close()
	gs := s.w.sessions
	if err := createSessions(s.cs, rep.ln.url, gs); err != nil {
		return err
	}
	// Client c owns sessions c, c+clientsN, ...; it sends them batch by
	// batch, so each session's batches stay in order.
	q := make(queues, clientsN)
	for b := range len(gs[0].batches) {
		for i := range gs {
			q[i%clientsN] = append(q[i%clientsN], b*len(gs)+i)
		}
	}
	ph := closedLoop(clientsN, time.Time{}, q.next(), func(c, op int) error {
		return postBatch(s.cs[c], rep.ln.url, gs[op%len(gs)], op/len(gs), fmt.Sprintf("seed-%d", op))
	})
	if ph.failed > 0 {
		return fmt.Errorf("seeding histories: %d of %d batches failed: %w", ph.failed, ph.attempted, ph.firstErr)
	}
	return nil
}

// tier is one measured round's fresh replicas and forwarder.
type tier struct {
	remotes  []*cluster.RemoteStore
	replicas []*replica
	fwd      *loopback
}

func (s *recoverSystem) startTier() (*tier, error) {
	tr := &tier{}
	var urls []string
	for range recoverReplicas {
		rs, err := s.remote()
		if err != nil {
			tr.close()
			return nil, err
		}
		tr.remotes = append(tr.remotes, rs)
		rep, err := startReplica(traceStore(rs, s.t, spanRemote, spanRemote), s.t)
		if err != nil {
			tr.close()
			return nil, err
		}
		tr.replicas = append(tr.replicas, rep)
		urls = append(urls, rep.ln.url)
	}
	fw, err := cluster.NewForwarder(urls, nil)
	if err != nil {
		tr.close()
		return nil, err
	}
	if tr.fwd, err = serve(timedHandler(s.t, spanForwarder, fw)); err != nil {
		tr.close()
		return nil, err
	}
	return tr, nil
}

func (tr *tier) close() {
	if tr == nil {
		return
	}
	tr.fwd.close()
	for _, r := range tr.replicas {
		r.close()
	}
	for _, rs := range tr.remotes {
		rs.Close()
	}
}

// measure runs whole rounds until the deadline: each closes the last
// round's tier, starts a fresh one and restores every session through its
// forwarder once. The last tier stays up, holding its restored sessions,
// until close.
func (s *recoverSystem) measure(deadline time.Time) phase {
	var ph phase
	for time.Now().Before(deadline) {
		start := time.Now()
		s.tier.close()
		tr, err := s.startTier()
		s.tier = tr
		if err != nil {
			ph.attempted++
			ph.failed++
			ph.firstErr = err
			return ph
		}
		base, n := s.ops, len(s.w.sessions)
		if len(s.w.ops) < base+n {
			s.w.ops = append(s.w.ops, s.w.round(base/n)...)
		}
		var cursor atomic.Int64
		round := closedLoop(clientsN, time.Time{}, func(int) (int, bool) {
			k := int(cursor.Add(1)) - 1
			return base + k, k < n
		}, func(c, op int) error { return s.restore(c, tr.fwd.url, op) })
		round.wall = time.Since(start)
		s.ops += n
		ph.merge(round)
	}
	return ph
}

// restore reads one session through the forwarder and checks it against
// the mirror's last state and decision.
func (s *recoverSystem) restore(c int, base string, op int) error {
	g := s.w.sessions[s.w.ops[op]]
	var got service.SessionResponse
	if err := call(s.cs[c], http.MethodGet, base+"/v1/sessions/"+g.id, opID(op), nil, &got); err != nil {
		return err
	}
	return checkReply(g, got.ID, got.Name, sessionReply(got.State, got.Decision), g.last)
}

func (s *recoverSystem) close() {
	s.tier.close()
	s.storeLn.close()
	s.cs.closeIdle()
	if s.fs != nil {
		s.fs.Close()
	}
}
