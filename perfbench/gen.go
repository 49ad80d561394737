package main

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/engine"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/spec"
)

// Session traffic shape: every batch carries six events, and in every
// block of failureBlock batches, failuresPerBlock batches at seeded
// positions (15 %) report a failure instead of a checkpoint. A fixed
// count per block keeps the re-planning work of one history close to
// another's, so a run's tail does not hinge on which few histories drew
// the most failures.
const (
	batchEvents      = 6
	failureBlock     = 20
	failuresPerBlock = 3
)

// sessionSpec is session i's spec: round-robin over four policies on the
// petascale preset at p = 4096, released one year into the platform's
// life as in the paper.
func sessionSpec(i int) *spec.SessionSpec {
	weibull := spec.DistSpec{Family: "weibull", Shape: 0.7}
	sc := spec.ScenarioSpec{Platform: spec.PlatformRef{Preset: "petascale"}, P: 4096, Dist: weibull, Start: platform.Year}
	var pol spec.PolicySpec
	switch i % 4 {
	case 0:
		pol = spec.PolicySpec{Kind: "young"}
	case 1:
		pol = spec.PolicySpec{Kind: "dalyhigh"}
	case 2:
		pol = spec.PolicySpec{Kind: "optexp"}
		sc.Dist = spec.DistSpec{Family: "exponential"}
	default:
		pol = spec.PolicySpec{Kind: "dpnextfailure", Quanta: 60}
	}
	return &spec.SessionSpec{Name: fmt.Sprintf("bench-%04d", i), Scenario: sc, Policy: pol}
}

// reply is the part of a session reply the program must reproduce: the
// state and the decision that stands after a request.
type reply struct {
	State    service.SessionState
	Decision advisor.Decision
}

// digest hashes every field of a reply, floats by their exact bits.
func (r reply) digest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	flt := func(v float64) { num(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			num(1)
		} else {
			num(0)
		}
	}
	s, d := r.State, r.Decision
	h.Write([]byte(s.Policy + "\x00" + d.Policy + "\x00"))
	flt(s.Now)
	flt(s.Remaining)
	num(uint64(s.Failures))
	flag(s.Outage)
	flag(s.Done)
	flag(d.Done)
	flt(d.Chunk)
	flt(d.CheckpointCost)
	flt(d.Now)
	flt(d.Remaining)
	num(uint64(d.Failures))
	flt(d.Period)
	flt(d.ExpectedMakespan)
	return h.Sum64()
}

// draw is the seeded part of one batch: whether it reports a failure,
// how far into the chunk that failure strikes, and which unit fails.
type draw struct {
	fail bool
	frac float64
	unit int32
}

// genBatch is one generated event batch, kept compact: the session clock
// and advised chunk it starts from, its draw, and the digest of the
// reply it must get.
type genBatch struct {
	now, chunk float64
	draw       draw
	want       uint64
}

// events builds the batch: usually five progress heartbeats and the
// checkpoint of the advised chunk; on a failure draw, four heartbeats
// into the chunk, the failure and its recovery.
func (b *genBatch) events(job *advisor.Job) []advisor.Event {
	now, chunk := b.now, b.chunk
	evs := make([]advisor.Event, 0, batchEvents)
	if d := b.draw; d.fail {
		for i := 1; i <= 4; i++ {
			evs = append(evs, advisor.Event{Kind: advisor.EventProgress, Time: now + d.frac*chunk*float64(i)/4, Work: 0.999 * d.frac * chunk / 4})
		}
		fail := now + d.frac*chunk
		return append(evs,
			advisor.Event{Kind: advisor.EventFailure, Time: fail, Unit: int(d.unit)},
			advisor.Event{Kind: advisor.EventRecovered, Time: fail + job.D + job.R})
	}
	for i := 1; i <= 5; i++ {
		evs = append(evs, advisor.Event{Kind: advisor.EventProgress, Time: now + chunk*float64(i)/5, Work: 0.999 * chunk / 5})
	}
	return append(evs, advisor.Event{Kind: advisor.EventCheckpointed, Time: now + chunk + job.C, Work: chunk})
}

// body encodes the batch as the events request.
func (b *genBatch) body(job *advisor.Job) ([]byte, error) {
	return json.Marshal(service.SessionEventsRequest{Events: b.events(job)})
}

// genSession is one generated session: its spec, the reply its creation
// must get, its event batches, and the reply the last batch must get.
type genSession struct {
	id      string
	spec    *spec.SessionSpec
	body    []byte // the creation request
	job     advisor.Job
	created reply
	last    reply
	batches []genBatch
}

// steps rebuilds the history a store holds after every batch: an
// advised marker for the creation's decision, then each batch's events
// and the advised marker of the decision that followed it.
func (g *genSession) steps() []advisor.ReplayStep {
	steps := []advisor.ReplayStep{{Advised: true}}
	for i := range g.batches {
		for _, ev := range g.batches[i].events(&g.job) {
			steps = append(steps, advisor.ReplayStep{Event: ev})
		}
		steps = append(steps, advisor.ReplayStep{Advised: true})
	}
	return steps
}

func snapshot(s *advisor.Session, d advisor.Decision) reply {
	return reply{
		State: service.SessionState{
			Policy:    s.PolicyName(),
			Now:       s.Now(),
			Remaining: s.Remaining(),
			Failures:  s.Failures(),
			Outage:    s.InOutage(),
			Done:      s.Done(),
		},
		Decision: d,
	}
}

// genSessions generates n sessions with up to batches event batches each
// (fewer when a job completes) by feeding a mirror advisor session
// exactly the events the program will receive. When t is set, the
// mirror's Observe and policy-consulting Advise calls are timed under
// the op id opOf(i, b) of the batch they belong to, one session at a
// time; untimed, sessions are generated on every CPU. Mirror sessions
// share compiled advisors through eng's cache, as the program's engine
// shares planners.
func genSessions(ctx context.Context, eng *engine.Engine, seed uint64, n, batches int, t *tracer, opOf func(i, b int) string) ([]*genSession, error) {
	advs := map[string]*advisor.Advisor{}
	for i := range min(n, 4) {
		ss := sessionSpec(i)
		adv, err := spec.CompileAdvisor(ctx, eng, ss)
		if err != nil {
			return nil, err
		}
		advs[ss.Policy.Kind] = adv
	}
	workers := runtime.GOMAXPROCS(0)
	if t != nil {
		workers = 1
	}
	out := make([]*genSession, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				ss := sessionSpec(i)
				out[i], errs[i] = genOneSession(advs[ss.Policy.Kind], ss, seed, i, batches, t, opOf)
			}
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// genOneSession generates session i.
func genOneSession(adv *advisor.Advisor, ss *spec.SessionSpec, seed uint64, i, batches int, t *tracer, opOf func(i, b int) string) (*genSession, error) {
	sess, err := adv.NewSession()
	if err != nil {
		return nil, err
	}
	g := &genSession{id: ss.Name, spec: ss, job: adv.Job()}
	if g.body, err = json.Marshal(ss); err != nil {
		return nil, err
	}
	d, err := sess.Advise()
	if err != nil {
		return nil, err
	}
	g.created = snapshot(sess, d)
	g.last = g.created
	rng := rand.New(rand.NewPCG(seed, uint64(i)))
	var fails []int
	for b := 0; b < batches && !d.Done; b++ {
		if b%failureBlock == 0 {
			fails = rng.Perm(failureBlock)[:failuresPerBlock]
		}
		bt := genBatch{now: sess.Now(), chunk: d.Chunk}
		if slices.Contains(fails, b%failureBlock) {
			bt.draw = draw{fail: true, frac: 0.1 + 0.8*rng.Float64(), unit: int32(rng.IntN(g.job.Units))}
		}
		var op string
		if t != nil {
			op = opOf(i, b)
		}
		for _, ev := range bt.events(&g.job) {
			start := time.Now()
			err := sess.Observe(ev)
			t.add(spanObserve, op, start, time.Now(), 0)
			if err != nil {
				return nil, fmt.Errorf("session %s batch %d: %w", g.id, b, err)
			}
		}
		if sess.HasDecision() {
			return nil, fmt.Errorf("session %s batch %d: the batch left a decision standing", g.id, b)
		}
		start := time.Now()
		if d, err = sess.Advise(); err != nil {
			return nil, fmt.Errorf("session %s batch %d: %w", g.id, b, err)
		}
		t.add(spanDecide, op, start, time.Now(), 0)
		g.last = snapshot(sess, d)
		bt.want = g.last.digest()
		g.batches = append(g.batches, bt)
	}
	return g, nil
}

// checkReply compares a session reply with the expected one.
func checkReply(g *genSession, gotID, gotName string, got, want reply) error {
	switch {
	case gotID != g.id || gotName != g.spec.Name:
		return fmt.Errorf("reply names session %q (%q), want %q", gotID, gotName, g.id)
	case got != want:
		return fmt.Errorf("session %s: got %+v, want %+v", g.id, got, want)
	}
	return nil
}

// checkDigest compares a batch reply with its expected digest.
func checkDigest(g *genSession, b int, gotID string, got reply) error {
	if gotID != g.id {
		return fmt.Errorf("reply names session %q, want %q", gotID, g.id)
	}
	if got.digest() != g.batches[b].want {
		return fmt.Errorf("session %s batch %d: reply %+v differs from the mirror's", g.id, b, got)
	}
	return nil
}

// sessionReply extracts the checked part of a session reply.
func sessionReply(st service.SessionState, d *advisor.Decision) reply {
	r := reply{State: st}
	if d != nil {
		r.Decision = *d
	}
	return r
}
