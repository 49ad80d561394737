package advisor

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
)

// stubPolicy is a minimal fixed-chunk policy with observer counters.
type stubPolicy struct {
	chunk      float64
	startErr   error
	starts     int
	onFailures int
	onCommits  int
	lastState  State
}

func (p *stubPolicy) Name() string { return "stub" }

func (p *stubPolicy) Start(job *Job) error {
	p.starts++
	return p.startErr
}

func (p *stubPolicy) NextChunk(s *State) float64 {
	p.lastState = *s
	return p.chunk
}

func (p *stubPolicy) OnFailure(s *State) { p.onFailures++ }

func (p *stubPolicy) OnChunkCommitted(s *State, chunk float64) { p.onCommits++ }

func newTestSession(t *testing.T, chunk float64) (*Session, *stubPolicy) {
	t.Helper()
	pol := &stubPolicy{chunk: chunk}
	sess, err := NewSession(Config{
		Job:    &Job{Work: 100, C: 10, R: 7, D: 5, Units: 4},
		Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sess, pol
}

func TestSessionHappyPath(t *testing.T) {
	sess, pol := newTestSession(t, 40)
	if pol.starts != 1 {
		t.Fatalf("policy started %d times", pol.starts)
	}
	d, err := sess.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if d.Done || d.Chunk != 40 || d.Policy != "stub" || d.CheckpointCost != 10 || d.Remaining != 100 {
		t.Fatalf("first decision: %+v", d)
	}
	// A decision stands until a commit: repeated Advise must not consult
	// the policy again.
	pol.lastState = State{}
	d2, err := sess.Advise()
	if err != nil || d2 != d {
		t.Fatalf("cached decision changed: %+v err=%v", d2, err)
	}
	if pol.lastState.Job != nil {
		t.Fatal("cached Advise consulted the policy")
	}
	if err := sess.Observe(Event{Kind: EventCheckpointed, Time: 50, Work: 40}); err != nil {
		t.Fatal(err)
	}
	if pol.onCommits != 1 {
		t.Fatalf("commits observed: %d", pol.onCommits)
	}
	if sess.Remaining() != 60 || sess.Now() != 50 {
		t.Fatalf("state after commit: remaining=%v now=%v", sess.Remaining(), sess.Now())
	}

	// Failure → outage: no advice until recovered.
	if err := sess.Observe(Event{Kind: EventFailure, Time: 70, Unit: 2}); err != nil {
		t.Fatal(err)
	}
	if !sess.InOutage() {
		t.Fatal("failure did not open an outage")
	}
	if _, err := sess.Advise(); !errors.Is(err, ErrOutage) {
		t.Fatalf("Advise during outage: %v", err)
	}
	// A second failure during the outage is legal.
	if err := sess.Observe(Event{Kind: EventFailure, Time: 72, Unit: 0}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Observe(Event{Kind: EventRecovered, Time: 90}); err != nil {
		t.Fatal(err)
	}
	if pol.onFailures != 1 {
		t.Fatalf("OnFailure fired %d times, want once per resolved outage", pol.onFailures)
	}
	if sess.Failures() != 2 {
		t.Fatalf("failures = %d", sess.Failures())
	}
	// Renewal bookkeeping matches the §2.1 convention: failure time + D.
	d3, err := sess.Advise()
	if err != nil {
		t.Fatal(err)
	}
	if st := pol.lastState; d3.Failures != 2 || !slices.Equal(st.FailedUnits, []int32{2, 0}) || !slices.Equal(st.Renewals, []float64{75, 77}) {
		t.Fatalf("post-recovery state: %+v failed units %v renewals %v", d3, st.FailedUnits, st.Renewals)
	}

	// Drive to completion.
	if err := sess.Observe(Event{Kind: EventCheckpointed, Time: 140, Work: 40}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Observe(Event{Kind: EventCheckpointed, Time: 170, Work: 20}); err != nil {
		t.Fatal(err)
	}
	dd, err := sess.Advise()
	if err != nil || !dd.Done {
		t.Fatalf("final decision %+v err=%v", dd, err)
	}
	if !sess.Done() {
		t.Fatal("session not done")
	}
	if err := sess.Observe(Event{Kind: EventProgress, Time: 200}); !errors.Is(err, ErrDone) {
		t.Fatalf("event after done: %v", err)
	}
}

func TestSessionValidation(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
		want error
	}{
		{"backwards clock", Event{Kind: EventProgress, Time: -1}, ErrClock},
		{"unknown kind", Event{Kind: "explode", Time: 1}, ErrBadEvent},
		{"NaN time", Event{Kind: EventProgress, Time: math.NaN()}, ErrBadEvent},
		{"inf time", Event{Kind: EventCheckpointed, Time: math.Inf(1), Work: 1}, ErrBadEvent},
		{"negative progress", Event{Kind: EventProgress, Time: 1, Work: -2}, ErrBadEvent},
		{"NaN work", Event{Kind: EventCheckpointed, Time: 1, Work: math.NaN()}, ErrBadEvent},
		{"zero commit", Event{Kind: EventCheckpointed, Time: 1}, ErrBadEvent},
		{"commit past remaining", Event{Kind: EventCheckpointed, Time: 1, Work: 101}, ErrPastRemaining},
		{"progress past remaining", Event{Kind: EventProgress, Time: 1, Work: 100.5}, ErrPastRemaining},
		{"unit out of range", Event{Kind: EventFailure, Time: 1, Unit: 4}, ErrBadEvent},
		{"negative unit", Event{Kind: EventFailure, Time: 1, Unit: -1}, ErrBadEvent},
		{"recovered without failure", Event{Kind: EventRecovered, Time: 1}, ErrNotInOutage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, _ := newTestSession(t, 40)
			err := sess.Observe(tc.ev)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Observe(%+v) = %v, want %v", tc.ev, err, tc.want)
			}
			var ee *EventError
			if !errors.As(err, &ee) {
				t.Fatalf("error %v is not an *EventError", err)
			}
			// A rejected event leaves the session untouched.
			if sess.Now() != 0 || sess.Remaining() != 100 || sess.InOutage() {
				t.Fatalf("rejected event mutated the session: now=%v rem=%v", sess.Now(), sess.Remaining())
			}
		})
	}
}

func TestSessionCumulativeProgressValidation(t *testing.T) {
	sess, _ := newTestSession(t, 40)
	for i, w := range []float64{30, 30, 30} {
		if err := sess.Observe(Event{Kind: EventProgress, Time: float64(i + 1), Work: w}); err != nil {
			t.Fatal(err)
		}
	}
	// 90 attempted out of 100 remaining: 20 more must be refused...
	if err := sess.Observe(Event{Kind: EventProgress, Time: 4, Work: 20}); !errors.Is(err, ErrPastRemaining) {
		t.Fatalf("cumulative overshoot accepted: %v", err)
	}
	// ...but a failure resets the attempted tally (the work was lost).
	if err := sess.Observe(Event{Kind: EventFailure, Time: 5, Unit: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Observe(Event{Kind: EventRecovered, Time: 6}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Observe(Event{Kind: EventProgress, Time: 7, Work: 90}); err != nil {
		t.Fatalf("progress after failure reset: %v", err)
	}
}

func TestSessionProgressDuringOutage(t *testing.T) {
	sess, _ := newTestSession(t, 40)
	if err := sess.Observe(Event{Kind: EventFailure, Time: 1, Unit: 0}); err != nil {
		t.Fatal(err)
	}
	if err := sess.Observe(Event{Kind: EventProgress, Time: 2, Work: 1}); !errors.Is(err, ErrOutage) {
		t.Fatalf("progress during outage: %v", err)
	}
	if err := sess.Observe(Event{Kind: EventCheckpointed, Time: 2, Work: 1}); !errors.Is(err, ErrOutage) {
		t.Fatalf("commit during outage: %v", err)
	}
}

func TestSessionHistory(t *testing.T) {
	pol := &stubPolicy{chunk: 10}
	job := &Job{Work: 100, C: 10, R: 7, D: 5, Units: 4, Start: 20}
	sess, err := NewSession(Config{
		Job:     job,
		Policy:  pol,
		History: []PastFailure{{Unit: 1, Time: 3}, {Unit: 3, Time: 18}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Unit 3's downtime (18+5) outlasts the release: the clock waits.
	if sess.Now() != 23 {
		t.Fatalf("start clock %v, want 23", sess.Now())
	}
	if sess.Failures() != 0 {
		t.Fatalf("history counted as failures: %d", sess.Failures())
	}
	if _, err := sess.Advise(); err != nil {
		t.Fatal(err)
	}
	if st := pol.lastState; !slices.Equal(st.FailedUnits, []int32{1, 3}) || !slices.Equal(st.Renewals, []float64{8, 23}) {
		t.Fatalf("history failed units %v renewals %v", st.FailedUnits, st.Renewals)
	}

	bad := []PastFailure{{Unit: 9, Time: 1}}
	if _, err := NewSession(Config{Job: job, Policy: &stubPolicy{chunk: 1}, History: bad}); err == nil {
		t.Fatal("out-of-range history unit accepted")
	}
	late := []PastFailure{{Unit: 0, Time: 25}}
	if _, err := NewSession(Config{Job: job, Policy: &stubPolicy{chunk: 1}, History: late}); err == nil {
		t.Fatal("post-start history accepted")
	}
	unsorted := []PastFailure{{Unit: 0, Time: 10}, {Unit: 1, Time: 2}}
	if _, err := NewSession(Config{Job: job, Policy: &stubPolicy{chunk: 1}, History: unsorted}); err == nil {
		t.Fatal("unsorted history accepted")
	}
}

func TestSessionRepeatFailureAtZeroRenewalNotDuplicated(t *testing.T) {
	// With D=0 a failure at time 0 renews at exactly 0 — the trace
	// replay's historical never-failed sentinel. The session must still
	// record the unit in FailedUnits exactly once across repeat failures.
	pol := &stubPolicy{chunk: 10}
	sess, err := NewSession(Config{
		Job:    &Job{Work: 100, C: 1, R: 1, D: 0, Units: 2},
		Policy: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tm := range []float64{0, 0, 1} {
		if err := sess.Observe(Event{Kind: EventFailure, Time: tm, Unit: 0}); err != nil {
			t.Fatal(err)
		}
		if err := sess.Observe(Event{Kind: EventRecovered, Time: tm}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Advise(); err != nil {
		t.Fatal(err)
	}
	if len(pol.lastState.FailedUnits) != 1 || pol.lastState.FailedUnits[0] != 0 {
		t.Fatalf("FailedUnits = %v, want exactly [0]", pol.lastState.FailedUnits)
	}
	if sess.Failures() != 3 {
		t.Fatalf("failures = %d, want 3", sess.Failures())
	}
}

// TestSessionMemoryIndependentOfUnits pins what a session holds to the
// failures it has seen: creating one and feeding it three failures, or
// restoring it from that history, allocates about the same bytes on 2^10
// units as on 2^20.
func TestSessionMemoryIndependentOfUnits(t *testing.T) {
	var steps []ReplayStep
	for i, u := range []int{3, 700, 3} {
		at := float64(100 * (i + 1))
		steps = append(steps,
			ReplayStep{Advised: true},
			ReplayStep{Event: Event{Kind: EventFailure, Time: at, Unit: u}},
			ReplayStep{Event: Event{Kind: EventRecovered, Time: at + 20}})
	}
	measure := func(units int) (live, replayed uint64) {
		job := &Job{Work: 1e6, C: 10, R: 7, D: 5, Units: units}
		newPolicy := func() (Policy, error) { return &stubPolicy{chunk: 50}, nil }
		adv, err := NewAdvisor(job, "stub", newPolicy)
		if err != nil {
			t.Fatal(err)
		}
		live = allocatedBytes(func() {
			pol, _ := newPolicy()
			s, err := NewSession(Config{Job: job, Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.replay(steps, 0, true); err != nil {
				t.Fatal(err)
			}
		})
		replayed = allocatedBytes(func() {
			if _, err := adv.ReplaySession(nil, steps); err != nil {
				t.Fatal(err)
			}
		})
		return live, replayed
	}
	const bound = 64 << 10
	liveS, replayS := measure(1 << 10)
	liveL, replayL := measure(1 << 20)
	if d := max(liveS, liveL) - min(liveS, liveL); d >= bound {
		t.Errorf("a live session allocates %d bytes on 2^10 units and %d on 2^20", liveS, liveL)
	}
	if d := max(replayS, replayL) - min(replayS, replayL); d >= bound {
		t.Errorf("a restore allocates %d bytes on 2^10 units and %d on 2^20", replayS, replayL)
	}
}

// allocatedBytes returns the fewest bytes the heap grew by over three
// calls of f.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	least := uint64(math.MaxUint64)
	for range 3 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

func TestSessionStartError(t *testing.T) {
	boom := errors.New("no schedule")
	_, err := NewSession(Config{
		Job:    &Job{Work: 1, C: 1, R: 1, D: 1, Units: 1},
		Policy: &stubPolicy{startErr: boom},
	})
	var se *StartError
	if !errors.As(err, &se) || !errors.Is(err, boom) || se.Policy != "stub" {
		t.Fatalf("start error %v", err)
	}
}

func TestSessionConfigValidation(t *testing.T) {
	if _, err := NewSession(Config{Policy: &stubPolicy{}}); err == nil {
		t.Fatal("nil job accepted")
	}
	if _, err := NewSession(Config{Job: &Job{Work: 1, C: 0, R: 0, D: 0, Units: 1}}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := NewSession(Config{Job: &Job{Work: -1, Units: 1}, Policy: &stubPolicy{}}); err == nil {
		t.Fatal("invalid job accepted")
	}
}

func TestSessionClampsChunk(t *testing.T) {
	sess, _ := newTestSession(t, 1e9) // far past the remaining work
	d, err := sess.Advise()
	if err != nil || d.Chunk != 100 {
		t.Fatalf("oversized chunk not clamped: %+v err=%v", d, err)
	}
	sess2, _ := newTestSession(t, -5) // nonsense small
	d2, err := sess2.Advise()
	work := 100.0
	if minChunk := 1e-9 * work; err != nil || d2.Chunk != minChunk {
		t.Fatalf("undersized chunk not clamped: %+v err=%v", d2, err)
	}
}

func TestAdvisorFactory(t *testing.T) {
	job := &Job{Work: 50, C: 5, R: 5, D: 1, Units: 2}
	adv, err := NewAdvisor(job, "stub", func() (Policy, error) { return &stubPolicy{chunk: 10}, nil })
	if err != nil {
		t.Fatal(err)
	}
	a, err := adv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	b, err := adv.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	// Sessions are independent.
	if err := a.Observe(Event{Kind: EventCheckpointed, Time: 15, Work: 10}); err != nil {
		t.Fatal(err)
	}
	if b.Remaining() != 50 || a.Remaining() != 40 {
		t.Fatalf("sessions share state: a=%v b=%v", a.Remaining(), b.Remaining())
	}
	if adv.PolicyName() != "stub" || adv.Job().Work != 50 {
		t.Fatalf("advisor metadata: %q %+v", adv.PolicyName(), adv.Job())
	}
}
