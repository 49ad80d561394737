package advisor_test

import (
	"testing"

	"repro/internal/advisor"
	"repro/internal/dist"
	"repro/internal/policy"
)

// fuzzJob is the small job FuzzReplayMarkers drives: three units, so
// failures of different units cascade within one outage.
var fuzzJob = advisor.Job{Work: 100, C: 2, R: 3, D: 1, Units: 3}

// stubKept declares nothing: its chunk cycles with a counter that
// NextChunk advances and nothing resets.
type stubKept struct{ n int }

func (p *stubKept) Name() string             { return "kept" }
func (p *stubKept) Start(*advisor.Job) error { return nil }
func (p *stubKept) NextChunk(*advisor.State) float64 {
	p.n++
	return float64(3 + p.n%4)
}

// stubNone keeps no state: its chunk is a function of the state alone.
type stubNone struct{}

func (stubNone) Name() string                   { return "none" }
func (stubNone) Start(*advisor.Job) error       { return nil }
func (stubNone) ChunkState() advisor.ChunkState { return advisor.ChunkStateNone }
func (stubNone) NextChunk(s *advisor.State) float64 {
	return float64(4 + s.Failures%3)
}

// stubReset advances a counter in NextChunk and resets it in OnFailure.
type stubReset struct{ n int }

func (p *stubReset) Name() string                   { return "reset" }
func (p *stubReset) Start(*advisor.Job) error       { return nil }
func (p *stubReset) ChunkState() advisor.ChunkState { return advisor.ChunkStateUntilFailure }
func (p *stubReset) OnFailure(*advisor.State)       { p.n = 0 }
func (p *stubReset) NextChunk(*advisor.State) float64 {
	p.n++
	return float64(2 + p.n%5)
}

// stubLazy is shaped like Liu: NextChunk advances a cursor, commits
// advance a position, and the first consult after a failure resets both.
type stubLazy struct {
	n, failures int
	pos         float64
}

func (p *stubLazy) Name() string                                 { return "lazy" }
func (p *stubLazy) Start(*advisor.Job) error                     { return nil }
func (p *stubLazy) ChunkState() advisor.ChunkState               { return advisor.ChunkStateUntilFailure }
func (p *stubLazy) OnChunkCommitted(_ *advisor.State, w float64) { p.pos += w }
func (p *stubLazy) NextChunk(s *advisor.State) float64 {
	if s.Failures != p.failures {
		p.failures, p.n, p.pos = s.Failures, 0, 0
	}
	p.n++
	return float64(2+p.n%3) + float64(int(p.pos)%4)
}

// fuzzPolicies are the policy constructors FuzzReplayMarkers picks
// from: a stub of each declaration and a small DPNextFailure.
var fuzzPolicies = []func() (advisor.Policy, error){
	func() (advisor.Policy, error) { return &stubKept{}, nil },
	func() (advisor.Policy, error) { return stubNone{}, nil },
	func() (advisor.Policy, error) { return &stubReset{}, nil },
	func() (advisor.Policy, error) { return &stubLazy{}, nil },
	func() (advisor.Policy, error) {
		law := dist.NewExponentialMean(300)
		return policy.NewDPNextFailure(law, law.Mean(), policy.WithQuanta(8)), nil
	},
}

// Fuzz op codes: each op byte is followed by one argument byte.
const (
	opAdvise = iota
	opCommit
	opProgress
	opFailure
	opRecovered
	fuzzOps
)

// FuzzReplayMarkers records a random history twice: with a marker at
// every fresh consult, and as the service journals it (a marker only
// where Session.ConsultNeedsMarker asks for one). It then restores the
// session by consulting every marker and by ReplaySession from both
// records. The histories hold cascading failures within one outage,
// commits with no consult before them, progress-only tails and, for
// the policy that declares ChunkStateNone, logs without markers. All
// restores must agree on the state and on the next decisions.
//
// A history of that policy ends, like every service request that
// leaves the platform up, with a consult: if the service crashes before
// it, the restore serves the decision for the state right after the
// last commit or recovery, which the session never served.
func FuzzReplayMarkers(f *testing.F) {
	// Seeds: policy byte, then (op, arg) pairs.
	f.Add([]byte{4, opAdvise, 0, opCommit, 200, opAdvise, 0, opFailure, 1, opFailure, 2, opRecovered, 0, opAdvise, 0, opCommit, 0, opAdvise, 0})
	f.Add([]byte{2, opAdvise, 0, opCommit, 40, opCommit, 90, opFailure, 0, opRecovered, 0, opCommit, 30, opAdvise, 0, opProgress, 9, opProgress, 7})
	f.Add([]byte{3, opAdvise, 0, opCommit, 0, opAdvise, 0, opFailure, 2, opFailure, 0, opFailure, 1, opRecovered, 3, opCommit, 70, opAdvise, 0, opCommit, 0})
	f.Add([]byte{1, opAdvise, 0, opCommit, 120, opAdvise, 0, opProgress, 5, opFailure, 0, opRecovered, 0, opProgress, 9, opAdvise, 0, opProgress, 3})
	f.Add([]byte{1, opProgress, 4, opAdvise, 0, opCommit, 255, opAdvise, 0})
	f.Add([]byte{0, opAdvise, 0, opCommit, 0, opAdvise, 0, opCommit, 0, opFailure, 1, opRecovered, 0, opAdvise, 0, opCommit, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		job := fuzzJob
		newPolicy := fuzzPolicies[int(data[0])%len(fuzzPolicies)]
		adv, err := advisor.NewAdvisor(&job, "fuzz", newPolicy)
		if err != nil {
			t.Fatal(err)
		}
		live, err := adv.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		stateless := !live.ConsultNeedsMarker()

		// steps marks every fresh consult; journal marks the ones the
		// service journals.
		var steps, journal []advisor.ReplayStep
		marker := advisor.ReplayStep{Advised: true}
		advise := func() advisor.Decision {
			if !live.HasDecision() {
				steps = append(steps, marker)
				if live.ConsultNeedsMarker() {
					journal = append(journal, marker)
				}
			}
			d, err := live.Advise()
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		attempted := 0.0
		observe := func(ev advisor.Event) {
			if live.Observe(ev) == nil {
				steps = append(steps, advisor.ReplayStep{Event: ev})
				journal = append(journal, advisor.ReplayStep{Event: ev})
			}
		}
		for data = data[1:]; len(data) >= 2; data = data[2:] {
			op, arg := int(data[0])%fuzzOps, float64(data[1])
			now, rem := live.Now(), live.Remaining()
			up := !live.InOutage() && !live.Done()
			switch {
			case op == opAdvise && !live.InOutage():
				advise()
			case op == opCommit && up:
				// Commit the standing decision's chunk (argument 0), all
				// but a residue of the remaining work (255), or a share of
				// it with no consult before it.
				work := rem * arg / 256
				switch arg {
				case 0:
					work = advise().Chunk
				case 255:
					work = rem * (1 - 1e-12)
				}
				observe(advisor.Event{Kind: advisor.EventCheckpointed, Time: now + work + job.C, Work: work})
				attempted = 0
			case op == opProgress && up:
				work := (rem - attempted) * arg / 512
				observe(advisor.Event{Kind: advisor.EventProgress, Time: now + arg/16, Work: work})
				attempted += work
			case op == opFailure && (live.InOutage() || !live.Done()):
				observe(advisor.Event{Kind: advisor.EventFailure, Time: now + arg/32, Unit: int(arg) % job.Units})
				attempted = 0
			case op == opRecovered && live.InOutage():
				observe(advisor.Event{Kind: advisor.EventRecovered, Time: now + job.D + arg/64})
			}
		}
		if stateless && !live.InOutage() {
			advise()
		}

		for _, record := range [][]advisor.ReplayStep{steps, journal} {
			want, err := replayEveryMarker(adv, nil, steps)
			if err != nil {
				t.Fatalf("reference replay of the recorded history: %v", err)
			}
			got, err := adv.ReplaySession(nil, record)
			if err != nil {
				t.Fatalf("ReplaySession (%d of %d steps): %v", len(record), len(steps), err)
			}
			// A restore may advise where the reference has not yet (a
			// commit with no consult after it), so the state is compared
			// in full once both have served the standing decision.
			if want.Now() != got.Now() || want.Failures() != got.Failures() || want.InOutage() != got.InOutage() || want.Done() != got.Done() {
				t.Fatalf("restored %+v, want %+v", snapshotOf(got), snapshotOf(want))
			}
			if !want.InOutage() {
				dw, errW := want.Advise()
				dg, errG := got.Advise()
				if dw != dg || errW != nil || errG != nil {
					t.Fatalf("standing decision %+v (err %v), want %+v (err %v)", dg, errG, dw, errW)
				}
			}
			if w, g := snapshotOf(want), snapshotOf(got); w != g {
				t.Fatalf("restored %+v, want %+v", g, w)
			}
			if d := continuationDiff(want, got, job, 8); d != "" {
				t.Fatal(d)
			}
		}
	})
}
