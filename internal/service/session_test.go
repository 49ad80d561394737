package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/store"
)

// sessionSpecJSON is a cheap oneproc session document (trace fields
// omitted: live sessions default them).
func sessionSpecJSON(policy string) []byte {
	return []byte(fmt.Sprintf(`{
  "name": "test-session",
  "scenario": {
    "platform": {"preset": "oneproc", "mtbf": 86400},
    "p": 1,
    "dist": {"family": "exponential"}
  },
  "policy": %s
}`, policy))
}

func createSession(t *testing.T, url string, body []byte) SessionResponse {
	t.Helper()
	resp, b := postJSON(t, url+"/v1/sessions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d: %s", resp.StatusCode, b)
	}
	var sr SessionResponse
	if err := json.Unmarshal(b, &sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func postEvents(t *testing.T, url, id string, events []advisor.Event) (*http.Response, SessionEventsResponse) {
	t.Helper()
	body, err := json.Marshal(SessionEventsRequest{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	resp, b := postJSON(t, url+"/v1/sessions/"+id+"/events", body)
	var er SessionEventsResponse
	if err := json.Unmarshal(b, &er); err != nil {
		t.Fatalf("events response %s: %v", b, err)
	}
	return resp, er
}

func TestSessionLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	sr := createSession(t, ts.URL, sessionSpecJSON(`{"kind": "young"}`))
	if sr.ID == "" || sr.Decision == nil || sr.Decision.Chunk <= 0 {
		t.Fatalf("create response %+v", sr)
	}
	if sr.State.Policy != "Young" || sr.Decision.Period <= 0 {
		t.Fatalf("rationale missing: %+v", sr)
	}

	// Progress, then a failure and its recovery: a fresh decision follows.
	chunk := sr.Decision.Chunk
	resp, er := postEvents(t, ts.URL, sr.ID, []advisor.Event{
		{Kind: advisor.EventProgress, Time: chunk / 2, Work: chunk / 2},
		{Kind: advisor.EventFailure, Time: chunk, Unit: 0},
		{Kind: advisor.EventRecovered, Time: chunk + 120},
	})
	if resp.StatusCode != http.StatusOK || er.Applied != 3 {
		t.Fatalf("events: status %d, %+v", resp.StatusCode, er)
	}
	if er.Decision == nil || er.Decision.Now != chunk+120 || er.State.Failures != 1 {
		t.Fatalf("post-failure decision %+v", er)
	}

	// A batch ending mid-outage carries no decision.
	resp, er = postEvents(t, ts.URL, sr.ID, []advisor.Event{
		{Kind: advisor.EventFailure, Time: 2 * chunk, Unit: 0},
	})
	if resp.StatusCode != http.StatusOK || er.Decision != nil || !er.State.Outage {
		t.Fatalf("outage batch: status %d, %+v", resp.StatusCode, er)
	}

	// GET reflects the same state.
	getResp, err := http.Get(ts.URL + "/v1/sessions/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	var got SessionResponse
	if err := json.NewDecoder(getResp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK || !got.State.Outage || got.Decision != nil {
		t.Fatalf("get: status %d, %+v", getResp.StatusCode, got)
	}

	// Delete, then every access 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+sr.ID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", delResp.StatusCode)
	}
	resp2, _ := postEvents(t, ts.URL, sr.ID, []advisor.Event{{Kind: advisor.EventRecovered, Time: 3 * chunk}})
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("events after delete: %d", resp2.StatusCode)
	}

	snap := srv.Metrics()
	if snap.SessionsCreated != 1 || snap.SessionsOpen != 0 || snap.SessionDecisions < 2 {
		t.Fatalf("session metrics %+v", snap)
	}
}

// TestSessionChosenIDRecreateSpecGuard: re-creating a session under a
// chosen id is idempotent only for the identical document — a
// different spec under the same id answers 409 instead of silently
// handing back an advisor for the wrong scenario. The guard holds on
// the live-entry path and on the journal-arbitered path a restarted
// replica takes (AppendCreated → ErrSessionExists → adopt by replay).
func TestSessionChosenIDRecreateSpecGuard(t *testing.T) {
	specA := sessionSpecJSON(`{"kind": "young"}`)
	specB := sessionSpecJSON(`{"kind": "dalyhigh"}`)
	dir := t.TempDir()
	fst, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, ts1 := newTestServer(t, Config{Store: fst})
	const url = "/v1/sessions?id=chosen-1"

	resp, _ := postJSON(t, ts1.URL+url, specA)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, want 201", resp.StatusCode)
	}
	// True repeat against the live entry: idempotent 200.
	resp, b := postJSON(t, ts1.URL+url, specA)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("identical re-create status = %d: %s", resp.StatusCode, b)
	}
	// Different spec, same id: conflict, and the session is untouched.
	resp, b = postJSON(t, ts1.URL+url, specB)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched re-create status = %d: %s", resp.StatusCode, b)
	}

	// Restart: the live entry is gone, the journal is the arbiter.
	ts1.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}
	fst2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst2.Close() })
	_, ts2 := newTestServer(t, Config{Store: fst2})
	resp, b = postJSON(t, ts2.URL+url, specA)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-restart identical re-create status = %d: %s", resp.StatusCode, b)
	}
	resp, b = postJSON(t, ts2.URL+url, specB)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("post-restart mismatched re-create status = %d: %s", resp.StatusCode, b)
	}
}

func TestSessionDecisionsAreDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := createSession(t, ts.URL, sessionSpecJSON(`{"kind": "dpnextfailure", "quanta": 30}`))
	b := createSession(t, ts.URL, sessionSpecJSON(`{"kind": "dpnextfailure", "quanta": 30}`))
	if a.Decision == nil || b.Decision == nil || *a.Decision != *b.Decision {
		t.Fatalf("same spec, different decisions: %+v vs %+v", a.Decision, b.Decision)
	}
	if a.ID == b.ID {
		t.Fatal("distinct sessions share an id")
	}
}

// TestSessionCoarseQuantaKnob: the coarse re-planning knob reaches the
// planner through /v1/sessions — decisions stay deterministic, failure
// events keep producing fresh decisions, and an out-of-range value is a
// 400 at create time, not a silent fallback to exact mode.
func TestSessionCoarseQuantaKnob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := sessionSpecJSON(`{"kind": "dpnextfailure", "quanta": 24, "coarseQuanta": 8}`)
	a := createSession(t, ts.URL, spec)
	b := createSession(t, ts.URL, spec)
	if a.Decision == nil || b.Decision == nil || *a.Decision != *b.Decision {
		t.Fatalf("same coarse spec, different decisions: %+v vs %+v", a.Decision, b.Decision)
	}
	chunk := a.Decision.Chunk
	resp, er := postEvents(t, ts.URL, a.ID, []advisor.Event{
		{Kind: advisor.EventFailure, Time: chunk / 2, Unit: 0},
		{Kind: advisor.EventRecovered, Time: chunk/2 + 120},
	})
	if resp.StatusCode != http.StatusOK || er.Decision == nil || !(er.Decision.Chunk > 0) {
		t.Fatalf("post-failure coarse decision: status %d, %+v", resp.StatusCode, er)
	}
	if er.State.Failures != 1 {
		t.Fatalf("failure not recorded: %+v", er.State)
	}

	resp, body := postJSON(t, ts.URL+"/v1/sessions",
		sessionSpecJSON(`{"kind": "dpnextfailure", "quanta": 24, "coarseQuanta": 25}`))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "coarseQuanta") {
		t.Fatalf("out-of-range coarseQuanta: %d %s", resp.StatusCode, body)
	}
}

func TestSessionBadEventsReturn400WithTypedDetail(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr := createSession(t, ts.URL, sessionSpecJSON(`{"kind": "young"}`))

	// Out-of-order clock: second event moves backwards. The first stays
	// applied and the response says so.
	resp, er := postEvents(t, ts.URL, sr.ID, []advisor.Event{
		{Kind: advisor.EventProgress, Time: 100, Work: 1},
		{Kind: advisor.EventProgress, Time: 50, Work: 1},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch status = %d", resp.StatusCode)
	}
	if er.Applied != 1 || !strings.Contains(er.Error, "precedes the session clock") {
		t.Fatalf("bad batch response %+v", er)
	}
	if er.State.Now != 100 {
		t.Fatalf("prefix not applied: %+v", er.State)
	}

	// Unknown kind and malformed JSON are 400s too.
	resp, er = postEvents(t, ts.URL, sr.ID, []advisor.Event{{Kind: "explode", Time: 200}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(er.Error, "malformed event") {
		t.Fatalf("unknown kind: %d %+v", resp.StatusCode, er)
	}
	raw, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.ID+"/events", []byte(`{"events": [], "extra": 1}`))
	if raw.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field accepted: %d", raw.StatusCode)
	}
	empty, _ := postJSON(t, ts.URL+"/v1/sessions/"+sr.ID+"/events", []byte(`{"events": []}`))
	if empty.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch accepted: %d", empty.StatusCode)
	}
}

func TestSessionCreateRejectsBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
	}{
		{"unknown policy kind", string(sessionSpecJSON(`{"kind": "nope"}`))},
		{"unknown field", `{"scenario": {}, "policy": {"kind": "young"}, "bogus": 1}`},
		{"unschedulable policy", string(sessionSpecJSON(`{"kind": "lowerbound"}`))},
		{"bad platform", `{"scenario": {"platform": {"preset": "warehouse"}, "dist": {"family": "exponential"}}, "policy": {"kind": "young"}}`},
		{"not json", `young please`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, b := postJSON(t, ts.URL+"/v1/sessions", []byte(tc.body))
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d: %s", resp.StatusCode, b)
			}
		})
	}
}

func TestSessionStoreOverloadAnswers429(t *testing.T) {
	srv, ts := newTestServer(t, Config{MaxSessions: 2})
	createSession(t, ts.URL, sessionSpecJSON(`{"kind": "young"}`))
	createSession(t, ts.URL, sessionSpecJSON(`{"kind": "dalylow"}`))
	resp, b := postJSON(t, ts.URL+"/v1/sessions", sessionSpecJSON(`{"kind": "dalyhigh"}`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity create: %d %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if snap := srv.Metrics(); snap.SessionsRejected != 1 || snap.SessionsOpen != 2 {
		t.Fatalf("overload metrics %+v", snap)
	}
}

func TestSessionTTLExpiry(t *testing.T) {
	srv, ts := newTestServer(t, Config{SessionTTL: time.Minute})
	clock := time.Unix(1_700_000_000, 0)
	srv.store.now = func() time.Time { return clock }

	sr := createSession(t, ts.URL, sessionSpecJSON(`{"kind": "young"}`))

	// Touching the session inside the TTL slides the window.
	clock = clock.Add(45 * time.Second)
	getResp, err := http.Get(ts.URL + "/v1/sessions/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("within-TTL get: %d", getResp.StatusCode)
	}
	clock = clock.Add(45 * time.Second)
	getResp, err = http.Get(ts.URL + "/v1/sessions/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("slid-window get: %d", getResp.StatusCode)
	}

	// Past the TTL the session is gone and counted as evicted.
	clock = clock.Add(2 * time.Minute)
	getResp, err = http.Get(ts.URL + "/v1/sessions/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired get: %d", getResp.StatusCode)
	}
	snap := srv.Metrics()
	if snap.SessionsEvicted != 1 || snap.SessionsOpen != 0 {
		t.Fatalf("expiry metrics %+v", snap)
	}

	// A full store reclaims expired sessions instead of rejecting.
	srv2, ts2 := newTestServer(t, Config{SessionTTL: time.Minute, MaxSessions: 1})
	clock2 := time.Unix(1_700_000_000, 0)
	srv2.store.now = func() time.Time { return clock2 }
	createSession(t, ts2.URL, sessionSpecJSON(`{"kind": "young"}`))
	clock2 = clock2.Add(2 * time.Minute)
	createSession(t, ts2.URL, sessionSpecJSON(`{"kind": "young"}`))
	if snap := srv2.Metrics(); snap.SessionsEvicted != 1 || snap.SessionsRejected != 0 {
		t.Fatalf("reclaim metrics %+v", snap)
	}
}

func TestSessionMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr := createSession(t, ts.URL, sessionSpecJSON(`{"kind": "young"}`))
	postEvents(t, ts.URL, sr.ID, []advisor.Event{{Kind: advisor.EventProgress, Time: 10, Work: 1}})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	body := buf.String()
	for _, want := range []string{
		"chkpt_sessions_open 1",
		"chkpt_sessions_created_total 1",
		"chkpt_session_decisions_total",
		`chkpt_requests_total{path="/v1/sessions",code="201"} 1`,
		`path="/v1/sessions/{id}/events"`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestHealthzReportsBuildInfo(t *testing.T) {
	_, ts := newTestServer(t, Config{Version: "v1.2.3-test"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h["status"] != "ok" || h["version"] != "v1.2.3-test" || !strings.HasPrefix(h["go"], "go") {
		t.Fatalf("healthz %v", h)
	}
}

// TestSessionConcurrentEvents hammers one session from many goroutines:
// the per-session mutex must serialize application without panics or
// races (run with -race), and the final event count must equal the
// accepted total.
func TestSessionConcurrentEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr := createSession(t, ts.URL, sessionSpecJSON(`{"kind": "young"}`))

	const workers = 8
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func() {
			applied := 0
			for i := 0; i < 10; i++ {
				// Concurrent reads race the store's expiry sliding against
				// the handlers' snapshot reads (regression for a fixed
				// data race on the deadline).
				if resp, err := http.Get(ts.URL + "/v1/sessions/" + sr.ID); err == nil {
					resp.Body.Close()
				}
				// Monotone per-goroutine clocks; cross-goroutine ordering is
				// arbitrary, so rejected (backwards) events are expected —
				// they must simply be clean 400s, never 500s.
				resp, er := postEvents(t, ts.URL, sr.ID, []advisor.Event{
					{Kind: advisor.EventProgress, Time: float64(i + 1), Work: 0},
				})
				switch resp.StatusCode {
				case http.StatusOK:
					applied += er.Applied
				case http.StatusBadRequest:
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}
			done <- applied
		}()
	}
	total := 0
	for w := 0; w < workers; w++ {
		total += <-done
	}
	if total == 0 {
		t.Fatal("no events applied")
	}
}

// blockingTombstoneLog is a MemStore whose Tombstone of one id waits
// until released. A Replay of that id that reads the log while the
// tombstone waits returns only once the tombstone has returned, as a
// replay that took the log's lock just ahead of the tombstone does.
type blockingTombstoneLog struct {
	*store.MemStore
	id      string
	entered chan struct{} // closed when Tombstone(id) starts waiting
	release chan struct{} // closed to let it proceed
	done    chan struct{} // closed when it has returned

	enter, finish sync.Once
}

func (l *blockingTombstoneLog) Tombstone(ctx context.Context, id string) error {
	if id != l.id {
		return l.MemStore.Tombstone(ctx, id)
	}
	l.enter.Do(func() { close(l.entered) })
	<-l.release
	err := l.MemStore.Tombstone(ctx, id)
	l.finish.Do(func() { close(l.done) })
	return err
}

func (l *blockingTombstoneLog) Replay(ctx context.Context, id string) (*store.SessionReplay, error) {
	rep, err := l.MemStore.Replay(ctx, id)
	if id == l.id {
		select {
		case <-l.entered:
			<-l.done
		default:
		}
	}
	return rep, err
}

// TestSessionReapTombstonesOutsideTheMapLock: a reap writes its
// tombstone after the session-map lock is released. While an expired
// session's tombstone hangs, a GET of another live session answers,
// and the reaped id is neither rehydrated, deleted again nor created
// again: GET and DELETE answer 404 without touching its log.
func TestSessionReapTombstonesOutsideTheMapLock(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(1_700_000_000, 0), time.Millisecond)
	log := &blockingTombstoneLog{MemStore: store.NewMem(), id: "reaped",
		entered: make(chan struct{}), release: make(chan struct{}), done: make(chan struct{})}
	srv, ts := newTestServer(t, Config{Store: log, Clock: clock, SessionTTL: time.Minute})
	var once sync.Once
	release := func() { once.Do(func() { close(log.release) }) }
	t.Cleanup(release) // before the server's Close, which waits for the stuck request
	body := sessionSpecJSON(`{"kind": "young"}`)
	if resp, b := postJSON(t, ts.URL+"/v1/sessions?id=reaped", body); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, b)
	}
	clock.Advance(40 * time.Second)
	live := createSession(t, ts.URL, body)
	clock.Advance(30 * time.Second) // "reaped" is past its TTL, live is not

	do := func(method, id string) <-chan int {
		code := make(chan int, 1)
		go func() {
			req, err := http.NewRequest(method, ts.URL+"/v1/sessions/"+id, nil)
			if err != nil {
				t.Error(err)
				code <- 0
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				code <- 0
				return
			}
			resp.Body.Close()
			code <- resp.StatusCode
		}()
		return code
	}
	// promptly waits for a request that must answer while the tombstone
	// hangs; one that waits for it fails the test.
	promptly := func(code <-chan int, what string) int {
		t.Helper()
		select {
		case c := <-code:
			return c
		case <-time.After(10 * time.Second):
			release()
			t.Fatalf("%s waited for the reaped session's tombstone, then answered %d", what, <-code)
			return 0
		}
	}
	reaped := do(http.MethodGet, "reaped")
	select {
	case <-log.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the expired session was never tombstoned")
	}
	if code := promptly(do(http.MethodGet, live.ID), "a GET of a live session"); code != http.StatusOK {
		t.Fatalf("GET of the live session: %d", code)
	}
	// The log is not yet tombstoned, but the id must not come back.
	if code := promptly(do(http.MethodGet, "reaped"), "a GET of the reaped id"); code != http.StatusNotFound {
		t.Fatalf("GET of the reaped id while its tombstone is pending: %d", code)
	}
	if code := promptly(do(http.MethodDelete, "reaped"), "a DELETE of the reaped id"); code != http.StatusNotFound {
		t.Fatalf("DELETE of the reaped id while its tombstone is pending: %d", code)
	}
	if resp, b := postJSON(t, ts.URL+"/v1/sessions?id=reaped", body); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("re-create of the reaped id while its tombstone is pending: %d %s", resp.StatusCode, b)
	}

	release()
	if code := <-reaped; code != http.StatusNotFound {
		t.Fatalf("GET that reaped the session: %d", code)
	}
	if code, _ := getSessionResponse(t, ts.URL, "reaped"); code != http.StatusNotFound {
		t.Fatalf("GET of the reaped id after its tombstone: %d", code)
	}
	if snap := srv.Metrics(); snap.SessionsEvicted != 1 || snap.SessionsRecovered != 0 || snap.SessionsOpen != 1 {
		t.Fatalf("metrics %+v", snap)
	}
}

// gatedReplayLog is a MemStore whose first Replay reads the log and
// then waits until released before it returns.
type gatedReplayLog struct {
	*store.MemStore
	calls   atomic.Int32
	read    chan struct{} // closed once the first Replay has read the log
	release chan struct{}
}

func (l *gatedReplayLog) Replay(ctx context.Context, id string) (*store.SessionReplay, error) {
	rep, err := l.MemStore.Replay(ctx, id)
	if l.calls.Add(1) == 1 {
		close(l.read)
		<-l.release
	}
	return rep, err
}

// TestSessionReplayOverlappingADeleteIsNotAdopted: a rehydration that
// read the log before a DELETE tombstoned the session does not install
// what it read, whether another request had rehydrated the session
// before the DELETE or the DELETE tombstoned a log this replica never
// replayed.
func TestSessionReplayOverlappingADeleteIsNotAdopted(t *testing.T) {
	for _, rehydrated := range []bool{true, false} {
		t.Run(fmt.Sprintf("rehydrated=%v", rehydrated), func(t *testing.T) {
			mem := store.NewMem()
			_, first := newTestServer(t, Config{Store: mem})
			if resp, b := postJSON(t, first.URL+"/v1/sessions?id=s", sessionSpecJSON(`{"kind": "young"}`)); resp.StatusCode != http.StatusCreated {
				t.Fatalf("create: %d %s", resp.StatusCode, b)
			}
			// A second replica over the same log, which has never seen "s"
			// live.
			log := &gatedReplayLog{MemStore: mem, read: make(chan struct{}), release: make(chan struct{})}
			srv, ts := newTestServer(t, Config{Store: log})
			var once sync.Once
			release := func() { once.Do(func() { close(log.release) }) }
			t.Cleanup(release)

			slow := make(chan int, 1)
			go func() {
				resp, err := http.Get(ts.URL + "/v1/sessions/s")
				if err != nil {
					t.Error(err)
					slow <- 0
					return
				}
				resp.Body.Close()
				slow <- resp.StatusCode
			}()
			<-log.read
			recovered := uint64(0)
			if rehydrated {
				if code, _ := getSessionResponse(t, ts.URL, "s"); code != http.StatusOK {
					t.Fatalf("rehydrating GET: %d", code)
				}
				recovered = 1
			}
			if code := deleteSession(t, ts.URL, "s"); code != http.StatusNoContent {
				t.Fatalf("DELETE: %d", code)
			}
			release()
			if code := <-slow; code != http.StatusNotFound {
				t.Fatalf("GET whose replay read the log before the DELETE: %d", code)
			}
			if code, _ := getSessionResponse(t, ts.URL, "s"); code != http.StatusNotFound {
				t.Fatalf("GET after the DELETE: %d", code)
			}
			if snap := srv.Metrics(); snap.SessionsRecovered != recovered || snap.SessionsOpen != 0 {
				t.Fatalf("metrics %+v", snap)
			}
		})
	}
}
