package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

// openRecoveryStore opens a FileStore over dir, without a cleanup: the
// crash tests close (and reopen over) the directory themselves.
func openRecoveryStore(t *testing.T, dir string) *store.FileStore {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// deleteSession issues DELETE /v1/sessions/{id} and returns the status.
func deleteSession(t *testing.T, url, id string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url+"/v1/sessions/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// getSessionResponse issues GET /v1/sessions/{id}.
func getSessionResponse(t *testing.T, url, id string) (int, SessionResponse) {
	t.Helper()
	resp, err := http.Get(url + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var sr SessionResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &sr); err != nil {
			t.Fatalf("session response %s: %v", b, err)
		}
	}
	return resp.StatusCode, sr
}

// TestSessionCrashRecovery: a session journaled in a FileStore is
// rehydrated by a fresh server after a crash, lands on the identical
// pending decision, and keeps advising exactly like an uninterrupted
// session. DPNextFailure is the policy with internal plan state, so it is
// the one that would expose a replay drifting from the live session.
func TestSessionCrashRecovery(t *testing.T) {
	specJSON := sessionSpecJSON(`{"kind": "dpnextfailure", "quanta": 30}`)
	dir := t.TempDir()
	fst := openRecoveryStore(t, dir)
	_, ts1 := newTestServer(t, Config{Store: fst})

	sr := createSession(t, ts1.URL, specJSON)
	if sr.Decision == nil {
		t.Fatal("create carried no decision")
	}
	d0 := *sr.Decision
	batch1 := []advisor.Event{
		{Kind: advisor.EventProgress, Time: d0.Chunk / 2, Work: d0.Chunk / 2},
		{Kind: advisor.EventFailure, Time: d0.Chunk, Unit: 0},
		{Kind: advisor.EventRecovered, Time: d0.Chunk + 120},
	}
	resp, er := postEvents(t, ts1.URL, sr.ID, batch1)
	if resp.StatusCode != http.StatusOK || er.Decision == nil {
		t.Fatalf("batch1: status %d, %+v", resp.StatusCode, er)
	}
	d1 := *er.Decision
	batch2 := []advisor.Event{
		{Kind: advisor.EventCheckpointed, Time: d1.Now + d1.Chunk, Work: d1.Chunk},
	}
	resp, er = postEvents(t, ts1.URL, sr.ID, batch2)
	if resp.StatusCode != http.StatusOK || er.Decision == nil {
		t.Fatalf("batch2: status %d, %+v", resp.StatusCode, er)
	}
	want := *er.Decision

	// Crash: the server dies without any shutdown courtesy; only what the
	// store acknowledged survives.
	ts1.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	// An uninterrupted control session fed the identical batches — the
	// recovered session must stay indistinguishable from it.
	_, tsc := newTestServer(t, Config{})
	src := createSession(t, tsc.URL, specJSON)
	if src.Decision == nil || *src.Decision != d0 {
		t.Fatalf("control create decision %+v, want %+v", src.Decision, d0)
	}
	for _, batch := range [][]advisor.Event{batch1, batch2} {
		if resp, _ := postEvents(t, tsc.URL, src.ID, batch); resp.StatusCode != http.StatusOK {
			t.Fatalf("control batch: status %d", resp.StatusCode)
		}
	}

	fst2 := openRecoveryStore(t, dir)
	t.Cleanup(func() { fst2.Close() })
	srv2, ts2 := newTestServer(t, Config{Store: fst2})
	code, got := getSessionResponse(t, ts2.URL, sr.ID)
	if code != http.StatusOK {
		t.Fatalf("recovered get: status %d", code)
	}
	if got.Decision == nil || *got.Decision != want {
		t.Fatalf("recovered decision %+v, want %+v", got.Decision, want)
	}
	if got.State.Failures != 1 || got.State.Outage {
		t.Fatalf("recovered state %+v", got.State)
	}
	if m := srv2.Metrics(); m.SessionsRecovered != 1 || m.Store.Replays == 0 {
		t.Fatalf("recovery metrics: recovered %d, replays %d", m.SessionsRecovered, m.Store.Replays)
	}

	// Future decisions agree too: the replay restored the policy's plan
	// cursor, not just the cached decision.
	batch3 := []advisor.Event{
		{Kind: advisor.EventFailure, Time: want.Now + want.Chunk, Unit: 0},
		{Kind: advisor.EventRecovered, Time: want.Now + want.Chunk + 120},
	}
	_, erRecovered := postEvents(t, ts2.URL, sr.ID, batch3)
	_, erControl := postEvents(t, tsc.URL, src.ID, batch3)
	if erRecovered.Decision == nil || erControl.Decision == nil ||
		*erRecovered.Decision != *erControl.Decision {
		t.Fatalf("post-recovery decision %+v != control %+v",
			erRecovered.Decision, erControl.Decision)
	}
}

// TestStatelessSessionCrashRecovery: a Young session journals an
// "advised" record only for a consult that follows progress after the
// last commit, and a restarted server still answers its GET exactly as
// before the crash (bar the expiry), whether progress heartbeats came
// after the standing decision (no record at all) or before it (one).
func TestStatelessSessionCrashRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	fst := openRecoveryStore(t, dir)
	_, ts := newTestServer(t, Config{Store: fst})
	sr := createSession(t, ts.URL, sessionSpecJSON(`{"kind": "young"}`))
	d0 := *sr.Decision
	commit := d0.Now + d0.Chunk + d0.CheckpointCost
	batches := [][]advisor.Event{
		{
			{Kind: advisor.EventProgress, Time: d0.Now + d0.Chunk/2, Work: d0.Chunk / 2},
			{Kind: advisor.EventCheckpointed, Time: commit, Work: d0.Chunk},
		},
		// Heartbeats after the decision: it stands, with its Now.
		{
			{Kind: advisor.EventProgress, Time: commit + 10, Work: 5},
			{Kind: advisor.EventProgress, Time: commit + 20, Work: 5},
		},
		// Progress before the consult: the consult gets a record.
		{
			{Kind: advisor.EventCheckpointed, Time: commit + d0.Chunk + d0.CheckpointCost, Work: d0.Chunk},
			{Kind: advisor.EventProgress, Time: commit + d0.Chunk + d0.CheckpointCost + 30, Work: 7},
		},
	}
	for i, batch := range batches {
		if resp, er := postEvents(t, ts.URL, sr.ID, batch); resp.StatusCode != http.StatusOK || er.Decision == nil {
			t.Fatalf("batch %d: status %d, %+v", i, resp.StatusCode, er)
		}
		if i == 0 {
			continue
		}
		_, want := getSessionResponse(t, ts.URL, sr.ID)
		// Crash and restart over the same directory.
		ts.Close()
		if err := fst.Close(); err != nil {
			t.Fatal(err)
		}
		fst = openRecoveryStore(t, dir)
		rep, err := fst.Replay(ctx, sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		markers := 0
		for _, st := range rep.Steps {
			if st.Advised {
				markers++
			}
		}
		if wantMarkers := i - 1; markers != wantMarkers {
			t.Fatalf("after batch %d the journal holds %d advised records, want %d", i, markers, wantMarkers)
		}
		_, ts = newTestServer(t, Config{Store: fst})
		code, got := getSessionResponse(t, ts.URL, sr.ID)
		if code != http.StatusOK || got.Decision == nil {
			t.Fatalf("recovered get after batch %d: status %d, %+v", i, code, got)
		}
		want.ExpiresAt, got.ExpiresAt = time.Time{}, time.Time{}
		if got.State != want.State || *got.Decision != *want.Decision {
			t.Fatalf("recovered after batch %d: %+v %+v, want %+v %+v", i, got.State, *got.Decision, want.State, *want.Decision)
		}
	}
	t.Cleanup(func() { fst.Close() })
}

// TestSessionDeleteTombstoneSurvivesRestart: an explicit DELETE is
// forever — a restarted server must not resurrect the session from its
// journal.
func TestSessionDeleteTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fst := openRecoveryStore(t, dir)
	_, ts1 := newTestServer(t, Config{Store: fst})
	sr := createSession(t, ts1.URL, sessionSpecJSON(`{"kind": "young"}`))
	if code := deleteSession(t, ts1.URL, sr.ID); code != http.StatusNoContent {
		t.Fatalf("delete: status %d", code)
	}
	ts1.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openRecoveryStore(t, dir)
	t.Cleanup(func() { fst2.Close() })
	srv2, ts2 := newTestServer(t, Config{Store: fst2})
	if code, _ := getSessionResponse(t, ts2.URL, sr.ID); code != http.StatusNotFound {
		t.Fatalf("get after restart: status %d, want 404", code)
	}
	if code := deleteSession(t, ts2.URL, sr.ID); code != http.StatusNotFound {
		t.Fatalf("re-delete after restart: status %d, want 404", code)
	}
	if m := srv2.Metrics(); m.SessionsRecovered != 0 {
		t.Fatalf("tombstoned session counted as recovered: %d", m.SessionsRecovered)
	}
}

// TestSessionExpiryTombstoneSurvivesRestart: a TTL eviction writes the
// same tombstone a DELETE does, so an expired session stays gone across
// a restart instead of silently rehydrating with a fresh TTL.
func TestSessionExpiryTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	fst := openRecoveryStore(t, dir)
	srv, ts1 := newTestServer(t, Config{Store: fst, SessionTTL: time.Minute})
	clock := time.Unix(1_700_000_000, 0)
	srv.store.now = func() time.Time { return clock }

	sr := createSession(t, ts1.URL, sessionSpecJSON(`{"kind": "young"}`))
	clock = clock.Add(2 * time.Minute)
	if code, _ := getSessionResponse(t, ts1.URL, sr.ID); code != http.StatusNotFound {
		t.Fatalf("expired get: status %d, want 404", code)
	}
	ts1.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openRecoveryStore(t, dir)
	t.Cleanup(func() { fst2.Close() })
	_, ts2 := newTestServer(t, Config{Store: fst2})
	if code, _ := getSessionResponse(t, ts2.URL, sr.ID); code != http.StatusNotFound {
		t.Fatalf("expired session resurrected after restart: status %d", code)
	}
}

// sweepJobSpec is a three-cell grid over MTBF, cheap enough to finish in
// milliseconds.
func sweepJobSpec() *spec.ExperimentSpec {
	es := smallSpec(7)
	es.Grid = &spec.GridSpec{MTBF: []float64{43200, 86400, 172800}}
	return es
}

// postSweepJob POSTs /v1/sweeps and decodes the job response.
func postSweepJob(t *testing.T, url string, body []byte) (int, SweepJobResponse) {
	t.Helper()
	resp, b := postJSON(t, url+"/v1/sweeps", body)
	var jr SweepJobResponse
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &jr); err != nil {
			t.Fatalf("sweep job response %s: %v", b, err)
		}
	}
	return resp.StatusCode, jr
}

// jobLines streams GET /v1/sweeps/{id} to its end and returns the raw
// NDJSON lines. Reading to EOF doubles as waiting for the job.
func jobLines(t *testing.T, url string) []string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("job stream status = %d, body %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if s := strings.TrimSpace(sc.Text()); s != "" {
			lines = append(lines, s)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestSweepJobLifecycle: POST creates and runs a durable job whose
// stream is byte-identical to the one-shot /v1/sweep; an identical
// re-submit resumes (200) with zero cells re-run, and ?from offsets the
// stream.
func TestSweepJobLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	body := marshalSpec(t, sweepJobSpec())

	code, jr := postSweepJob(t, ts.URL, body)
	if code != http.StatusCreated || jr.Resumed {
		t.Fatalf("create: status %d, %+v", code, jr)
	}
	if len(jr.ID) != 64 || jr.Cells != 3 {
		t.Fatalf("job %+v, want 3 cells under a sha256 id", jr)
	}

	lines := jobLines(t, ts.URL+"/v1/sweeps/"+jr.ID)
	if len(lines) != 4 {
		t.Fatalf("stream: %d lines, want 3 cells + trailer: %v", len(lines), lines)
	}
	var tr SweepTrailer
	if err := json.Unmarshal([]byte(lines[3]), &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Cells != 3 {
		t.Fatalf("trailer %+v", tr)
	}

	// Byte-identity with the streamed one-shot sweep, trailer included.
	oneShot := sweepLines(t, ts.URL, body)
	for i := range lines {
		if lines[i] != oneShot[i] {
			t.Fatalf("line %d differs from /v1/sweep:\n job  %s\n sweep %s", i, lines[i], oneShot[i])
		}
	}

	code, jr2 := postSweepJob(t, ts.URL, body)
	if code != http.StatusOK || !jr2.Resumed || !jr2.Done || jr2.Completed != 3 {
		t.Fatalf("re-submit: status %d, %+v", code, jr2)
	}
	if m := srv.Metrics(); m.SweepJobsCreated != 1 || m.SweepCellsComputed != 3 {
		t.Fatalf("job metrics: created %d, computed %d — the re-submit re-ran cells",
			m.SweepJobsCreated, m.SweepCellsComputed)
	}

	from2 := jobLines(t, ts.URL+"/v1/sweeps/"+jr.ID+"?from=2")
	if len(from2) != 2 || from2[0] != lines[2] {
		t.Fatalf("from=2 stream %v, want cell 2 + trailer", from2)
	}
	if err := json.Unmarshal([]byte(from2[1]), &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Cells != 1 {
		t.Fatalf("from=2 trailer %+v", tr)
	}

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + jr.ID + "?from=9")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("from past the grid: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/sweeps/" + strings.Repeat("0", 64))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestSweepJobCrashRestart: a completed job survives a crash — a fresh
// server over the same store answers the re-submit as done, re-runs
// zero cells (asserted via the counters), and streams byte-identical
// output.
func TestSweepJobCrashRestart(t *testing.T) {
	body := marshalSpec(t, sweepJobSpec())
	dir := t.TempDir()
	fst := openRecoveryStore(t, dir)
	srv1, ts1 := newTestServer(t, Config{Store: fst})

	code, jr := postSweepJob(t, ts1.URL, body)
	if code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	lines := jobLines(t, ts1.URL+"/v1/sweeps/"+jr.ID)
	if len(lines) != 4 {
		t.Fatalf("first run: %d lines", len(lines))
	}
	ts1.Close()
	srv1.Close()
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openRecoveryStore(t, dir)
	t.Cleanup(func() { fst2.Close() })
	srv2, ts2 := newTestServer(t, Config{Store: fst2})
	code, jr2 := postSweepJob(t, ts2.URL, body)
	if code != http.StatusOK || !jr2.Resumed || !jr2.Done || jr2.Completed != 3 {
		t.Fatalf("resume after restart: status %d, %+v", code, jr2)
	}
	m := srv2.Metrics()
	if m.SweepCellsComputed != 0 || m.SweepCellsRestored != 3 || m.SweepJobsResumed != 1 {
		t.Fatalf("restart metrics: computed %d restored %d resumed %d, want 0/3/1",
			m.SweepCellsComputed, m.SweepCellsRestored, m.SweepJobsResumed)
	}
	restarted := jobLines(t, ts2.URL+"/v1/sweeps/"+jr.ID)
	for i := range lines {
		if restarted[i] != lines[i] {
			t.Fatalf("line %d differs after restart:\n before %s\n after  %s", i, lines[i], restarted[i])
		}
	}
}

// TestSweepJobLeaseReclaimAfterCrash: a replica dies mid-sweep while
// holding the job's claim lease. The surviving replica first finds the
// lease held (and politely waits), reclaims it once it expires,
// restores the dead replica's persisted prefix without re-running it,
// computes only the missing suffix, and streams output byte-identical
// to an uninterrupted run. The dead replica's fencing token stays dead:
// a write under it is rejected even after the job finished.
func TestSweepJobLeaseReclaimAfterCrash(t *testing.T) {
	es := sweepJobSpec()
	body := marshalSpec(t, es)
	hash, err := spec.CanonicalHash(es)
	if err != nil {
		t.Fatal(err)
	}
	// Reference output from an uninterrupted run.
	_, tsRef := newTestServer(t, Config{})
	ref := sweepLines(t, tsRef.URL, body)
	if len(ref) != 4 {
		t.Fatalf("reference sweep: %d lines", len(ref))
	}

	// The shared store, on a fake clock the test controls.
	clock := obs.NewFakeClock(time.Unix(1_700_000_000, 0), time.Millisecond)
	mem := store.NewMemWithClock(clock)
	t.Cleanup(func() { mem.Close() })
	ctx := context.Background()

	// Replica A's last breath: the job record, cell 0's result, and the
	// claim lease it died holding.
	rec, err := json.Marshal(es)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put(ctx, sweepJobPrefix+hash, rec); err != nil {
		t.Fatal(err)
	}
	key0, err := spec.CanonicalCellHash(es, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Put(ctx, key0, []byte(ref[0])); err != nil {
		t.Fatal(err)
	}
	deadLease, err := mem.AcquireLease(ctx, sweepLeasePrefix+hash, "replica-a", time.Minute)
	if err != nil {
		t.Fatal(err)
	}

	// Replica B takes over. A short retry delay keeps the held-lease
	// wait cheap; the lease TTLs run on the store's fake clock.
	srvB, tsB := newTestServer(t, Config{
		Store:           mem,
		ReplicaID:       "replica-b",
		SweepLeaseTTL:   time.Minute,
		SweepRetryDelay: time.Millisecond,
	})
	code, jr := postSweepJob(t, tsB.URL, body)
	if code != http.StatusOK || !jr.Resumed {
		t.Fatalf("takeover submit: status %d, %+v", code, jr)
	}
	// Let A's lease lapse; B's next acquire attempt reclaims it.
	clock.Advance(2 * time.Minute)

	lines := jobLines(t, tsB.URL+"/v1/sweeps/"+hash)
	for i := range ref {
		if lines[i] != ref[i] {
			t.Fatalf("line %d differs from the uninterrupted sweep:\n got  %s\n want %s", i, lines[i], ref[i])
		}
	}
	m := srvB.Metrics()
	if m.SweepCellsRestored != 1 || m.SweepCellsComputed != 2 {
		t.Fatalf("takeover metrics: restored %d computed %d, want 1/2 (a duplicate run)",
			m.SweepCellsRestored, m.SweepCellsComputed)
	}
	if m.Store.LeaseReclaimed < 1 {
		t.Fatalf("lease reclaims = %d, want >= 1", m.Store.LeaseReclaimed)
	}

	// The dead replica wakes up and tries to write with its old claim:
	// the token comparison fences it off.
	if err := mem.PutLeased(ctx, deadLease, key0, []byte("zombie")); !errors.Is(err, store.ErrLeaseStale) {
		t.Fatalf("zombie write error = %v, want ErrLeaseStale", err)
	}
	if got, _, err := mem.Get(ctx, key0); err != nil || string(got) != ref[0] {
		t.Fatalf("cell 0 after zombie write = %q, %v", got, err)
	}
	if st := mem.Stats(); st.LeaseStale < 1 {
		t.Fatalf("stale fencings = %d, want >= 1", st.LeaseStale)
	}
}

// TestSweepJobResumesFromPersistedPrefix: a job interrupted mid-grid
// (journal + one persisted cell, planted directly in the store) resumes
// by computing only the missing suffix, and the stitched stream is
// byte-identical to an uninterrupted sweep.
func TestSweepJobResumesFromPersistedPrefix(t *testing.T) {
	es := sweepJobSpec()
	body := marshalSpec(t, es)
	hash, err := spec.CanonicalHash(es)
	if err != nil {
		t.Fatal(err)
	}
	// Reference output from an uninterrupted one-shot sweep.
	_, tsRef := newTestServer(t, Config{})
	ref := sweepLines(t, tsRef.URL, body)
	if len(ref) != 4 {
		t.Fatalf("reference sweep: %d lines", len(ref))
	}

	// Plant the crash artifact: the job record plus cell 0, exactly what
	// a server killed after the first cell would have acknowledged.
	dir := t.TempDir()
	fst := openRecoveryStore(t, dir)
	rec, err := json.Marshal(es)
	if err != nil {
		t.Fatal(err)
	}
	if err := fst.Put(context.Background(), sweepJobPrefix+hash, rec); err != nil {
		t.Fatal(err)
	}
	key0, err := spec.CanonicalCellHash(es, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fst.Put(context.Background(), key0, []byte(ref[0])); err != nil {
		t.Fatal(err)
	}
	if err := fst.Close(); err != nil {
		t.Fatal(err)
	}

	fst2 := openRecoveryStore(t, dir)
	t.Cleanup(func() { fst2.Close() })
	srv, ts := newTestServer(t, Config{Store: fst2})
	code, jr := postSweepJob(t, ts.URL, body)
	if code != http.StatusOK || !jr.Resumed || jr.Completed < 1 {
		t.Fatalf("resume: status %d, %+v", code, jr)
	}
	lines := jobLines(t, ts.URL+"/v1/sweeps/"+hash)
	for i := range ref {
		if lines[i] != ref[i] {
			t.Fatalf("line %d differs from the uninterrupted sweep:\n job   %s\n sweep %s", i, lines[i], ref[i])
		}
	}
	m := srv.Metrics()
	if m.SweepCellsRestored != 1 || m.SweepCellsComputed != 2 {
		t.Fatalf("resume metrics: restored %d computed %d, want 1/2", m.SweepCellsRestored, m.SweepCellsComputed)
	}
}
