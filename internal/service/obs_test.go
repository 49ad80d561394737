package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/advisor"
	"repro/internal/obs"
	"repro/internal/store"
)

// syncBuffer is a goroutine-safe log sink: the access-log middleware
// writes from handler goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// accessLogRecords decodes the JSON access-log lines with msg "request".
func accessLogRecords(t *testing.T, logs string) []map[string]any {
	t.Helper()
	var out []map[string]any
	sc := bufio.NewScanner(strings.NewReader(logs))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] == "request" {
			out = append(out, rec)
		}
	}
	return out
}

// fetchTraces reads GET /v1/debug/traces.
func fetchTraces(t *testing.T, url string) []obs.Span {
	t.Helper()
	resp, err := http.Get(url + "/v1/debug/traces?limit=4096")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traces status = %d", resp.StatusCode)
	}
	var tr struct{ Spans []obs.Span }
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr.Spans
}

// TestRequestIDPropagation: a client-supplied X-Request-ID is echoed on
// the response, attached to the access-log line, and carried onto every
// span the request records; a request without one gets a deterministic
// minted id with the same propagation.
func TestRequestIDPropagation(t *testing.T) {
	logs := &syncBuffer{}
	_, ts := newTestServer(t, Config{
		Logger: slog.New(slog.NewJSONHandler(logs, nil)),
		IDs:    obs.NewSequenceIDSource("req"),
	})

	// Client-supplied id.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-chosen-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chosen-42" {
		t.Fatalf("echoed id = %q, want client-chosen-42", got)
	}

	// No id: the injected deterministic source mints one.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-ID")
	if minted != "req-000001" {
		t.Fatalf("minted id = %q, want req-000001", minted)
	}

	// Both ids land on their access-log lines.
	recs := accessLogRecords(t, logs.String())
	if len(recs) != 2 {
		t.Fatalf("access log lines = %d, want 2", len(recs))
	}
	if recs[0]["request_id"] != "client-chosen-42" || recs[1]["request_id"] != minted {
		t.Fatalf("access-log request ids = %v, %v", recs[0]["request_id"], recs[1]["request_id"])
	}

	// Both requests recorded an http.request span under their id.
	byRequest := map[string]int{}
	for _, sp := range fetchTraces(t, ts.URL) {
		if sp.Name == "http.request" {
			byRequest[sp.Request]++
		}
	}
	if byRequest["client-chosen-42"] != 1 || byRequest[minted] != 1 {
		t.Fatalf("http.request spans by id = %v", byRequest)
	}

	// A hostile header is not echoed verbatim: an over-long id is
	// truncated to the 64-byte bound before it reaches logs and spans.
	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", strings.Repeat("x", 80))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != strings.Repeat("x", 64) {
		t.Fatalf("sanitized id = %q, want 64 x's", got)
	}
}

// promSample matches one Prometheus text-format sample line:
// name{labels} value, with the label block optional. Label values are
// quoted strings and may contain '}' (session-path templates do), so
// the label block is matched label-by-label, not up to the first '}'.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{(?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*\})? (-?[0-9.eE+-]+|NaN)$`)

// promFamily is one parsed metric family from a /metrics scrape.
type promFamily struct {
	typ     string
	help    bool
	samples []promSampleLine
}

type promSampleLine struct {
	labels string // raw label block, "" when absent
	value  float64
}

// parseExposition parses a /metrics payload, failing the test on any
// line that is neither a well-formed comment nor a well-formed sample,
// on samples appearing before their family's HELP/TYPE header, and on
// duplicate family headers.
func parseExposition(t *testing.T, payload string) map[string]*promFamily {
	t.Helper()
	families := map[string]*promFamily{}
	sc := bufio.NewScanner(strings.NewReader(payload))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(parts) != 2 || parts[1] == "" {
				t.Fatalf("HELP line without text: %q", line)
			}
			f := families[parts[0]]
			if f == nil {
				f = &promFamily{}
				families[parts[0]] = f
			}
			if f.help {
				t.Fatalf("duplicate HELP for %s", parts[0])
			}
			f.help = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Fatalf("unknown TYPE %q in %q", parts[1], line)
			}
			f := families[parts[0]]
			if f == nil {
				f = &promFamily{}
				families[parts[0]] = f
			}
			if f.typ != "" {
				t.Fatalf("duplicate TYPE for %s", parts[0])
			}
			f.typ = parts[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unrecognized comment line: %q", line)
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		name := m[1]
		// Histogram samples attach to their family name.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name {
				if f, ok := families[base]; ok && f.typ == "histogram" {
					family = base
				}
				break
			}
		}
		f, ok := families[family]
		if !ok || f.typ == "" || !f.help {
			t.Fatalf("sample %q precedes its HELP/TYPE header", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("sample %q value: %v", line, err)
		}
		f.samples = append(f.samples, promSampleLine{labels: m[2], value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return families
}

// checkHistogram asserts the histogram contract for one labeled series
// of a family: cumulative buckets are monotonically non-decreasing, the
// series ends with le="+Inf", and the +Inf bucket equals the count
// sample. seriesKey selects samples by a label-block substring ("" for
// the unlabeled series).
func checkHistogram(t *testing.T, fam *promFamily, name, seriesKey string) (count float64) {
	t.Helper()
	var buckets []float64
	var infSeen bool
	var total float64 = -1
	for _, s := range fam.samples {
		if seriesKey != "" && !strings.Contains(s.labels, seriesKey) {
			continue
		}
		switch {
		case strings.Contains(s.labels, `le="+Inf"`):
			infSeen = true
			buckets = append(buckets, s.value)
		case strings.Contains(s.labels, `le="`):
			if infSeen {
				t.Fatalf("%s{%s}: bucket after +Inf", name, seriesKey)
			}
			buckets = append(buckets, s.value)
		case s.labels == "" || !strings.Contains(s.labels, "le="):
			// _sum or _count; _count is the last such sample by render
			// order, but value-wise we only need the count: take it from
			// the +Inf bucket equality below.
			total = s.value
		}
	}
	if len(buckets) == 0 {
		t.Fatalf("%s{%s}: no buckets rendered", name, seriesKey)
	}
	if !infSeen {
		t.Fatalf("%s{%s}: missing le=\"+Inf\" bucket", name, seriesKey)
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("%s{%s}: buckets not cumulative: %v", name, seriesKey, buckets)
		}
	}
	_ = total
	return buckets[len(buckets)-1]
}

// TestMetricsExpositionFormat scrapes /metrics after real traffic and
// verifies the whole payload parses as Prometheus text format: every
// sample preceded by HELP/TYPE, every line well-formed, and every
// histogram family cumulative with a trailing +Inf bucket.
func TestMetricsExpositionFormat(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if _, b := postJSON(t, ts.URL+"/v1/evaluate", marshalSpec(t, smallSpec(1))); len(b) == 0 {
		t.Fatal("empty evaluate response")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	families := parseExposition(t, string(body))

	for name, series := range map[string][]string{
		"chkpt_request_duration_seconds": {`path="/v1/evaluate"`},
		"chkpt_replan_seconds":           {`warm="false"`, `warm="true"`},
		"chkpt_store_fsync_seconds":      {""},
		"chkpt_store_replay_seconds":     {""},
		"chkpt_engine_cell_seconds":      {""},
		"chkpt_engine_cache_seconds":     {`result="hit"`, `result="miss"`},
		"chkpt_remote_store_rpc_seconds": {`op="put",result="ok"`, `op="lease-acquire",result="error"`},
	} {
		fam, ok := families[name]
		if !ok {
			t.Fatalf("family %s missing from scrape", name)
		}
		if fam.typ != "histogram" {
			t.Fatalf("family %s TYPE = %q, want histogram", name, fam.typ)
		}
		for _, key := range series {
			checkHistogram(t, fam, name, key)
		}
	}

	// The evaluation ran engine cells under the request tracer, so the
	// cell histogram observed real work.
	if n := checkHistogram(t, families["chkpt_engine_cell_seconds"], "chkpt_engine_cell_seconds", ""); n < 1 {
		t.Fatalf("chkpt_engine_cell_seconds count = %v, want >= 1", n)
	}
	// The evaluation resolved artifacts (trace sets) through the cache.
	miss := checkHistogram(t, families["chkpt_engine_cache_seconds"], "chkpt_engine_cache_seconds", `result="miss"`)
	if miss < 1 {
		t.Fatalf("chkpt_engine_cache_seconds{result=miss} count = %v, want >= 1", miss)
	}
	// The lease-face counters render whether or not the backend ever
	// granted a lease (the in-memory store has, through the sweep
	// runner, or not — either way the family must exist with TYPE
	// counter).
	for _, name := range []string{
		"chkpt_store_lease_acquired_total",
		"chkpt_store_lease_renewed_total",
		"chkpt_store_lease_released_total",
		"chkpt_store_lease_reclaimed_total",
		"chkpt_store_lease_stale_total",
	} {
		fam, ok := families[name]
		if !ok {
			t.Fatalf("family %s missing from scrape", name)
		}
		if fam.typ != "counter" {
			t.Fatalf("family %s TYPE = %q, want counter", name, fam.typ)
		}
	}
}

// TestMetricsZeroObservationScrape: a fresh server that has served no
// traffic still renders the complete bucket set of every span-fed
// histogram family with zero counts — the pre-sized-buckets contract.
func TestMetricsZeroObservationScrape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	families := parseExposition(t, string(body))
	for name, key := range map[string]string{
		"chkpt_replan_seconds":       `warm="false"`,
		"chkpt_store_fsync_seconds":  "",
		"chkpt_store_replay_seconds": "",
		"chkpt_engine_cell_seconds":  "",
		"chkpt_engine_cache_seconds": `result="hit"`,
		// Every wire op pre-renders both outcomes, even on a server that
		// has never spoken to a remote store.
		"chkpt_remote_store_rpc_seconds": `op="created",result="error"`,
	} {
		fam, ok := families[name]
		if !ok {
			t.Fatalf("family %s missing from zero-observation scrape", name)
		}
		if n := checkHistogram(t, fam, name, key); n != 0 {
			t.Fatalf("%s count = %v on a fresh server", name, n)
		}
		// Every finite bucket renders, not just +Inf: the family carries
		// len(obs.SpanBuckets)+1 bucket samples per series.
		var buckets int
		for _, s := range fam.samples {
			if key != "" && !strings.Contains(s.labels, key) {
				continue
			}
			if strings.Contains(s.labels, "le=") {
				buckets++
			}
		}
		if want := len(obs.SpanBuckets) + 1; buckets != want {
			t.Fatalf("%s renders %d buckets, want %d", name, buckets, want)
		}
	}
}

// TestSessionEventObservability is the PR's acceptance path: one POST
// /v1/sessions/{id}/events on a DPNextFailure session over a durable
// FileStore yields the same request id on the response header, the
// access-log line, and at least three correlated spans covering the
// handler, the replan (or cached-decision) consult, and the store
// append+fsync — and /metrics shows chkpt_replan_seconds and
// chkpt_store_fsync_seconds with count >= 1.
func TestSessionEventObservability(t *testing.T) {
	fst, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	logs := &syncBuffer{}
	_, ts := newTestServer(t, Config{
		Store:  fst,
		Logger: slog.New(slog.NewJSONHandler(logs, nil)),
		Clock:  obs.NewFakeClock(time.Unix(1700000000, 0), time.Millisecond),
		IDs:    obs.NewSequenceIDSource("acc"),
	})

	sr := createSession(t, ts.URL, sessionSpecJSON(`{"kind": "dpnextfailure", "quanta": 30}`))
	if sr.Decision == nil || sr.Decision.Chunk <= 0 {
		t.Fatalf("create response %+v", sr)
	}
	chunk := sr.Decision.Chunk

	// The observed request: a failure and its recovery, under a known id.
	body, err := json.Marshal(SessionEventsRequest{Events: []advisor.Event{
		{Kind: advisor.EventFailure, Time: chunk / 2, Unit: 0},
		{Kind: advisor.EventRecovered, Time: chunk/2 + 120},
	}})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/sessions/"+sr.ID+"/events", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "acceptance-events-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status = %d: %s", resp.StatusCode, respBody)
	}
	var er SessionEventsResponse
	if err := json.Unmarshal(respBody, &er); err != nil {
		t.Fatal(err)
	}
	if er.Applied != 2 || er.Decision == nil {
		t.Fatalf("events response %+v", er)
	}

	// (1) Response header carries the id.
	if got := resp.Header.Get("X-Request-ID"); got != "acceptance-events-1" {
		t.Fatalf("response id = %q", got)
	}

	// (2) The access-log line for the events POST carries the same id.
	var logged bool
	for _, rec := range accessLogRecords(t, logs.String()) {
		if rec["request_id"] == "acceptance-events-1" {
			if !strings.HasSuffix(rec["path"].(string), "/events") {
				t.Fatalf("id on wrong path: %v", rec["path"])
			}
			logged = true
		}
	}
	if !logged {
		t.Fatalf("no access-log line with the request id; logs:\n%s", logs.String())
	}

	// (3) At least three correlated spans: the handler, the policy
	// consult, and the durable append/fsync.
	spans := fetchTraces(t, ts.URL)
	names := map[string]int{}
	for _, sp := range spans {
		if sp.Request == "acceptance-events-1" {
			names[sp.Name]++
		}
	}
	var correlated int
	for _, n := range names {
		correlated += n
	}
	if correlated < 3 {
		t.Fatalf("correlated spans = %d (%v), want >= 3", correlated, names)
	}
	if names["http.request"] == 0 {
		t.Fatalf("no http.request span under the id: %v", names)
	}
	if names["advisor.replan"] == 0 {
		t.Fatalf("no advisor.replan span under the id: %v", names)
	}
	if names["store.append"] == 0 || names["store.fsync"] == 0 {
		t.Fatalf("no store.append+store.fsync spans under the id: %v", names)
	}
	if names["advisor.observe"] != 2 {
		t.Fatalf("advisor.observe spans = %d, want 2: %v", names["advisor.observe"], names)
	}

	// (4) The stage histograms observed the spans.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	families := parseExposition(t, string(mbody))
	var replans float64
	for _, key := range []string{`warm="false"`, `warm="true"`} {
		replans += checkHistogram(t, families["chkpt_replan_seconds"], "chkpt_replan_seconds", key)
	}
	if replans < 1 {
		t.Fatalf("chkpt_replan_seconds count = %v, want >= 1", replans)
	}
	if n := checkHistogram(t, families["chkpt_store_fsync_seconds"], "chkpt_store_fsync_seconds", ""); n < 1 {
		t.Fatalf("chkpt_store_fsync_seconds count = %v, want >= 1", n)
	}
}

// TestTracesEndpointLimit: the limit parameter bounds the answer and
// rejects nonsense.
func TestTracesEndpointLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/debug/traces?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	var tr struct{ Spans []obs.Span }
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(tr.Spans) != 2 {
		t.Fatalf("limited spans = %d, want 2", len(tr.Spans))
	}
	resp, err = http.Get(ts.URL + "/v1/debug/traces?limit=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("limit=0 status = %d, want 400", resp.StatusCode)
	}
}

// TestMetricsRouteLabels: the request series are labelled with the
// route the mux matched — every mounted route, including the trace
// endpoint, gets its own series, session ids collapse into the route
// template, and a request no route matched counts as "other".
func TestMetricsRouteLabels(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sr := createSession(t, ts.URL, sessionSpecJSON(`{"kind": "young"}`))
	for _, path := range []string{"/v1/debug/traces", "/v1/sessions/" + sr.ID, "/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`chkpt_requests_total{path="/v1/debug/traces",code="200"} 1`,
		`chkpt_requests_total{path="/v1/sessions/{id}",code="200"} 1`,
		`chkpt_requests_total{path="other",code="404"} 1`,
	} {
		if !strings.Contains(string(body), want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(string(body), sr.ID) {
		t.Errorf("a session id leaked into a metric label")
	}
}
