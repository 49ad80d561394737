package cluster_test

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
)

// countingBackend answers its name and tallies hits.
type countingBackend struct {
	name string
	mu   sync.Mutex
	hits int
}

func (b *countingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	b.mu.Lock()
	b.hits++
	b.mu.Unlock()
	fmt.Fprint(w, b.name)
}

func (b *countingBackend) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits
}

// TestForwarderRoundRobinAndFailover: requests rotate across replicas;
// a dead replica is skipped transparently; with every replica dead the
// client gets 502.
func TestForwarderRoundRobinAndFailover(t *testing.T) {
	a := &countingBackend{name: "a"}
	b := &countingBackend{name: "b"}
	sa := httptest.NewServer(a)
	sb := httptest.NewServer(b)
	t.Cleanup(sa.Close)
	t.Cleanup(sb.Close)

	fw, err := cluster.NewForwarder([]string{sa.URL, sb.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(fw)
	t.Cleanup(front.Close)

	get := func() (int, string) {
		t.Helper()
		resp, err := http.Get(front.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	for i := 0; i < 4; i++ {
		if status, _ := get(); status != http.StatusOK {
			t.Fatalf("request %d status = %d", i, status)
		}
	}
	if a.count() != 2 || b.count() != 2 {
		t.Fatalf("round robin split a=%d b=%d, want 2/2", a.count(), b.count())
	}

	// Kill one replica: every request still lands, on the survivor.
	sa.Close()
	for i := 0; i < 3; i++ {
		if status, body := get(); status != http.StatusOK || body != "b" {
			t.Fatalf("failover request %d: status=%d body=%q", i, status, body)
		}
	}

	// Kill the other: the forwarder reports the outage itself.
	sb.Close()
	if status, _ := get(); status != http.StatusBadGateway {
		t.Fatalf("all-dead status = %d, want 502", status)
	}
}

// TestForwarderFailoverDeliveryAware pins the failover safety rule:
// a POST is replayed against the next replica only when the first
// attempt provably never got there (connection refused — a dial
// error). When the connection dies mid-exchange, after the request may
// have been delivered and executed, the forwarder must answer 502
// rather than replay the body and duplicate a log append. A GET over
// the same mid-exchange death still fails over: reads are idempotent.
func TestForwarderFailoverDeliveryAware(t *testing.T) {
	// killer accepts the connection, then severs it before answering —
	// the "replica executed the append and was SIGKILLed before the
	// response" shape, indistinguishable from it on the wire.
	killer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("response writer is not a hijacker")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}))
	t.Cleanup(killer.Close)
	survivor := &countingBackend{name: "b"}
	sb := httptest.NewServer(survivor)
	t.Cleanup(sb.Close)

	// dead is a refused port: a dial error, provably undelivered.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	// Each scenario gets a fresh forwarder so its single request starts
	// the rotation at the failing backend.
	newFront := func(first string) *httptest.Server {
		t.Helper()
		fw, err := cluster.NewForwarder([]string{first, sb.URL}, nil)
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(fw)
		t.Cleanup(front.Close)
		return front
	}
	post := func(frontURL string) int {
		t.Helper()
		resp, err := http.Post(frontURL+"/v1/sessions/s1/events", "application/json",
			strings.NewReader(`{"events":[]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// POST dying mid-exchange: 502, and the survivor must not see it —
	// a replayed append could land a log record twice.
	if status := post(newFront(killer.URL).URL); status != http.StatusBadGateway {
		t.Fatalf("mid-exchange POST death: status = %d, want 502", status)
	}
	if survivor.count() != 0 {
		t.Fatalf("POST was replayed against the survivor %d times after a mid-exchange death", survivor.count())
	}

	// The same mid-exchange death under a GET fails over: reads replay
	// safely no matter when the connection died.
	resp, err := http.Get(newFront(killer.URL).URL + "/v1/sessions/s1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after mid-exchange death: status = %d, want failover 200", resp.StatusCode)
	}
	if survivor.count() != 1 {
		t.Fatalf("survivor hits = %d, want 1 (the failed-over GET)", survivor.count())
	}

	// POST against a refused port fails over: a dial error proves the
	// request never landed anywhere, so replaying it is safe.
	if status := post(newFront(deadURL).URL); status != http.StatusOK {
		t.Fatalf("undelivered POST: status = %d, want failover 200", status)
	}
	if survivor.count() != 2 {
		t.Fatalf("survivor hits = %d, want 2 (the failed-over POST landed)", survivor.count())
	}
}

// TestForwarderRelaysBackendErrors: an HTTP error is a backend answer,
// not a routing failure — a 503 from the store layer must reach the
// caller untouched, not trigger a failover that could duplicate work.
func TestForwarderRelaysBackendErrors(t *testing.T) {
	unhappy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "store down", http.StatusServiceUnavailable)
	}))
	t.Cleanup(unhappy.Close)
	fw, err := cluster.NewForwarder([]string{unhappy.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(fw)
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/v1/anything")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the backend's 503", resp.StatusCode)
	}
}

// TestForwarderRelaysSizedAndStreamed: replies of declared length,
// which the forwarder reads through a buffer of their size (or 32 KB
// chunks past that), and NDJSON streams of unknown length come through
// byte for byte while relayed concurrently; each stream's first row
// reaches the client before the backend writes the rest, so the
// forwarder still flushes per chunk.
func TestForwarderRelaysSizedAndStreamed(t *testing.T) {
	sizes := []int{0, 1, 317, 25 << 10, 32 << 10, 40 << 10}
	sized := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + i%26)
		}
		return b
	}
	// A stream's rows after the first add up to more than one 32 KB chunk.
	row := func(id string, i int) string {
		return fmt.Sprintf("{\"id\":%q,\"row\":%d,\"pad\":%q}\n", id, i, strings.Repeat("x", i*1500))
	}
	const rows = 8
	var firstRead sync.Map // stream id -> chan struct{}, closed once its first row arrived
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		switch r.URL.Path {
		case "/sized":
			n, _ := strconv.Atoi(q.Get("n"))
			w.Header().Set("Content-Length", strconv.Itoa(n))
			_, _ = w.Write(sized(n))
		case "/stream":
			id := q.Get("id")
			ch, ok := firstRead.Load(id)
			if !ok {
				http.Error(w, "unknown stream", http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/x-ndjson")
			_, _ = io.WriteString(w, row(id, 0))
			w.(http.Flusher).Flush()
			select {
			case <-ch.(chan struct{}):
			case <-r.Context().Done():
				return
			}
			for i := 1; i < rows; i++ {
				_, _ = io.WriteString(w, row(id, i))
				w.(http.Flusher).Flush()
			}
		}
	}))
	t.Cleanup(backend.Close)
	fw, err := cluster.NewForwarder([]string{backend.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(fw)
	t.Cleanup(front.Close)

	get := func(ctx context.Context, path string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, front.URL+path, nil)
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	}
	checkSized := func(ctx context.Context, n int) error {
		resp, err := get(ctx, "/sized?n="+strconv.Itoa(n))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		switch {
		case err != nil:
			return err
		case resp.ContentLength != int64(n):
			return fmt.Errorf("sized %d: Content-Length %d", n, resp.ContentLength)
		case !bytes.Equal(body, sized(n)):
			return fmt.Errorf("sized %d: relayed %d different bytes", n, len(body))
		}
		return nil
	}
	checkStream := func(ctx context.Context, id string) error {
		ch := make(chan struct{})
		firstRead.Store(id, ch)
		resp, err := get(ctx, "/stream?id="+id)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		br := bufio.NewReader(resp.Body)
		// The backend writes nothing more until this row has arrived: an
		// unflushed row would stall here until the context expires.
		first, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("stream %s: first row: %w", id, err)
		}
		close(ch)
		rest, err := io.ReadAll(br)
		if err != nil {
			return err
		}
		var want strings.Builder
		for i := range rows {
			want.WriteString(row(id, i))
		}
		if got := first + string(rest); got != want.String() {
			return fmt.Errorf("stream %s: relayed %d bytes, want %d", id, len(got), want.Len())
		}
		return nil
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for c := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for i, n := range sizes {
					if err := checkSized(ctx, n); err != nil {
						t.Error(err)
					}
					if i%3 == 0 {
						if err := checkStream(ctx, fmt.Sprintf("c%d-r%d-%d", c, round, i)); err != nil {
							t.Error(err)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
