package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/advisor"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/spec"
	"repro/internal/store"
)

// Span names. The first group is timed around the program's public
// calls and interfaces; the second around the benchmark's own calls on
// identical inputs (the mirror).
const (
	spanClient    = "client.op"         // the client's whole op
	spanForwarder = "cluster.forwarder" // inside the forwarder's handler
	spanHandler   = "service.handler"   // inside a replica's Server.Handler()
	spanRemote    = "store.remote"      // a RemoteStore call made by a replica
	spanRPC       = "cluster.rpc"       // one RemoteStore HTTP attempt
	spanServer    = "cluster.server"    // inside StoreServer.Handler()
	spanAppend    = "store.append"      // a FileStore session-log append
	spanReplay    = "store.replay"      // a FileStore Replay

	spanObserve  = "advisor.observe" // mirror Session.Observe
	spanDecide   = "advisor.decide"  // mirror Session.Advise that consulted the policy
	spanAdvReply = "advisor.replay"  // Advisor.ReplaySession on a restored history
	spanCold     = "spec.cold"       // spec.EvaluateOne on a fresh engine
	spanWarm     = "spec.warm"       // the same document again on that engine
)

// parents lists, per span name, the span names that may enclose it in
// the same op, innermost first. A span's parent is the innermost listed
// span of its op whose interval contains it.
var parents = map[string][]string{
	spanForwarder: {spanClient},
	spanHandler:   {spanForwarder, spanClient},
	spanRemote:    {spanHandler},
	spanRPC:       {spanRemote},
	spanServer:    {spanRPC},
	spanAppend:    {spanHandler, spanServer},
	spanReplay:    {spanServer, spanHandler},
}

// span is one timed region, attributed to an op by its request id.
type span struct {
	name       string
	op         string
	start, end time.Time
	n          int64 // a count the span carries: replay steps, wire bytes
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory. Program-side spans are recorded only
// while the tracer is on (the measured phase); mirror spans always are.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<16)} }

// add records a span. Safe on a nil tracer (untraced runs).
func (t *tracer) add(name, op string, start, end time.Time, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, start: start, end: end, n: n})
	t.mu.Unlock()
}

// record adds a program-side span if the tracer is on.
func (t *tracer) record(name, op string, start time.Time, n int64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.add(name, op, start, time.Now(), n)
}

// byOp groups the spans by op id.
func (t *tracer) byOp() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string][]span)
	for _, s := range t.spans {
		out[s.op] = append(out[s.op], s)
	}
	return out
}

// spanRecord is the written form of a span.
type spanRecord struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Op      string `json:"op"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
	N       int64  `json:"n,omitempty"`
}

// write writes the spans of every op the client completed (the ops with
// a client.op span) as gzipped JSON lines, ops in first-span order, with
// ids, parents and times relative to the earliest span.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	done := map[string]bool{}
	for _, s := range t.spans {
		if s.name == spanClient {
			done[s.op] = true
		}
	}
	var spans []span
	for _, s := range t.spans {
		if done[s.op] {
			spans = append(spans, s)
		}
	}
	t.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	epoch := spans[0].start
	for _, s := range spans {
		if s.start.Before(epoch) {
			epoch = s.start
		}
	}
	var order []string
	groups := map[string][]int{}
	for i, s := range spans {
		if _, seen := groups[s.op]; !seen {
			order = append(order, s.op)
		}
		groups[s.op] = append(groups[s.op], i)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	enc := json.NewEncoder(w)
	id := 0
	ids := make([]int, len(spans))
	for _, op := range order {
		idx := groups[op]
		for _, i := range idx {
			id++
			ids[i] = id
		}
		for _, i := range idx {
			s := spans[i]
			rec := spanRecord{ID: ids[i], Name: s.name, Op: s.op,
				StartNs: s.start.Sub(epoch).Nanoseconds(), EndNs: s.end.Sub(epoch).Nanoseconds(), N: s.n}
			if p := parentOf(spans, idx, i); p >= 0 {
				rec.Parent = ids[p]
			}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parentOf returns the index of span i's parent among the op's spans
// idx, or -1 for a root.
func parentOf(spans []span, idx []int, i int) int {
	s := spans[i]
	for _, name := range parents[s.name] {
		best := -1
		for _, j := range idx {
			p := spans[j]
			if j == i || p.name != name || p.start.After(s.start) || p.end.Before(s.end) {
				continue
			}
			if best < 0 || p.start.After(spans[best].start) {
				best = j
			}
		}
		if best >= 0 {
			return best
		}
	}
	return -1
}

// selfTime is a span's duration minus the part of it that the given
// child spans cover.
func selfTime(s span, children []span) time.Duration {
	var ivs [][2]time.Time
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, [2]time.Time{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y [2]time.Time) int { return x[0].Compare(y[0]) })
	covered := time.Duration(0)
	var cur [2]time.Time
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case !iv[0].After(cur[1]):
			if iv[1].After(cur[1]) {
				cur[1] = iv[1]
			}
		default:
			covered += cur[1].Sub(cur[0])
			cur = iv
		}
	}
	if len(ivs) > 0 {
		covered += cur[1].Sub(cur[0])
	}
	return s.dur() - covered
}

// timedHandler records a span of the given name around every request
// the handler serves, attributed by the request's X-Request-ID.
func timedHandler(t *tracer, name string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(name, obs.SanitizeRequestID(r.Header.Get("X-Request-ID")), start, 0)
	})
}

// tracedStore decorates a store backend with a span per session-log
// call. It embeds the backend, so every method it does not time —
// including any added to the interface later — passes straight through.
type tracedStore struct {
	cluster.Backend
	t      *tracer
	append string // span name for appends
	replay string // span name for replays
}

// traceStore wraps a backend; nil tracer returns it unchanged.
func traceStore(b cluster.Backend, t *tracer, appendSpan, replaySpan string) cluster.Backend {
	if t == nil {
		return b
	}
	return &tracedStore{Backend: b, t: t, append: appendSpan, replay: replaySpan}
}

func (s *tracedStore) AppendCreated(ctx context.Context, id string, ss *spec.SessionSpec) error {
	start := time.Now()
	err := s.Backend.AppendCreated(ctx, id, ss)
	s.t.record(s.append, obs.RequestID(ctx), start, 0)
	return err
}

func (s *tracedStore) AppendEvent(ctx context.Context, id string, ev advisor.Event) error {
	start := time.Now()
	err := s.Backend.AppendEvent(ctx, id, ev)
	s.t.record(s.append, obs.RequestID(ctx), start, 0)
	return err
}

func (s *tracedStore) AppendAdvised(ctx context.Context, id string) error {
	start := time.Now()
	err := s.Backend.AppendAdvised(ctx, id)
	s.t.record(s.append, obs.RequestID(ctx), start, 0)
	return err
}

func (s *tracedStore) Replay(ctx context.Context, id string) (*store.SessionReplay, error) {
	start := time.Now()
	rep, err := s.Backend.Replay(ctx, id)
	var steps int64
	if rep != nil {
		steps = int64(len(rep.Steps))
	}
	s.t.record(s.replay, obs.RequestID(ctx), start, steps)
	return rep, err
}

// tracedTransport records one span per HTTP attempt, from sending the
// request until its response body is closed, carrying the body bytes.
type tracedTransport struct {
	base http.RoundTripper
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	op := req.Header.Get("X-Request-ID")
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		tt.t.record(spanRPC, op, start, 0)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) { tt.t.record(spanRPC, op, start, n) }}
	return resp, nil
}

// countingBody counts the bytes read and reports them once, on Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
