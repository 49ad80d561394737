package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute. Attributes are a small ordered list, not
// a map, so a span's JSON encoding is deterministic.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one finished timed region. IDs are per-tracer sequence
// numbers; Parent is the enclosing span's ID (0 for roots); Request is
// the correlation id of the request that recorded it ("" for
// background work without one).
type Span struct {
	ID       uint64        `json:"id"`
	Parent   uint64        `json:"parent,omitempty"`
	Request  string        `json:"request,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"durationNs"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Attr returns the value of the span's first attribute named key ("" when
// it has none).
func (s Span) Attr(key string) string {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// DefaultTraceCapacity is the default ring-buffer size.
const DefaultTraceCapacity = 4096

// TracerConfig tunes a Tracer.
type TracerConfig struct {
	// Clock times the spans. Nil means the real clock.
	Clock Clock
	// Capacity bounds the retained-span ring buffer (non-positive means
	// DefaultTraceCapacity).
	Capacity int
	// OnEnd, when set, observes every finished span (after it lands in
	// the ring). The servers set it to Stages, which feeds the per-stage
	// latency histograms. It runs on the ending goroutine and must be
	// cheap and concurrency-safe.
	OnEnd func(Span)
}

// Tracer records spans into a bounded ring buffer: recording is one
// short critical section, old spans are overwritten, and nothing is
// ever allocated per-span beyond its attribute slice.
type Tracer struct {
	clock  Clock
	onEnd  func(Span)
	nextID atomic.Uint64

	mu    sync.Mutex
	ring  []Span
	next  int  // ring index the next span lands in
	wrapd bool // the ring has wrapped at least once
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	clock := cfg.Clock
	if clock == nil {
		clock = NewRealClock()
	}
	capacity := cfg.Capacity
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		clock: clock,
		onEnd: cfg.OnEnd,
		ring:  make([]Span, capacity),
	}
}

// Clock returns the tracer's time source, so the component that owns
// the tracer (the service) shares one injected clock with it.
func (t *Tracer) Clock() Clock { return t.clock }

// record lands one finished span in the ring.
func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.ring[t.next] = s
	t.next++
	if t.next == len(t.ring) {
		t.next = 0
		t.wrapd = true
	}
	t.mu.Unlock()
	if t.onEnd != nil {
		t.onEnd(s)
	}
}

// Recent returns up to limit retained spans, newest first (limit <= 0
// means all retained). The result is a copy.
func (t *Tracer) Recent(limit int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.next
	if t.wrapd {
		n = len(t.ring)
	}
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]Span, 0, limit)
	for i := 1; i <= limit; i++ {
		idx := t.next - i
		if idx < 0 {
			idx += len(t.ring)
		}
		out = append(out, t.ring[idx])
	}
	return out
}

// WithTracer returns a context carrying the tracer.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the context's tracer (nil when none is set).
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// Detach copies the observability values (tracer, request id, parent
// span) from ctx onto a fresh background context. Use it for work that
// must not inherit the request's cancellation — coalesced evaluations,
// background sweep runners — but should stay correlated in the traces.
func Detach(ctx context.Context) context.Context {
	//chkpt:allow ctxflow -- Detach exists to shed the caller's cancellation; the obs values are re-attached explicitly
	out := context.Background()
	if t := TracerFrom(ctx); t != nil {
		out = WithTracer(out, t)
	}
	if id := RequestID(ctx); id != "" {
		out = WithRequestID(out, id)
	}
	if a := SpanFrom(ctx); a != nil {
		out = context.WithValue(out, spanKey, a)
	}
	return out
}

// SpanFrom returns the innermost span started on ctx (nil, a valid no-op
// span, when there is none), so a handler can annotate the span its
// middleware started.
func SpanFrom(ctx context.Context) *ActiveSpan {
	a, _ := ctx.Value(spanKey).(*ActiveSpan)
	return a
}

// ActiveSpan is an in-flight span. The zero of *ActiveSpan (nil) is a
// valid no-op span, so instrumented code never branches on whether a
// tracer is attached.
type ActiveSpan struct {
	tracer *Tracer
	span   Span
	mu     sync.Mutex
	ended  bool
}

// StartSpan begins a span named name if the context carries a tracer,
// returning a derived context (child spans started from it parent
// here) and the active span. Without a tracer it returns ctx and nil —
// and every *ActiveSpan method is nil-safe — so call sites are
// unconditional.
func StartSpan(ctx context.Context, name string) (context.Context, *ActiveSpan) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	a := &ActiveSpan{
		tracer: t,
		span: Span{
			ID:      t.nextID.Add(1),
			Name:    name,
			Request: RequestID(ctx),
			Start:   t.clock.Now(),
		},
	}
	if p := SpanFrom(ctx); p != nil {
		a.span.Parent = p.span.ID
	}
	return context.WithValue(ctx, spanKey, a), a
}

// SetAttr attaches an attribute to the span. No-op on a nil span or
// after End.
func (a *ActiveSpan) SetAttr(key, value string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.ended {
		return
	}
	a.span.Attrs = append(a.span.Attrs, Attr{Key: key, Value: value})
}

// End finishes the span and records it. Safe to call more than once
// (later calls are no-ops) and on a nil span.
func (a *ActiveSpan) End() {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return
	}
	a.ended = true
	a.span.Duration = a.tracer.clock.Now().Sub(a.span.Start)
	s := a.span
	a.mu.Unlock()
	a.tracer.record(s)
}
