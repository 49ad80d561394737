package obs

import (
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry holds metric families and renders them in the Prometheus
// text exposition format, in registration order. Observation never
// locks: a counter is one atomic add, a histogram one atomic add on its
// bucket plus a compare-and-swap on its sum. The registry's mutex
// guards registration only.
type Registry struct {
	mu      sync.Mutex
	writers []func(*Scrape) // families and collectors, in registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Collect registers a scrape-time collector for values another
// component owns (store stats, session counts, cache counts): fn runs
// once per scrape and adds its families to the scrape, so it reads one
// snapshot of the component per scrape.
func (r *Registry) Collect(fn func(*Scrape)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.writers = append(r.writers, fn)
}

// WriteTo renders every family and collector to w.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	writers := r.writers
	r.mu.Unlock()
	var s Scrape
	for _, write := range writers {
		write(&s)
	}
	n, err := w.Write(s.b)
	return int64(n), err
}

// Scrape is one rendering of a registry in progress.
type Scrape struct{ b []byte }

// Counter adds an unlabelled counter family holding v.
func (s *Scrape) Counter(name, help string, v uint64) {
	s.header(name, help, "counter")
	s.sample(name, "", v)
}

// Gauge adds an unlabelled gauge family holding v.
func (s *Scrape) Gauge(name, help string, v int64) {
	s.header(name, help, "gauge")
	s.sample(name, "", v)
}

func (s *Scrape) header(name, help, typ string) {
	s.b = fmt.Appendf(s.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// sample appends one sample line; labels is a rendered label block
// without braces, "" for none.
func (s *Scrape) sample(name, labels string, v any) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	s.b = fmt.Appendf(s.b, "%s%s %v\n", name, labels, v)
}

// Counter is a monotonically increasing count.
type Counter struct{ n atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Histogram counts observations into fixed buckets. Its buckets exist
// from construction, so a series scraped before its first observation
// still renders every bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // counts[i]: observations in (bounds[i-1], bounds[i]]; the last, above every bound
	sum    atomic.Uint64   // float64 bits
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// write renders the series. The +Inf bucket and _count are the same sum
// of the bucket counts read once each, so a scrape racing observations
// still renders cumulative buckets with +Inf equal to _count.
func (h *Histogram) write(s *Scrape, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		s.sample(name+"_bucket", labels+sep+`le="`+le+`"`, n)
	}
	s.sample(name+"_sum", labels, math.Float64frombits(h.sum.Load()))
	s.sample(name+"_count", labels, n)
}

// CounterVec is a counter family whose series are told apart by label
// values.
type CounterVec struct{ f *family }

// With returns the counter for the label values, creating it on first
// use.
func (v *CounterVec) With(values ...string) *Counter { return &v.f.with(values).counter }

// HistogramVec is a histogram family whose series are told apart by
// label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the label values, creating it on first
// use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.with(values).hist }

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, "counter", nil, labels)}
}

// Counter registers an unlabelled counter family.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterVec(name, help).With() }

// HistogramVec registers a histogram family with the given bucket upper
// bounds (ascending) and label names.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, "histogram", bounds, labels)}
}

// Histogram registers an unlabelled histogram family.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.HistogramVec(name, help, bounds).With()
}

// family is one metric family. Its series sit behind an atomic pointer
// to a map that is copied, never changed, when a series is first used,
// so finding an existing series takes no lock.
type family struct {
	name   string
	typ    string
	labels []string
	bounds []float64                          // histogram families
	mu     sync.Mutex                         // serialises adding a series
	series atomic.Pointer[map[string]*series] // keyed by label values joined by 0xff
}

type series struct {
	values  []string
	labels  string // rendered label block
	counter Counter
	hist    *Histogram
}

func (r *Registry) family(name, help, typ string, bounds []float64, labels []string) *family {
	f := &family{name: name, typ: typ, labels: labels, bounds: bounds}
	f.series.Store(&map[string]*series{})
	r.Collect(func(s *Scrape) {
		s.header(name, help, typ)
		sorted := slices.SortedFunc(maps.Values(*f.series.Load()), func(a, b *series) int {
			return slices.Compare(a.values, b.values)
		})
		for _, e := range sorted {
			if e.hist != nil {
				e.hist.write(s, name, e.labels)
			} else {
				s.sample(name, e.labels, e.counter.Value())
			}
		}
	})
	return f
}

func (f *family) with(values []string) *series {
	var buf [64]byte
	key := buf[:0]
	for i, v := range values {
		if i > 0 {
			key = append(key, 0xff)
		}
		key = append(key, v...)
	}
	if s := (*f.series.Load())[string(key)]; s != nil {
		return s
	}
	return f.add(string(key), values)
}

func (f *family) add(key string, values []string) *series {
	if len(values) != len(f.labels) {
		panic("obs: " + f.name + " takes " + strconv.Itoa(len(f.labels)) + " label values")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	old := *f.series.Load()
	if s := old[key]; s != nil {
		return s
	}
	s := &series{values: slices.Clone(values)}
	for i, l := range f.labels {
		if i > 0 {
			s.labels += ","
		}
		s.labels += l + "=" + strconv.Quote(values[i])
	}
	if f.typ == "histogram" {
		s.hist = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
	}
	next := maps.Clone(old)
	next[key] = s
	f.series.Store(&next)
	return s
}

// SpanBuckets are the upper bounds, in seconds, of the span-fed stage
// histograms. Warm re-plans are ~10µs, cold DP builds ~1ms, fsyncs
// ~1ms, engine cells up to seconds.
var SpanBuckets = []float64{0.00001, 0.0001, 0.001, 0.005, 0.02, 0.1, 0.5, 2, 10}

// Stages is the span-to-stage-histogram table. It registers the stage
// histograms on reg and returns the tracer OnEnd hook that feeds them,
// so every traced stage is summarized on /metrics whether or not anyone
// reads /v1/debug/traces. rpcOps names the remote store wire operations
// whose chkpt_remote_store_rpc_seconds series render, for both
// outcomes, before their first call.
func Stages(reg *Registry, rpcOps []string) func(Span) {
	replan := reg.HistogramVec("chkpt_replan_seconds",
		"Advisor policy consultations by warmth: cold plans build the DP, warm re-plans walk the memo.", SpanBuckets, "warm")
	cold, warm := replan.With("false"), replan.With("true")
	fsync := reg.Histogram("chkpt_store_fsync_seconds",
		"Durable-store fsync latency (the serving tier's checkpoint cost C).", SpanBuckets)
	replay := reg.Histogram("chkpt_store_replay_seconds",
		"Session-log replay latency (recovery cost R).", SpanBuckets)
	cell := reg.Histogram("chkpt_engine_cell_seconds",
		"Engine cell evaluation latency inside Run/Stream worker loops.", SpanBuckets)
	cache := reg.HistogramVec("chkpt_engine_cache_seconds",
		"Engine artifact resolution latency by cache outcome (misses pay the build).", SpanBuckets, "result")
	hit, miss := cache.With("hit"), cache.With("miss")
	rpc := reg.HistogramVec("chkpt_remote_store_rpc_seconds",
		"Remote store RPC latency by wire operation and outcome (per call, across retries).", SpanBuckets, "op", "result")
	for _, op := range rpcOps {
		rpc.With(op, "ok")
		rpc.With(op, "error")
	}
	return func(s Span) {
		sec := s.Duration.Seconds()
		switch s.Name {
		case "advisor.replan":
			if s.Attr("warm") == "true" {
				warm.Observe(sec)
			} else {
				cold.Observe(sec)
			}
		case "store.fsync":
			fsync.Observe(sec)
		case "store.replay":
			replay.Observe(sec)
		case "engine.cell":
			cell.Observe(sec)
		case "engine.cache":
			if s.Attr("cache") == "hit" {
				hit.Observe(sec)
			} else {
				miss.Observe(sec)
			}
		case "store.rpc":
			if op, result := s.Attr("op"), s.Attr("result"); op != "" && result != "" {
				rpc.With(op, result).Observe(sec)
			}
		}
	}
}
