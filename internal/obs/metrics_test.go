package obs

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func scrape(t *testing.T, reg *Registry) string {
	t.Helper()
	var b bytes.Buffer
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// sampleLine matches name{labels} value; label values are quoted strings
// that may contain '}' (route templates do).
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{((?:[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*",?)*)\})? (\S+)$`)

// checkExposition fails the test unless text is well-formed exposition:
// every line a HELP, a TYPE or a sample, every sample after its family's
// HELP and TYPE, every histogram series cumulative and ending in a +Inf
// bucket equal to its _count. prev holds the previous scrape's counter
// and histogram-count samples; none may have decreased, and checkExposition
// updates it.
func checkExposition(t *testing.T, text string, prev map[string]float64) {
	t.Helper()
	help, types := map[string]bool{}, map[string]string{}
	type hist struct {
		buckets []float64
		infLast bool
		count   float64
	}
	hists := map[string]*hist{}
	var order []string
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			if text == "" || help[name] {
				t.Fatalf("bad or repeated HELP line %q", line)
			}
			help[name] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if !help[name] || types[name] != "" || (typ != "counter" && typ != "gauge" && typ != "histogram") {
				t.Fatalf("bad, repeated or HELP-less TYPE line %q", line)
			}
			types[name] = typ
			continue
		}
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed line %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		name, labels := m[1], m[2]
		family, suffix := name, ""
		for _, sfx := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, sfx); ok && types[base] == "histogram" {
				family, suffix = base, sfx
			}
		}
		if types[family] == "" {
			t.Fatalf("sample %q precedes its family's TYPE", line)
		}
		key := name + "{" + labels + "}"
		if (types[family] == "counter" || suffix == "_bucket" || suffix == "_count") && v < prev[key] {
			t.Fatalf("%s decreased between scrapes: %v -> %v", key, prev[key], v)
		}
		prev[key] = v
		if types[family] != "histogram" || suffix == "_sum" {
			continue
		}
		series := family + "{" + labels + "}"
		if suffix == "_bucket" {
			i := strings.LastIndex(labels, `le="`)
			if i < 0 {
				t.Fatalf("bucket without le: %q", line)
			}
			series = family + "{" + strings.TrimSuffix(labels[:i], ",") + "}"
		}
		h := hists[series]
		if h == nil {
			h = &hist{}
			hists[series] = h
			order = append(order, series)
		}
		if suffix == "_count" {
			h.count = v
			continue
		}
		if h.infLast {
			t.Fatalf("%s: bucket after +Inf", series)
		}
		if n := len(h.buckets); n > 0 && v < h.buckets[n-1] {
			t.Fatalf("%s: buckets not cumulative at %q", series, line)
		}
		h.buckets = append(h.buckets, v)
		h.infLast = strings.HasSuffix(labels, `le="+Inf"`)
	}
	for _, series := range order {
		h := hists[series]
		if !h.infLast || h.buckets[len(h.buckets)-1] != h.count {
			t.Fatalf("%s: +Inf bucket %v, _count %v", series, h.buckets, h.count)
		}
	}
}

// TestRegistryConcurrentScrape: eight goroutines observe counters and
// histograms, creating labelled series on first use, while the test
// scrapes in a loop. Every scrape is well-formed, histograms stay
// cumulative with +Inf equal to _count, no count goes backwards, and the
// last scrape holds every observation.
func TestRegistryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	total := reg.Counter("t_events_total", "Events.")
	byOp := reg.CounterVec("t_ops_total", "Ops by op.", "op")
	latency := reg.Histogram("t_latency_seconds", "Latency.", SpanBuckets)
	byRoute := reg.HistogramVec("t_route_seconds", "Latency by route and code.", []float64{0.25, 1}, "route", "code")
	reg.Collect(func(s *Scrape) {
		s.Counter("t_collected_total", "A collected counter.", total.Value())
		s.Gauge("t_gauge", "A gauge.", -3)
	})

	const workers, iters = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			route := "/r" + strconv.Itoa(g) + "/{id}"
			for i := 0; i < iters; i++ {
				total.Inc()
				byOp.With("op" + strconv.Itoa(i%5)).Add(2)
				latency.Observe(float64(i%13) * 1e-3)
				byRoute.With(route, strconv.Itoa(200+i%3)).Observe(float64(i%7) / 4)
			}
		}()
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()

	prev := map[string]float64{}
	for done := false; !done; {
		select {
		case <-finished:
			done = true
		default:
		}
		checkExposition(t, scrape(t, reg), prev)
	}
	for key, want := range map[string]float64{
		"t_events_total{}":                                   workers * iters,
		"t_collected_total{}":                                workers * iters,
		`t_ops_total{op="op0"}`:                              workers * iters / 5 * 2,
		"t_latency_seconds_count{}":                          workers * iters,
		`t_route_seconds_count{route="/r3/{id}",code="201"}`: 667,
	} {
		if prev[key] != want {
			t.Errorf("%s = %v after the last scrape, want %v", key, prev[key], want)
		}
	}
}

// TestRegistryZeroObservationScrape: every registered series renders
// before its first observation, histograms with their full bucket set.
func TestRegistryZeroObservationScrape(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("z_total", "Z.")
	reg.Histogram("z_seconds", "Z.", SpanBuckets)
	reg.HistogramVec("z_op_seconds", "Z by op.", []float64{1}, "op").With("get")
	reg.CounterVec("z_lazy_total", "Created on first use.", "op")
	want := strings.Join([]string{
		"# HELP z_total Z.", "# TYPE z_total counter", "z_total 0",
		"# HELP z_seconds Z.", "# TYPE z_seconds histogram",
		`z_seconds_bucket{le="1e-05"} 0`, `z_seconds_bucket{le="0.0001"} 0`, `z_seconds_bucket{le="0.001"} 0`,
		`z_seconds_bucket{le="0.005"} 0`, `z_seconds_bucket{le="0.02"} 0`, `z_seconds_bucket{le="0.1"} 0`,
		`z_seconds_bucket{le="0.5"} 0`, `z_seconds_bucket{le="2"} 0`, `z_seconds_bucket{le="10"} 0`,
		`z_seconds_bucket{le="+Inf"} 0`, "z_seconds_sum 0", "z_seconds_count 0",
		"# HELP z_op_seconds Z by op.", "# TYPE z_op_seconds histogram",
		`z_op_seconds_bucket{op="get",le="1"} 0`, `z_op_seconds_bucket{op="get",le="+Inf"} 0`,
		`z_op_seconds_sum{op="get"} 0`, `z_op_seconds_count{op="get"} 0`,
		"# HELP z_lazy_total Created on first use.", "# TYPE z_lazy_total counter",
	}, "\n") + "\n"
	if got := scrape(t, reg); got != want {
		t.Fatalf("scrape:\n%s\nwant:\n%s", got, want)
	}
}

// TestObserveZeroAlloc pins the observation path at zero allocations:
// counters and histograms on a resolved series, and With on an existing
// one-label series.
func TestObserveZeroAlloc(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a_total", "A.")
	h := reg.Histogram("a_seconds", "A.", SpanBuckets)
	cv := reg.CounterVec("b_total", "B.", "path")
	hv := reg.HistogramVec("b_seconds", "B.", SpanBuckets, "path")
	path := "/v1/sessions/{id}"
	cv.With(path)
	hv.With(path)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Histogram.Observe", func() { h.Observe(0.003) }},
		{"CounterVec.With", func() { cv.With(path).Inc() }},
		{"HistogramVec.With", func() { hv.With(path).Observe(0.5) }},
	} {
		if n := testing.AllocsPerRun(100, tc.f); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, n)
		}
	}
}
