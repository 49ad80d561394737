package main

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand/v2"
	"os"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/service"
	"repro/internal/spec"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct{ n, pct int }{
		{1000, 99}, {5000, 99}, {999, 98}, {100, 90}, {129, 92}, {50, 80}, {20, 50},
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n)
		if !ok || p != c.pct {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d", c.n, p, ok, c.pct)
		}
		if b := beyond(c.n, p); b < 10 {
			t.Errorf("n=%d p%d leaves %d samples beyond, want >= 10", c.n, p, b)
		}
		if p < 99 && beyond(c.n, p+1) >= 10 {
			t.Errorf("n=%d: p%d is not the highest percentile with 10 beyond", c.n, p)
		}
	}
	for _, n := range []int{0, 10, 19} {
		if _, ok := tailPercentile(n); ok {
			t.Errorf("tailPercentile(%d) found a percentile with 10 samples beyond", n)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	tl, err := tailOf(sorted)
	if err != nil || tl.value != 90 || tl.pct != 90 || tl.beyond != 10 {
		t.Errorf("tailOf(1..100) = %+v, %v; want p90 = 90 with 10 beyond", tl, err)
	}
}

func TestClosedLoopCountsEveryAttempt(t *testing.T) {
	const ops = 400
	var sent atomic.Int64
	next := func(int) (int, bool) {
		k := int(sent.Add(1)) - 1
		return k, k < ops
	}
	do := func(c, op int) error {
		time.Sleep(time.Duration(rand.IntN(200)) * time.Microsecond)
		if op%7 == 3 {
			return errors.New("rejected")
		}
		return nil
	}
	ph := closedLoop(3, time.Time{}, next, do)
	if ph.attempted != ops || len(ph.samples) != ops {
		t.Fatalf("attempted %d, samples %d; want %d", ph.attempted, len(ph.samples), ops)
	}
	wantFailed := 0
	for op := range ops {
		if op%7 == 3 {
			wantFailed++
		}
	}
	if ph.failed != wantFailed || ph.succeeded()+ph.failed != ph.attempted {
		t.Fatalf("failed %d succeeded %d attempted %d; want %d failed", ph.failed, ph.succeeded(), ph.attempted, wantFailed)
	}
	if ph.firstErr == nil {
		t.Fatal("a failing op left no error")
	}

	// With a deadline, the ops in flight when it passes still count once.
	sent.Store(0)
	ph = closedLoop(2, time.Now().Add(20*time.Millisecond), func(int) (int, bool) {
		return int(sent.Add(1)) - 1, true
	}, do)
	if ph.attempted != int(sent.Load()) || ph.succeeded()+ph.failed != ph.attempted {
		t.Fatalf("deadline run: attempted %d, handed out %d, succeeded %d, failed %d", ph.attempted, sent.Load(), ph.succeeded(), ph.failed)
	}
}

// fakeWorkload generates slowly and sets up quickly.
type fakeWorkload struct{ setupDelay time.Duration }

type fakeSystem struct{}

func (w *fakeWorkload) setup(string, *tracer) (system, error) {
	time.Sleep(w.setupDelay)
	return fakeSystem{}, nil
}

func (fakeSystem) measure(deadline time.Time) phase {
	var ops atomic.Int64
	return closedLoop(clientsN, deadline, func(int) (int, bool) { return int(ops.Add(1)), true }, func(int, int) error {
		time.Sleep(time.Millisecond)
		return nil
	})
}

func (fakeSystem) close() {}

func TestSetupTimeExcludesGeneration(t *testing.T) {
	const genDelay, setupDelay = 300 * time.Millisecond, 20 * time.Millisecond
	cfg := config{workload: "fake", seed: 1, seconds: 0.2, out: t.TempDir(), setups: 3}
	res, info, err := execute(cfg, func(*tracer) (workload, error) {
		time.Sleep(genDelay)
		return &fakeWorkload{setupDelay: setupDelay}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	setup := res.Metrics["setup_s"].Value
	if setup < setupDelay.Seconds() || setup >= genDelay.Seconds() {
		t.Fatalf("setup_s = %v, want set-up time only (>= %v, < the %v generation)", setup, setupDelay, genDelay)
	}
	if g := info["generate_s"].(float64); g < genDelay.Seconds() {
		t.Fatalf("generate_s = %v, want >= %v", g, genDelay)
	}
	// A measured phase the hypervisor disturbed is repeated on one more
	// set-up.
	attempts := len(info["host_steal_frac"].([]float64))
	if n := len(info["setup_s_each"].([]float64)); n != 2+attempts {
		t.Fatalf("setup_s_each = %v after %d measured attempts, want %d set-ups", info["setup_s_each"], attempts, 2+attempts)
	}
	if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
		t.Fatalf("fake run result %+v", res)
	}
}

// runDry measures a set-up system until its generated ops run out.
func runDry(t *testing.T, w workload) phase {
	t.Helper()
	sys, err := w.setup(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	return sys.measure(time.Now().Add(time.Minute))
}

func TestSessionsCorruptExpectedReplyFails(t *testing.T) {
	w, err := newSessionsWorkload(7, 4, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.sessions[1].batches[2].want ^= 1
	ph := runDry(t, w)
	if ph.attempted != 12 || ph.failed != 1 || ph.succeeded()+ph.failed != ph.attempted {
		t.Fatalf("attempted %d, failed %d (first error %v); want 12 attempted, 1 failed", ph.attempted, ph.failed, ph.firstErr)
	}
	for _, s := range ph.samples {
		if s.failed != (s.op == 2*4+1) {
			t.Fatalf("op %d failed=%v; only op %d's expected reply was corrupted", s.op, s.failed, 2*4+1)
		}
	}
}

func TestRecoverCorruptExpectedReplyFails(t *testing.T) {
	w, err := newRecoverWorkload(7, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := w.setup(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.close()
	w.sessions[2].last.Decision.Chunk++
	ph := sys.measure(time.Now().Add(time.Millisecond))
	if ph.attempted != 4 || ph.failed != 1 {
		t.Fatalf("attempted %d, failed %d (first error %v); want one round of 4 with 1 failed", ph.attempted, ph.failed, ph.firstErr)
	}
}

func TestEvaluateCorruptReplyFails(t *testing.T) {
	w, err := newEvaluateWorkload(3)
	if err != nil {
		t.Fatal(err)
	}
	// Documents 3 and 5 are single-processor scenarios that evaluate in
	// milliseconds. Both get the reply the program gives; then one
	// number in op 5's reply is changed.
	eng := engine.New(engine.Config{Cache: engine.NewCache(0)})
	var ph phase
	w.replies = make([]*service.EvaluateResponse, len(w.docs))
	for _, op := range []int{3, 5} {
		d := w.docs[op]
		res, err := spec.EvaluateOne(context.Background(), eng, d.es)
		if err != nil {
			t.Fatal(err)
		}
		cell, err := renderCell(d.es, res)
		if err != nil {
			t.Fatal(err)
		}
		hash, err := spec.CanonicalHash(d.es)
		if err != nil {
			t.Fatal(err)
		}
		w.replies[op] = &service.EvaluateResponse{Hash: hash, Cell: cell}
		ph.samples = append(ph.samples, sample{op: op})
		ph.attempted++
	}
	w.replies[5].Cell.Rows[0].MakespanSec.Mean *= 1.0000001
	w.checkReplies(&ph, nil)
	if ph.failed != 1 || ph.samples[0].failed || !ph.samples[1].failed {
		t.Fatalf("failed %d, samples %+v (first error %v); want only op 5 failed", ph.failed, ph.samples, ph.firstErr)
	}
}

func TestBenchmarkJSONListsEveryPrintedMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", names, workloads)
	}

	var ph phase
	for i := range 20 {
		ph.samples = append(ph.samples, sample{op: i, lat: time.Millisecond})
		ph.attempted++
	}
	ph.wall = time.Second
	e2e, err := endToEnd(ph, 1, 1, map[string]any{})
	if err != nil {
		t.Fatal(err)
	}
	if len(e2e) != len(bench.EndToEnd) {
		t.Errorf("the benchmark prints %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e), len(bench.EndToEnd))
	}
	for _, m := range bench.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): printed as %+v, %v", m.Name, m.Unit, got, ok)
		}
	}
	if len(layerMetrics) != len(bench.PerLayer) {
		t.Fatalf("the benchmark prints %d per-layer metrics, BENCHMARK.json lists %d", len(layerMetrics), len(bench.PerLayer))
	}
	for i, m := range bench.PerLayer {
		if layerMetrics[i].name != m.Name || layerMetrics[i].unit != m.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), printed %s (%s)", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
