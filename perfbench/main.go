// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the real HTTP surface of in-process servers built
// from this checkout, checks every reply against an expected output
// generated from the seed, and prints one JSON result line.
//
//	perfbench -workload sessions|recover-cluster|evaluate -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics. With -trace 1
// the run measures the same workload twice, untraced and then with
// timing wrappers around the program's public calls and interfaces, and
// the result carries the per-layer metrics. See README.md for the
// workloads, the metrics and what each per-layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/engine"
)

// clientsN is the number of closed-loop clients (and connections).
const clientsN = 2

// workload is one benchmark workload with its inputs and expected
// outputs already generated from the seed.
type workload interface {
	// setup brings the program up on fresh state under dir, up to the
	// point where the first measured op can be sent. A non-nil tracer
	// installs the timing wrappers.
	setup(dir string, t *tracer) (system, error)
}

// system is a set-up workload.
type system interface {
	// measure drives the closed loop until the deadline.
	measure(deadline time.Time) phase
	// close stops everything setup started and removes its state.
	close()
}

// metric is one printed metric.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	spans    string
	setups   int
	runDir   string // this invocation's store directories, removed at exit
}

var workloads = []string{"sessions", "recover-cluster", "evaluate"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var trace int
	fl.StringVar(&cfg.workload, "workload", "", "workload: sessions, recover-cluster or evaluate")
	fl.Uint64Var(&cfg.seed, "seed", 1, "seed every input and expected output is generated from")
	fl.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase in seconds")
	fl.IntVar(&trace, "trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fl.StringVar(&cfg.out, "data", filepath.Join(".bench_build", "perfbench-data"), "directory the run's stores are created in")
	fl.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "perfbench-spans"), "directory traced runs write their spans to")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, cfg.workload) || (trace != 0 && trace != 1) || !(cfg.seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need -workload %v, -trace 0|1 and -seconds > 0\n", workloads)
		return 2
	}
	cfg.trace = trace == 1
	cfg.setups = defaultSetups[cfg.workload]
	res, info, err := execute(cfg, func(t *tracer) (workload, error) {
		return newWorkload(cfg.workload, cfg.seed, t)
	})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

// defaultSetups is how many times an untraced run sets its workload up.
var defaultSetups = map[string]int{"sessions": 5, "recover-cluster": 3, "evaluate": 3}

// newWorkload generates a workload's inputs and expected outputs. The
// tracer, when set, times the mirror calls made while generating.
func newWorkload(name string, seed uint64, t *tracer) (workload, error) {
	switch name {
	case "sessions":
		return newSessionsWorkload(seed, sessionsN, sessionsBatches, t)
	case "recover-cluster":
		return newRecoverWorkload(seed, recoverN, recoverBatches)
	case "evaluate":
		return newEvaluateWorkload(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// execute runs one invocation and returns its result and the run record.
// gen generates the workload; set-up time starts after it returns.
func execute(cfg config, gen func(t *tracer) (workload, error)) (*result, map[string]any, error) {
	cfg.runDir = filepath.Join(cfg.out, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.runDir, 0o755); err != nil {
		return nil, nil, err
	}
	// Stores are removed only when the run is over: deleting files on a
	// disk file system costs journal work that would land in a later
	// measured phase. Syncing the parent waits for that work here.
	defer func() {
		os.RemoveAll(cfg.runDir)
		syncDir(cfg.out)
	}()
	calibBefore := calibrate()
	info := map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"clients":      clientsN,
		"store_medium": fsMedium(cfg.out),
		"go":           runtime.Version(),
	}
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	genStart := time.Now()
	w, err := gen(t)
	if err != nil {
		return nil, nil, err
	}
	info["generate_s"] = time.Since(genStart).Seconds()
	info["heap_after_generation_mb"] = liveHeapMB()
	var res *result
	if cfg.trace {
		res, err = traced(cfg, w, t, info)
	} else {
		res, err = untraced(cfg, w, info)
	}
	if err != nil {
		return nil, nil, err
	}
	calibAfter := calibrate()
	info["calib_ms_before"] = ms(calibBefore)
	info["calib_ms_after"] = ms(calibAfter)
	if cfg.trace {
		res.Metrics["host.calib_ms"] = metric{(ms(calibBefore) + ms(calibAfter)) / 2, "ms"}
	}
	return res, info, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dataDir names set-up i's state directory.
func dataDir(cfg config, i int) string {
	return filepath.Join(cfg.runDir, fmt.Sprintf("%s-%d", cfg.workload, i))
}

// setupTimed sets the workload up and returns the system and the wall
// time setup took.
func setupTimed(w workload, dir string, t *tracer) (system, time.Duration, error) {
	start := time.Now()
	sys, err := w.setup(dir, t)
	return sys, time.Since(start), err
}

// stealLimit is the share of CPU time the hypervisor may steal during an
// untraced measured phase before the phase counts as disturbed: it is
// then discarded and measured once more on a fresh set-up.
const stealLimit = 0.03

// untraced measures the end-to-end metrics: cfg.setups set-ups (the
// last one is measured), then the closed loop, then the live heap.
func untraced(cfg config, w workload, info map[string]any) (*result, error) {
	var setupS []float64
	var sys system
	setup := func() error {
		s, d, err := setupTimed(w, dataDir(cfg, len(setupS)), nil)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", len(setupS), err)
		}
		setupS = append(setupS, d.Seconds())
		sys = s
		return nil
	}
	for i := range cfg.setups {
		if err := setup(); err != nil {
			return nil, err
		}
		if i < cfg.setups-1 {
			sys.close()
		}
	}
	var ph phase
	var heap float64
	var steals []float64
	for attempt := 0; ; attempt++ {
		// Collect the garbage of generation and earlier set-ups now, so
		// every measured phase starts from the same heap.
		runtime.GC()
		tot0, steal0 := cpuJiffies()
		ph = sys.measure(time.Now().Add(seconds(cfg.seconds)))
		tot1, steal1 := cpuJiffies()
		heap = liveHeapMB()
		sys.close()
		steal := 0.0
		if tot1 > tot0 {
			steal = float64(steal1-steal0) / float64(tot1-tot0)
		}
		steals = append(steals, steal)
		if steal <= stealLimit || attempt == 1 {
			break
		}
		if err := setup(); err != nil {
			return nil, err
		}
	}
	info["host_steal_frac"] = steals
	if ew, ok := w.(*evaluateWorkload); ok {
		ew.checkReplies(&ph, nil)
	}
	info["setup_s_each"] = setupS
	e2e, err := endToEnd(ph, median(setupS), heap, info)
	if err != nil {
		return nil, err
	}
	return &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: e2e}, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// endToEnd computes the end-to-end metrics of a measured phase and
// records the counts behind them.
func endToEnd(ph phase, setupS, heapMB float64, info map[string]any) (map[string]metric, error) {
	if ph.attempted == 0 {
		return nil, errors.New("no op completed in the measured phase")
	}
	lats := make([]time.Duration, len(ph.samples))
	for i, s := range ph.samples {
		lats[i] = s.lat
	}
	sorted := sortedMs(lats)
	tl, err := tailOf(sorted)
	if err != nil {
		return nil, fmt.Errorf("latency tail: %w", err)
	}
	info["ops"] = ph.attempted
	info["failed"] = ph.failed
	info["measured_s"] = ph.wall.Seconds()
	info["latency_samples"] = len(sorted)
	info["latency_tail_percentile"] = tl.pct
	info["latency_tail_samples_beyond"] = tl.beyond
	info["ops_exhausted"] = ph.exhausted
	if ph.firstErr != nil {
		info["first_error"] = ph.firstErr.Error()
	}
	return map[string]metric{
		"setup_s":         {setupS, "s"},
		"ops_per_s":       {ph.opsPerSec(), "1/s"},
		"latency_p50_ms":  {quantile(sorted, 0.5), "ms"},
		"latency_tail_ms": {tl.value, "ms"},
		"ok_frac":         {float64(ph.succeeded()) / float64(ph.attempted), "ratio"},
		"live_heap_mb":    {heapMB, "MB"},
	}, nil
}

// traced measures the workload twice on fresh set-ups: untraced, for the
// process counters and the tracing-overhead base, then with the timing
// wrappers on, for the per-layer metrics.
func traced(cfg config, w workload, t *tracer, info map[string]any) (*result, error) {
	sysA, _, err := setupTimed(w, dataDir(cfg, 0), nil)
	if err != nil {
		return nil, fmt.Errorf("untraced set-up: %w", err)
	}
	runtime.GC()
	before := readProc()
	phA := sysA.measure(time.Now().Add(seconds(cfg.seconds)))
	after := readProc()
	sysA.close()
	if ew, ok := w.(*evaluateWorkload); ok {
		ew.checkReplies(&phA, nil)
	}

	sysB, _, err := setupTimed(w, dataDir(cfg, 1), t)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	obsB := observeTraced(sysB, t, cfg.seconds)
	phB := obsB.ph
	sysB.close()
	for _, s := range phB.samples {
		t.add(spanClient, opID(s.op), s.start, s.start.Add(s.lat), 0)
	}
	switch w := w.(type) {
	case *evaluateWorkload:
		w.checkReplies(&phB, func(op int, cold, warm time.Duration) {
			now := time.Now()
			t.add(spanCold, opID(op), now.Add(-cold), now, 0)
			t.add(spanWarm, opID(op), now.Add(-warm), now, 0)
		})
	case *recoverWorkload:
		if err := w.timeReplays(phB, t); err != nil {
			return nil, err
		}
	}
	spansPath := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.jsonl.gz", cfg.workload, cfg.seed))
	if err := os.MkdirAll(cfg.spans, 0o755); err != nil {
		return nil, err
	}
	if err := t.write(spansPath); err != nil {
		return nil, err
	}
	info["spans_file"] = spansPath

	lv := newLayers()
	lv.compute(cfg.workload, obsB, t)
	n := float64(len(phA.samples))
	if n == 0 || len(phB.samples) == 0 {
		return nil, errors.New("a measured phase completed no op")
	}
	lv.set("process.cpu_ms_per_op", ms(after.cpu-before.cpu)/n, int(n))
	lv.set("process.alloc_kb_per_op", float64(after.allocs-before.allocs)/1024/n, int(n))
	lv.set("process.gc_cycles_per_kop", float64(after.gcCycles-before.gcCycles)*1000/n, int(n))
	lv.set("bench.trace_overhead_frac", 1-phB.opsPerSec()/phA.opsPerSec(), len(phB.samples))
	if err := lv.guard(cfg.workload); err != nil {
		return nil, err
	}
	info["ops_untraced"] = phA.attempted
	info["ops_traced"] = phB.attempted
	info["ops_per_s_untraced"] = phA.opsPerSec()
	info["ops_per_s_traced"] = phB.opsPerSec()
	info["layer_samples"] = lv.n
	info["layer_percentiles"] = lv.pcts
	for _, p := range []*phase{&phA, &phB} {
		if p.firstErr != nil {
			info["first_error"] = p.firstErr.Error()
		}
	}
	failed := phA.failed + phB.failed
	return &result{
		Correct:   failed == 0,
		Attempted: phA.attempted + phB.attempted,
		Failed:    failed,
		Metrics:   lv.metrics(),
	}, nil
}

// tracedPhase is a traced measured phase with the counters read around it.
type tracedPhase struct {
	ph                   phase
	storeBytes           int64 // store directory growth
	cacheHits, cacheMiss uint64
	cacheBytes           int64
}

// observeTraced measures a traced system, recording program-side spans
// only during the measured phase.
func observeTraced(sys system, t *tracer, secs float64) tracedPhase {
	var tp tracedPhase
	ss, isSessions := sys.(*sessionsSystem)
	es, isEval := sys.(*evaluateSystem)
	var b0 int64
	var c0 engine.CacheStats
	if isSessions {
		b0 = dirBytes(ss.storeDir())
	}
	if isEval {
		c0, _ = es.rep.eng.CacheStats()
	}
	runtime.GC()
	t.on.Store(true)
	tp.ph = sys.measure(time.Now().Add(seconds(secs)))
	t.on.Store(false)
	if isSessions {
		tp.storeBytes = dirBytes(ss.storeDir()) - b0
	}
	if isEval {
		c1, _ := es.rep.eng.CacheStats()
		tp.cacheHits, tp.cacheMiss, tp.cacheBytes = c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Bytes
	}
	return tp
}
