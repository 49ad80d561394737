package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/advisor"
	"repro/internal/engine"
	"repro/internal/spec"
)

// layerMetric is one per-layer metric and the workloads that use its
// layer. On those, a traced run that records no call for it fails; on
// the others it reads 0. The zero-call guard skips the ones with no
// workloads listed.
type layerMetric struct {
	name, unit string
	on         []string
}

var (
	onSessions = []string{"sessions"}
	onRecover  = []string{"recover-cluster"}
	onEvaluate = []string{"evaluate"}
	onAll      = []string{"sessions", "recover-cluster", "evaluate"}
)

// layerMetrics lists every per-layer metric in print order.
var layerMetrics = []layerMetric{
	{"service.handler_ms_p50", "ms", onAll},
	{"service.self_ms_p50", "ms", onSessions},
	{"service.transport_ms_p50", "ms", onAll},
	{"service.eval_overhead_ms_p50", "ms", onEvaluate},
	{"advisor.observe_us_mean", "us", onSessions},
	{"advisor.decide_ms_p99", "ms", onSessions},
	{"advisor.replans_per_op", "count", onSessions},
	{"advisor.replay_ms_p50", "ms", onRecover},
	{"advisor.replay_ms_p90", "ms", onRecover},
	{"store.appends_per_op", "count", onSessions},
	{"store.append_us_p50", "us", onSessions},
	{"store.append_us_p99", "us", onSessions},
	{"store.append_busy_frac", "ratio", onSessions},
	{"store.bytes_per_op", "bytes", onSessions},
	{"store.replay_ms_p50", "ms", onRecover},
	{"store.replay_steps_per_op", "count", onRecover},
	{"cluster.rpc_ms_p50", "ms", onRecover},
	{"cluster.server_ms_p50", "ms", onRecover},
	{"cluster.wire_bytes_per_op", "bytes", onRecover},
	{"cluster.rpcs_per_op", "count", onRecover},
	{"cluster.forwarder_ms_p50", "ms", onRecover},
	{"engine.cache_hit_ratio", "ratio", onEvaluate},
	{"engine.cache_mb", "MB", onEvaluate},
	{"engine.build_ms_p50", "ms", onEvaluate},
	{"spec.cell_ms_p50", "ms", onEvaluate},
	{"spec.cell_ms_p90", "ms", onEvaluate},
	{"process.cpu_ms_per_op", "ms", onAll},
	{"process.alloc_kb_per_op", "KB", onAll},
	{"process.gc_cycles_per_kop", "count", onAll},
	{"host.calib_ms", "ms", nil},
	{"bench.trace_overhead_frac", "ratio", onAll},
}

// layers collects per-layer values with the number of samples behind
// each, and the percentile each tail value was read at.
type layers struct {
	vals map[string]float64
	n    map[string]int
	pcts map[string]int
}

func newLayers() *layers {
	return &layers{vals: map[string]float64{}, n: map[string]int{}, pcts: map[string]int{}}
}

func (l *layers) set(name string, v float64, n int) {
	l.vals[name] = v
	l.n[name] += n
}

// p50 sets a median over samples (in the metric's unit).
func (l *layers) p50(name string, vs []float64) { l.quant(name, vs, 0.5) }

func (l *layers) quant(name string, vs []float64, q float64) {
	l.set(name, quantile(sortedCopy(vs), q), len(vs))
}

// tail sets a tail by tailPercentile's rule; too few samples count as
// none, so the guard fails the run.
func (l *layers) tail(name string, vs []float64) {
	tl, err := tailOf(sortedCopy(vs))
	if err != nil {
		return
	}
	l.set(name, tl.value, tl.n)
	l.pcts[name] = tl.pct
}

// guard fails when a metric of a layer the workload uses recorded no call.
func (l *layers) guard(workload string) error {
	for _, m := range layerMetrics {
		if slices.Contains(m.on, workload) && l.n[m.name] == 0 {
			return fmt.Errorf("layer metric %s recorded no calls on %s", m.name, workload)
		}
	}
	return nil
}

// metrics returns every per-layer metric; a layer the workload does not
// use reads 0.
func (l *layers) metrics() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{l.vals[m.name], m.unit}
	}
	return out
}

func sortedCopy(vs []float64) []float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return s
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opSpans are one op's spans by name.
type opSpans map[string][]span

func (o opSpans) total(name string) time.Duration {
	var sum time.Duration
	for _, s := range o[name] {
		sum += s.dur()
	}
	return sum
}

// compute derives the workload's per-layer metrics from the traced phase.
func (l *layers) compute(name string, tp tracedPhase, t *tracer) {
	groups := t.byOp()
	ops := make([]opSpans, len(tp.ph.samples))
	for i, s := range tp.ph.samples {
		o := opSpans{}
		for _, sp := range groups[opID(s.op)] {
			o[sp.name] = append(o[sp.name], sp)
		}
		ops[i] = o
	}
	nOps := float64(len(ops))
	// The outermost server-side span: the forwarder when there is one.
	outer := spanHandler
	if name == "recover-cluster" {
		outer = spanForwarder
	}
	var handler, transport []float64
	for i, o := range ops {
		if h := o[spanHandler]; len(h) > 0 {
			handler = append(handler, msOf(h[0].dur()))
		}
		if h := o[outer]; len(h) > 0 {
			transport = append(transport, msOf(tp.ph.samples[i].lat-h[0].dur()))
		}
	}
	l.p50("service.handler_ms_p50", handler)
	l.p50("service.transport_ms_p50", transport)

	switch name {
	case "sessions":
		l.sessions(ops, tp, nOps)
	case "recover-cluster":
		l.recover(ops, nOps)
	case "evaluate":
		l.evaluate(ops, tp, nOps)
	}
}

func (l *layers) sessions(ops []opSpans, tp tracedPhase, nOps float64) {
	var self, observe, decide, appends []float64
	var appendCount int
	var busy time.Duration
	for _, o := range ops {
		for _, s := range o[spanObserve] {
			observe = append(observe, float64(s.dur())/float64(time.Microsecond))
		}
		for _, s := range o[spanDecide] {
			decide = append(decide, msOf(s.dur()))
		}
		for _, s := range o[spanAppend] {
			appends = append(appends, float64(s.dur())/float64(time.Microsecond))
			busy += s.dur()
			appendCount++
		}
		if h := o[spanHandler]; len(h) > 0 {
			mirror := o.total(spanObserve) + o.total(spanDecide)
			self = append(self, msOf(selfTime(h[0], o[spanAppend])-mirror))
		}
	}
	l.p50("service.self_ms_p50", self)
	l.set("advisor.observe_us_mean", mean(observe), len(observe))
	l.tail("advisor.decide_ms_p99", decide)
	l.set("advisor.replans_per_op", float64(len(decide))/nOps, len(decide))
	l.set("store.appends_per_op", float64(appendCount)/nOps, appendCount)
	l.p50("store.append_us_p50", appends)
	l.tail("store.append_us_p99", appends)
	l.set("store.append_busy_frac", busy.Seconds()/tp.ph.wall.Seconds(), appendCount)
	l.set("store.bytes_per_op", float64(tp.storeBytes)/nOps, appendCount)
}

func (l *layers) recover(ops []opSpans, nOps float64) {
	var advReplay, stReplay, rpc, server, fwd []float64
	var steps, bytes int64
	var rpcs int
	for _, o := range ops {
		for _, s := range o[spanAdvReply] {
			advReplay = append(advReplay, msOf(s.dur()))
		}
		for _, s := range o[spanReplay] {
			stReplay = append(stReplay, msOf(s.dur()))
			steps += s.n
		}
		for _, s := range o[spanRPC] {
			rpc = append(rpc, msOf(s.dur()))
			bytes += s.n
			rpcs++
		}
		for _, s := range o[spanServer] {
			server = append(server, msOf(s.dur()))
		}
		if f := o[spanForwarder]; len(f) > 0 {
			fwd = append(fwd, msOf(selfTime(f[0], o[spanHandler])))
		}
	}
	l.p50("advisor.replay_ms_p50", advReplay)
	l.quant("advisor.replay_ms_p90", advReplay, 0.9)
	l.p50("store.replay_ms_p50", stReplay)
	l.set("store.replay_steps_per_op", float64(steps)/nOps, len(stReplay))
	l.p50("cluster.rpc_ms_p50", rpc)
	l.p50("cluster.server_ms_p50", server)
	l.set("cluster.wire_bytes_per_op", float64(bytes)/nOps, rpcs)
	l.set("cluster.rpcs_per_op", float64(rpcs)/nOps, rpcs)
	l.p50("cluster.forwarder_ms_p50", fwd)
}

func (l *layers) evaluate(ops []opSpans, tp tracedPhase, nOps float64) {
	var overhead, build, cell []float64
	for i, o := range ops {
		cold, warm := o[spanCold], o[spanWarm]
		if len(cold) == 0 || len(warm) == 0 {
			continue
		}
		build = append(build, msOf(cold[0].dur()-warm[0].dur()))
		cell = append(cell, msOf(warm[0].dur()))
		overhead = append(overhead, msOf(tp.ph.samples[i].lat-warm[0].dur()))
	}
	l.p50("service.eval_overhead_ms_p50", overhead)
	l.p50("engine.build_ms_p50", build)
	l.p50("spec.cell_ms_p50", cell)
	l.quant("spec.cell_ms_p90", cell, 0.9)
	lookups := tp.cacheHits + tp.cacheMiss
	if lookups > 0 {
		l.set("engine.cache_hit_ratio", float64(tp.cacheHits)/float64(lookups), int(lookups))
	}
	l.set("engine.cache_mb", float64(tp.cacheBytes)/(1<<20), int(lookups))
}

// timeReplays times Advisor.ReplaySession on the history each measured
// op restored, under the op's id.
func (w *recoverWorkload) timeReplays(ph phase, t *tracer) error {
	eng := engine.New(engine.Config{Cache: engine.NewCache(0)})
	advs := make([]*advisor.Advisor, len(w.sessions))
	steps := make([][]advisor.ReplayStep, len(w.sessions))
	for i, g := range w.sessions {
		adv, err := spec.CompileAdvisor(context.Background(), eng, g.spec)
		if err != nil {
			return err
		}
		advs[i], steps[i] = adv, g.steps()
	}
	for _, s := range ph.samples {
		i := w.ops[s.op]
		start := time.Now()
		_, err := advs[i].ReplaySession(nil, steps[i])
		t.add(spanAdvReply, opID(s.op), start, time.Now(), 0)
		if err != nil {
			return err
		}
	}
	return nil
}
