package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/exper"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/spec"
	"repro/internal/store"
)

// evalDocs is how many evaluation documents a run generates: more than a
// run can send, so a client runs dry only if the program gets several
// times faster.
const evalDocs = 2000

// evalScenarios is the grid of paper scenarios the documents cycle
// through, without their seeds.
func evalScenarios() []spec.ScenarioSpec {
	var out []spec.ScenarioSpec
	for _, mtbf := range []float64{platform.Hour, platform.Day, platform.Week} {
		for _, k := range []float64{0.5, 0.7} {
			out = append(out, spec.ScenarioSpec{
				Name:     fmt.Sprintf("oneproc-mtbf=%gh-k=%g", mtbf/platform.Hour, k),
				Platform: spec.PlatformRef{Preset: "oneproc", MTBF: mtbf},
				P:        1,
				Dist:     spec.DistSpec{Family: "weibull", Shape: k},
				Horizon:  2 * platform.Year,
				Traces:   2,
			})
		}
	}
	for _, p := range []int{1024, 4096} {
		for _, k := range []float64{0.5, 0.7} {
			out = append(out, spec.ScenarioSpec{
				Name:     fmt.Sprintf("petascale-p=%d-k=%g", p, k),
				Platform: spec.PlatformRef{Preset: "petascale"},
				P:        p,
				Dist:     spec.DistSpec{Family: "weibull", Shape: k},
				Horizon:  11 * platform.Year,
				Start:    platform.Year,
				Traces:   2,
			})
		}
	}
	return out
}

// evalCandidates is the standard candidate set every document asks for.
var evalCandidates = spec.CandidatesSpec{Standard: &spec.StandardSpec{
	DPNextFailureQuanta: 30,
	DPMakespanQuanta:    30,
	IncludeLiu:          true,
	IncludeBouguerra:    true,
	PeriodLB:            &spec.PeriodLBSpec{EvalTraces: 2, GeometricSteps: 8, LinearSteps: 4},
}}

// evalDoc is one /v1/evaluate request.
type evalDoc struct {
	es   *spec.ExperimentSpec
	body []byte
}

// evaluateWorkload asks one durable replica for policy rankings of paper
// scenarios: the paper's evaluation path.
type evaluateWorkload struct {
	warmups []evalDoc // one per scenario, seeds outside the measured range
	docs    []evalDoc // op i evaluates docs[i]
	// replies holds each measured op's reply for the check after the run.
	replies []*service.EvaluateResponse
}

func newEvaluateWorkload(seed uint64) (*evaluateWorkload, error) {
	rng := rand.New(rand.NewPCG(seed, 0xe7a1))
	used := map[uint64]bool{}
	fresh := func() uint64 {
		for {
			if s := rng.Uint64(); s != 0 && !used[s] {
				used[s] = true
				return s
			}
		}
	}
	scs := evalScenarios()
	doc := func(name string, sc spec.ScenarioSpec, seed uint64) (evalDoc, error) {
		sc.Seed = seed
		es := &spec.ExperimentSpec{Name: name, Scenario: &sc, Candidates: evalCandidates}
		body, err := json.Marshal(es)
		return evalDoc{es: es, body: body}, err
	}
	w := &evaluateWorkload{}
	for i, sc := range scs {
		used[uint64(i+1)] = true
		d, err := doc(fmt.Sprintf("warmup-%d", i), sc, uint64(i+1))
		if err != nil {
			return nil, err
		}
		w.warmups = append(w.warmups, d)
	}
	for i := range evalDocs {
		d, err := doc(fmt.Sprintf("eval-%d", i), scs[i%len(scs)], fresh())
		if err != nil {
			return nil, err
		}
		w.docs = append(w.docs, d)
	}
	return w, nil
}

type evaluateSystem struct {
	w   *evaluateWorkload
	fs  *store.FileStore
	rep *replica
	cs  clients
}

func (w *evaluateWorkload) setup(dir string, t *tracer) (system, error) {
	fs, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	s := &evaluateSystem{w: w, fs: fs, cs: newClients(clientsN)}
	if s.rep, err = startReplica(traceStore(fs, t, spanAppend, spanReplay), t); err != nil {
		s.close()
		return nil, err
	}
	q := make(queues, clientsN)
	for i := range w.warmups {
		q[i%clientsN] = append(q[i%clientsN], i)
	}
	ph := closedLoop(clientsN, time.Time{}, q.next(), func(c, i int) error {
		d := w.warmups[i]
		var got service.EvaluateResponse
		return call(s.cs[c], http.MethodPost, s.rep.ln.url+"/v1/evaluate", "warmup-"+fmt.Sprint(i), d.body, &got)
	})
	if ph.failed > 0 {
		s.close()
		return nil, fmt.Errorf("warm-up evaluations: %d of %d failed: %w", ph.failed, ph.attempted, ph.firstErr)
	}
	return s, nil
}

// measure sends fresh documents until the deadline and keeps the replies;
// checkReplies compares them after the run.
func (s *evaluateSystem) measure(deadline time.Time) phase {
	w := s.w
	w.replies = make([]*service.EvaluateResponse, len(w.docs))
	var cursor atomic.Int64
	return closedLoop(clientsN, deadline, func(int) (int, bool) {
		i := int(cursor.Add(1)) - 1
		return i, i < len(w.docs)
	}, func(c, op int) error {
		var got service.EvaluateResponse
		if err := call(s.cs[c], http.MethodPost, s.rep.ln.url+"/v1/evaluate", opID(op), w.docs[op].body, &got); err != nil {
			return err
		}
		w.replies[op] = &got
		return nil
	})
}

func (s *evaluateSystem) close() {
	s.rep.close()
	s.cs.closeIdle()
	if s.fs != nil {
		s.fs.Close()
	}
}

// renderCell renders an in-process result the way the service renders
// a cell.
func renderCell(es *spec.ExperimentSpec, res spec.CellResult) (service.Cell, error) {
	t, err := exper.RenderCell(es.Table, res)
	if err != nil {
		return service.Cell{}, err
	}
	var sb strings.Builder
	if err := t.WriteText(&sb); err != nil {
		return service.Cell{}, err
	}
	sb.WriteByte('\n')
	cell := service.Cell{Index: res.Index, Name: res.Spec.Name, Title: t.Title, Text: sb.String()}
	for _, row := range res.Eval.Rows() {
		r := service.Row{Name: row.Name, LowerBound: row.LowerBound, Skipped: row.Skipped}
		if row.Skipped == "" {
			r.Degradation = statsOf(row.Degradation.Mean, row.Degradation.Std, row.Degradation.Min, row.Degradation.Max, row.Degradation.N)
			r.MakespanSec = statsOf(row.Makespan.Mean, row.Makespan.Std, row.Makespan.Min, row.Makespan.Max, row.Makespan.N)
			r.Failures = statsOf(row.Failures.Mean, row.Failures.Std, row.Failures.Min, row.Failures.Max, row.Failures.N)
		}
		cell.Rows = append(cell.Rows, r)
	}
	return cell, nil
}

func statsOf(mean, std, lo, hi float64, n int) *service.Stats {
	if n == 0 {
		return nil
	}
	return &service.Stats{Mean: mean, Std: std, Min: lo, Max: hi, N: n}
}

// checkEval compares a reply with the expected cell and hash.
func checkEval(d evalDoc, got *service.EvaluateResponse, want service.Cell) error {
	hash, err := spec.CanonicalHash(d.es)
	if err != nil {
		return err
	}
	if got == nil {
		return fmt.Errorf("document %s: no reply kept", d.es.Name)
	}
	if got.Hash != hash {
		return fmt.Errorf("document %s: hash %s, want %s", d.es.Name, got.Hash, hash)
	}
	gb, _ := json.Marshal(got.Cell)
	wb, _ := json.Marshal(want)
	if string(gb) != string(wb) {
		return fmt.Errorf("document %s: cell differs from spec.EvaluateOne:\n got %s\nwant %s", d.es.Name, gb, wb)
	}
	return nil
}

// checkReplies re-evaluates, in process and after the run, the document
// of every op that got a reply, and marks an op failed when its reply
// differs. When timed is set it calls timed(op, cold, warm) for each op
// instead of using the shared engine: cold evaluates on a fresh engine,
// warm evaluates the same document again on that engine, and the warm
// result is the one checked.
func (w *evaluateWorkload) checkReplies(ph *phase, timed func(op int, cold, warm time.Duration)) {
	ctx := context.Background()
	shared := engine.New(engine.Config{Cache: engine.NewCache(0)})
	workers := clientsN
	if timed != nil {
		workers = 1 // timings are taken one evaluation at a time
	}
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(ph.samples) {
					return
				}
				smp := &ph.samples[k]
				if smp.failed {
					continue
				}
				d := w.docs[smp.op]
				var res spec.CellResult
				var err error
				if timed == nil {
					res, err = spec.EvaluateOne(ctx, shared, d.es)
				} else {
					eng := engine.New(engine.Config{Cache: engine.NewCache(0)})
					t0 := time.Now()
					if _, err = spec.EvaluateOne(ctx, eng, d.es); err == nil {
						t1 := time.Now()
						res, err = spec.EvaluateOne(ctx, eng, d.es)
						timed(smp.op, t1.Sub(t0), time.Since(t1))
					}
				}
				var want service.Cell
				if err == nil {
					want, err = renderCell(d.es, res)
				}
				if err == nil {
					err = checkEval(d, w.replies[smp.op], want)
				}
				if err != nil {
					mu.Lock()
					smp.failed = true
					ph.failed++
					if ph.firstErr == nil {
						ph.firstErr = fmt.Errorf("op %d: %w", smp.op, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}
