package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"repro/internal/exper"
	"repro/internal/harness"
	"repro/internal/platform"
	"repro/internal/spec"
	"repro/internal/store"
)

// maxSpecBytes bounds request bodies; empirical-law specs carry sample
// arrays, everything else is tiny.
const maxSpecBytes = 16 << 20

// Stats is the JSON form of a sample summary.
type Stats struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	N    int     `json:"n"`
}

func statsJSON(s harness.Stats) *Stats {
	if s.N == 0 {
		return nil
	}
	return &Stats{Mean: s.Mean, Std: s.Std, Min: s.Min, Max: s.Max, N: s.N}
}

// Row is the JSON form of one policy's aggregated results.
type Row struct {
	Name        string `json:"name"`
	LowerBound  bool   `json:"lowerBound,omitempty"`
	Skipped     string `json:"skipped,omitempty"`
	Degradation *Stats `json:"degradation,omitempty"`
	MakespanSec *Stats `json:"makespanSec,omitempty"`
	Failures    *Stats `json:"failures,omitempty"`
}

// Cell is the JSON form of one evaluated experiment cell. Text is the
// cell's rendered table — byte-identical to what `chkpt-tables -spec`
// prints for the same cell, including the trailing blank line, so
// concatenating a sweep's Text fields reproduces the batch stdout.
type Cell struct {
	Index int    `json:"index"`
	Name  string `json:"name"`
	Title string `json:"title"`
	Rows  []Row  `json:"rows"`
	Text  string `json:"text"`
}

// SweepTrailer is the terminal NDJSON event of a sweep stream: done with
// the cell count, or the error that ended the stream.
type SweepTrailer struct {
	Done  bool   `json:"done"`
	Cells int    `json:"cells"`
	Error string `json:"error,omitempty"`
}

// EvaluateResponse is the POST /v1/evaluate payload.
type EvaluateResponse struct {
	// Hash is the spec's canonical hash — the coalescing (and any future
	// persistent-cache) key.
	Hash string `json:"hash"`
	// Coalesced reports that this request joined another request's run.
	Coalesced bool `json:"coalesced"`
	Cell      Cell `json:"cell"`
}

// Recommendation is the winning policy of a /v1/recommend evaluation.
type Recommendation struct {
	Policy string `json:"policy"`
	// PeriodSec is the fixed checkpointing period for periodic winners
	// (absent for the dynamic programs).
	PeriodSec           float64 `json:"periodSec,omitempty"`
	AvgDegradation      float64 `json:"avgDegradation"`
	ExpectedMakespanSec float64 `json:"expectedMakespanSec"`
}

// RecommendResponse is the GET /v1/recommend payload.
type RecommendResponse struct {
	Hash      string            `json:"hash"`
	Coalesced bool              `json:"coalesced"`
	Scenario  spec.ScenarioSpec `json:"scenario"`
	Best      Recommendation    `json:"best"`
	Rows      []Row             `json:"rows"`
}

// RegistryResponse enumerates the spec registries.
type RegistryResponse struct {
	Dists     []string `json:"dists"`
	Policies  []string `json:"policies"`
	Platforms []string `json:"platforms"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// statusClientClosedRequest is the de-facto (nginx) status for "the
// client went away": a hangup is not a server error, and mapping it to
// 5xx would pollute error-rate alerting.
const statusClientClosedRequest = 499

// errorStatus maps an evaluation error to an HTTP status. A remote
// store backend being unreachable is a transient outage, not a bug in
// this replica: 503 tells the client (and any load balancer in front)
// to retry, where 500 would page the wrong people.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, errOverload):
		return http.StatusTooManyRequests
	case errors.Is(err, store.ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleRegistry(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, RegistryResponse{
		Dists:     spec.DistFamilies(),
		Policies:  spec.PolicyKinds(),
		Platforms: spec.PlatformNames(),
	})
}

// decodeSpec reads and strict-decodes the request body into an
// experiment spec, surfacing unknown fields and structural problems as
// one descriptive error.
func decodeSpec(w http.ResponseWriter, r *http.Request) (*spec.ExperimentSpec, error) {
	return spec.DecodeExperiment(http.MaxBytesReader(w, r.Body, maxSpecBytes))
}

// evaluateCoalesced runs one expanded cell through the coalescer:
// concurrent requests whose specs hash equal share one engine run. The
// run executes under the server's detached run context, so a
// disconnecting waiter never cancels work other waiters share.
func (s *Server) evaluateCoalesced(ctx context.Context, hash string, cell spec.Cell) (spec.CellResult, bool, error) {
	v, shared, err := s.coal.do(ctx, hash, func() (any, error) {
		runCtx, cancel := s.runContext(ctx)
		defer cancel()
		if err := s.adm.acquire(runCtx); err != nil {
			return nil, err
		}
		defer s.adm.release()
		s.met.coalesceRuns.Inc()
		if s.evalGate != nil {
			s.evalGate()
		}
		res, err := spec.RunCell(runCtx, s.eng, cell)
		if err != nil {
			return nil, err
		}
		return res, nil
	})
	if shared {
		s.met.coalesceHits.Inc()
	}
	if err != nil {
		return spec.CellResult{}, shared, err
	}
	return v.(spec.CellResult), shared, nil
}

// makeCell renders one completed cell into its JSON form.
func makeCell(table string, res spec.CellResult) (Cell, error) {
	t, err := exper.RenderCell(table, res)
	if err != nil {
		return Cell{}, err
	}
	var sb strings.Builder
	if err := t.WriteText(&sb); err != nil {
		return Cell{}, err
	}
	sb.WriteByte('\n') // the batch tools' blank line between cells
	cell := Cell{
		Index: res.Index,
		Name:  res.Spec.Name,
		Title: t.Title,
		Text:  sb.String(),
	}
	for _, row := range res.Eval.Rows() {
		r := Row{Name: row.Name, LowerBound: row.LowerBound, Skipped: row.Skipped}
		if row.Skipped == "" {
			r.Degradation = statsJSON(row.Degradation)
			r.MakespanSec = statsJSON(row.Makespan)
			r.Failures = statsJSON(row.Failures)
		}
		cell.Rows = append(cell.Rows, r)
	}
	return cell, nil
}

// decodeStatus distinguishes an over-limit body (413) from a malformed
// spec (400), so clients know whether to fix the JSON or shrink it.
func decodeStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	es, err := decodeSpec(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	resp, _, code, err := s.evaluateSpec(r.Context(), es)
	if err != nil {
		writeError(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// evaluateSpec is the shared core of /v1/evaluate and /v1/recommend:
// pre-flight the single-cell experiment, hash it, run it coalesced. The
// raw cell result rides along for consumers that need the compiled
// candidate set (the recommend handler reads the winner's period off it).
func (s *Server) evaluateSpec(ctx context.Context, es *spec.ExperimentSpec) (*EvaluateResponse, spec.CellResult, int, error) {
	cells, err := validateSpec(es)
	if err != nil {
		return nil, spec.CellResult{}, http.StatusBadRequest, err
	}
	if len(cells) != 1 {
		return nil, spec.CellResult{}, http.StatusBadRequest,
			fmt.Errorf("service: experiment %q expands to %d cells; /v1/evaluate takes exactly one (stream grids with /v1/sweep)", es.Name, len(cells))
	}
	hash, err := spec.CanonicalHash(es)
	if err != nil {
		return nil, spec.CellResult{}, http.StatusBadRequest, err
	}
	res, shared, err := s.evaluateCoalesced(ctx, hash, cells[0])
	if err != nil {
		if errors.Is(err, errOverload) {
			s.met.rejected.Inc()
		}
		return nil, spec.CellResult{}, errorStatus(err), err
	}
	cell, err := makeCell(es.Table, res)
	if err != nil {
		return nil, spec.CellResult{}, http.StatusInternalServerError, err
	}
	return &EvaluateResponse{Hash: hash, Coalesced: shared, Cell: cell}, res, http.StatusOK, nil
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	es, err := decodeSpec(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	// Pre-flight every cell: a sweep that can only fail must answer 400
	// before the 200 + NDJSON stream starts, like /v1/evaluate does.
	cells, err := validateSpec(es)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		if errors.Is(err, errOverload) {
			s.met.rejected.Inc()
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, errorStatus(err), err)
		return
	}
	defer s.adm.release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)

	n := 0
	var streamErr error
	writeFailed := false
	for res, err := range spec.RunCells(ctx, s.eng, cells) {
		if err != nil {
			streamErr = err
			break
		}
		cell, err := makeCell(es.Table, res)
		if err != nil {
			streamErr = err
			break
		}
		if err := enc.Encode(cell); err != nil {
			// A write error is the other face of a client disconnect:
			// breaking out of the range stops the engine workers.
			streamErr, writeFailed = err, true
			break
		}
		_ = rc.Flush()
		n++
	}
	if streamErr != nil {
		if writeFailed || errors.Is(streamErr, context.Canceled) {
			// The client went away mid-stream (seen as a cancelled
			// request context or as a failed write) and the sweep
			// stopped. Nobody is listening for a trailer.
			s.met.sweepCancelled.Inc()
			return
		}
		_ = enc.Encode(SweepTrailer{Cells: n, Error: streamErr.Error()})
		return
	}
	_ = enc.Encode(SweepTrailer{Done: true, Cells: n})
}

// queryFloat parses an optional float query parameter.
func queryFloat(q map[string][]string, key string) (float64, bool, error) {
	vs, ok := q[key]
	if !ok || len(vs) == 0 {
		return 0, false, nil
	}
	f, err := strconv.ParseFloat(vs[0], 64)
	if err != nil {
		return 0, false, fmt.Errorf("service: query parameter %s=%q is not a number", key, vs[0])
	}
	return f, true, nil
}

func queryInt(q map[string][]string, key string, def int) (int, error) {
	vs, ok := q[key]
	if !ok || len(vs) == 0 {
		return def, nil
	}
	n, err := strconv.Atoi(vs[0])
	if err != nil {
		return 0, fmt.Errorf("service: query parameter %s=%q is not an integer", key, vs[0])
	}
	return n, nil
}

// handleRecommend answers the scheduler question directly: given this
// platform, failure law and job, which policy and period should I use?
// The query compiles to a single-cell experiment spec over the standard
// §4.1 policy set, runs through the same coalesced path as /v1/evaluate,
// and reports the lowest-average-degradation policy.
//
// Parameters: platform (preset name), p, mtbf (seconds), family, shape,
// work/c/d/r (platform overrides, seconds), traces, seed, quanta,
// periodlb (1 enables the numerical period search).
// recommendParams are the recognized /v1/recommend query keys. Unknown
// keys are rejected, mirroring the spec documents' strict decode: a
// typo'd parameter must fail loudly, not silently evaluate a default.
var recommendParams = map[string]bool{
	"platform": true, "p": true, "mtbf": true, "family": true, "shape": true,
	"work": true, "c": true, "d": true, "r": true,
	"traces": true, "seed": true, "quanta": true, "periodlb": true,
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	// Sorted keys: with several unknown parameters the complaint must
	// name the same one on every request, not vary with map order.
	for _, key := range slices.Sorted(maps.Keys(q)) {
		if !recommendParams[key] {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("service: unknown query parameter %q (have: platform, p, mtbf, family, shape, work, c, d, r, traces, seed, quanta, periodlb)", key))
			return
		}
	}

	preset := q.Get("platform")
	if preset == "" {
		preset = "petascale"
	}
	family := strings.ToLower(q.Get("family"))
	switch family {
	case "":
		family = "exponential"
	case "exp":
		family = "exponential"
	}
	shape, shapeSet, err := queryFloat(q, "shape")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A shape for a shapeless family means the caller asked about a
	// different law than the one we would evaluate — refuse, don't guess.
	if shapeSet && family != "weibull" && family != "gamma" && family != "lognormal" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: family %q takes no shape parameter (weibull, gamma and lognormal do)", family))
		return
	}
	mtbf, mtbfSet, err := queryFloat(q, "mtbf")
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// A present-but-nonsensical override must fail loudly, never fall
	// back to the preset value.
	if mtbfSet && mtbf <= 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("service: query parameter mtbf=%g must be > 0", mtbf))
		return
	}
	p, err := queryInt(q, "p", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	traces, err := queryInt(q, "traces", 20)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	seed, err := queryInt(q, "seed", 42)
	if err != nil || seed < 0 {
		if err == nil {
			err = fmt.Errorf("service: query parameter seed=%d must be >= 0", seed)
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	quanta, err := queryInt(q, "quanta", 60)
	if err != nil || quanta <= 0 {
		// A non-positive resolution would silently drop DPNextFailure
		// from the evaluated set — refuse instead (the default is 60).
		if err == nil {
			err = fmt.Errorf("service: query parameter quanta=%d must be > 0", quanta)
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}

	ref := spec.PlatformRef{Preset: preset}
	if mtbf > 0 {
		ref.MTBF = mtbf
	}
	plat, err := ref.Build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// C/D/R/work overrides turn the preset into a custom platform, so the
	// spec still states exactly what ran. Fixed order: with several bad
	// overrides the 400 must name the same parameter on every request.
	override := false
	overrides := []struct {
		key string
		dst *float64
	}{{"c", &plat.CBase}, {"r", &plat.RBase}, {"d", &plat.D}, {"work", &plat.W}}
	for _, o := range overrides {
		key, dst := o.key, o.dst
		v, ok, err := queryFloat(q, key)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		if ok {
			*dst = v
			override = true
		}
	}
	if override {
		ref = spec.PlatformRef{Custom: &spec.PlatformCustom{
			Name:         plat.Name,
			PTotal:       plat.PTotal,
			ProcsPerUnit: plat.ProcsPerUnit,
			D:            plat.D,
			CBase:        plat.CBase,
			RBase:        plat.RBase,
			MTBF:         plat.MTBF,
			W:            plat.W,
		}}
	}
	if p == 0 {
		p = plat.PTotal
	}

	ds := spec.DistSpec{Family: family}
	switch family {
	case "weibull", "gamma":
		ds.Shape = shape
	case "lognormal":
		ds.Sigma = shape
	}

	std := &spec.StandardSpec{
		DPNextFailureQuanta: quanta,
		IncludeLiu:          true,
		IncludeBouguerra:    true,
	}
	switch q.Get("periodlb") {
	case "1", "true":
		std.PeriodLB = &spec.PeriodLBSpec{}
	case "", "0", "false":
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: query parameter periodlb=%q must be 0/false or 1/true", q.Get("periodlb")))
		return
	}

	// The chkpt-sim horizon convention: the paper's 11-year window plus
	// generous room for a degraded run of the failure-free time.
	wk := platform.Work{Model: platform.WorkEmbarrassing}
	horizon := 11*platform.Year + 20*wk.Time(plat.W, p)

	es := &spec.ExperimentSpec{
		Name: "recommend",
		Scenario: &spec.ScenarioSpec{
			Name:     fmt.Sprintf("%s-p=%d-%s", plat.Name, p, family),
			Platform: ref,
			P:        p,
			Dist:     ds,
			Horizon:  horizon,
			Start:    platform.Year,
			Traces:   traces,
			Seed:     uint64(seed),
		},
		Candidates: spec.CandidatesSpec{Standard: std},
	}

	resp, res, code, err := s.evaluateSpec(r.Context(), es)
	if err != nil {
		writeError(w, code, err)
		return
	}
	best, err := recommendation(resp.Cell.Rows)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// The evaluation recorded every periodic candidate's period, so a
	// periodic winner carries it without rebuilding anything.
	if period, ok := res.Periods[best.Policy]; ok {
		best.PeriodSec = period
	}
	writeJSON(w, http.StatusOK, &RecommendResponse{
		Hash:      resp.Hash,
		Coalesced: resp.Coalesced,
		Scenario:  *es.Scenario,
		Best:      best,
		Rows:      resp.Cell.Rows,
	})
}

// recommendation picks the lowest-average-degradation runnable policy.
func recommendation(rows []Row) (Recommendation, error) {
	var best *Row
	for i := range rows {
		r := &rows[i]
		if r.LowerBound || r.Skipped != "" || r.Degradation == nil {
			continue
		}
		if best == nil || r.Degradation.Mean < best.Degradation.Mean {
			best = r
		}
	}
	if best == nil {
		return Recommendation{}, errors.New("service: no runnable policy in the evaluation")
	}
	rec := Recommendation{
		Policy:         best.Name,
		AvgDegradation: best.Degradation.Mean,
	}
	if best.MakespanSec != nil {
		rec.ExpectedMakespanSec = best.MakespanSec.Mean
	}
	return rec, nil
}
