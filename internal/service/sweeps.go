package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/spec"
	"repro/internal/store"
)

// sweepJobPrefix namespaces job records in the result store, away from
// the cell values they index.
const sweepJobPrefix = "sweepjob:"

// sweepLeasePrefix namespaces sweep-job claims in the store's lease
// keyspace: replicas coordinate who computes a job through the lease
// on sweepLeasePrefix+jobID.
const sweepLeasePrefix = "sweeplease:"

// sweepRenewEvery is how many cells a claim holder computes between
// lease renewals. Every renewal is a durable journal append on a
// FileStore backend, so renewing per cell doubles the fsync cost of a
// sweep; renewing every few cells amortizes it. Correctness does not
// ride on the cadence — a lease that expires mid-range keeps writing
// until another replica actually reclaims it, at which point the
// fencing token (not the expiry) rejects the stragglers.
const sweepRenewEvery = 4

// SweepJobResponse describes a durable sweep job: POST /v1/sweeps
// answers it at creation (201) and resumption (200), and tests read it
// to assert zero re-runs.
type SweepJobResponse struct {
	// ID is the experiment spec's canonical hash — resubmitting the same
	// experiment addresses the same job.
	ID string `json:"id"`
	// Cells is the grid size, Completed the durably persisted prefix.
	Cells     int  `json:"cells"`
	Completed int  `json:"completed"`
	Done      bool `json:"done"`
	// Resumed reports that the job (or its completed prefix) already
	// existed in the store when this request arrived.
	Resumed bool `json:"resumed,omitempty"`
	// Error is the failure that stopped the last run, if any; a new POST
	// retries from the completed prefix.
	Error string `json:"error,omitempty"`
}

// sweepJob is the in-memory face of one durable sweep job. The store
// holds the truth (the job record and the completed cells); this struct
// holds the grid expansion, the progress watermark and the broadcast
// channel streamers wait on.
type sweepJob struct {
	id    string
	table string
	cells []spec.Cell
	keys  []string // cells[i] persists under keys[i] (CanonicalCellHash)

	mu        sync.Mutex
	completed int  // cells durably persisted — always a prefix
	running   bool // a runner goroutine is active
	err       string
	notify    chan struct{} // closed and replaced on every state change
}

// snapshot returns the job's progress under its lock.
func (j *sweepJob) snapshot() (completed int, running bool, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.completed, j.running, j.err
}

// wake closes and replaces the notify channel. Callers hold j.mu.
func (j *sweepJob) wakeLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

func (j *sweepJob) response() *SweepJobResponse {
	completed, _, errMsg := j.snapshot()
	return &SweepJobResponse{
		ID:        j.id,
		Cells:     len(j.cells),
		Completed: completed,
		Done:      completed == len(j.cells),
		Error:     errMsg,
	}
}

// sweepJobs tracks the jobs this process has materialized and the
// runner goroutines the server must drain at Close.
type sweepJobs struct {
	mu   sync.Mutex
	jobs map[string]*sweepJob
	wg   sync.WaitGroup
}

func newSweepJobs() *sweepJobs {
	return &sweepJobs{jobs: map[string]*sweepJob{}}
}

func (sj *sweepJobs) wait() { sj.wg.Wait() }

// validateSpec pre-flights an experiment for /v1/evaluate and the
// sweeps: it expands the grid and compiles every cell, so configuration
// mistakes (unknown presets or policy kinds, infeasible geometry) answer
// 400 before any engine run, stream or durable record exists.
func validateSpec(es *spec.ExperimentSpec) ([]spec.Cell, error) {
	// Cells are served one by one; a series layout renders only all of
	// them at once.
	if es.Table == "series" {
		return nil, errors.New("service: the series layout pivots all cells into one table and cannot be served per cell; use table \"degradation\" or \"spares\"")
	}
	cells, err := es.Expand()
	if err != nil {
		return nil, err
	}
	for _, cell := range cells {
		if _, err := cell.Scenario.Compile(); err != nil {
			return nil, err
		}
		if err := cell.Candidates.Validate(); err != nil {
			return nil, err
		}
	}
	return cells, nil
}

// materializeJob builds the in-memory job for an experiment: content
// addresses for every cell, plus the completed prefix probed from the
// store (the restored cells a resumed job will not re-run).
func (s *Server) materializeJob(ctx context.Context, es *spec.ExperimentSpec, hash string, cells []spec.Cell) (*sweepJob, error) {
	j := &sweepJob{
		id:     hash,
		table:  es.Table,
		cells:  cells,
		keys:   make([]string, len(cells)),
		notify: make(chan struct{}),
	}
	for i := range cells {
		key, err := spec.CanonicalCellHash(es, i)
		if err != nil {
			return nil, err
		}
		j.keys[i] = key
	}
	// Completed cells form a prefix (the runner persists in expansion
	// order), so probing forward to the first miss recovers the
	// watermark without any job-state record.
	for _, key := range j.keys {
		_, ok, err := s.st.Get(ctx, key)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		j.completed++
	}
	if j.completed > 0 {
		s.met.sweepCellsRestored.Add(uint64(j.completed))
	}
	return j, nil
}

// startJobLocked launches the runner for an incomplete, idle job.
// Callers hold j.mu.
func (s *Server) startJobLocked(j *sweepJob) {
	if j.running || j.completed == len(j.cells) {
		return
	}
	j.running = true
	j.err = ""
	s.sweeps.wg.Add(1)
	go s.runSweepJob(j)
}

// runSweepJob computes a job's missing suffix under the server-lifetime
// context: it survives the submitting client but not the server (a
// killed server resumes from the persisted prefix on the next request).
// The whole run holds one admission slot, like a streamed /v1/sweep.
func (s *Server) runSweepJob(j *sweepJob) {
	defer s.sweeps.wg.Done()
	err := s.runSweepCells(j)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.running = false
	if err != nil && s.jobsCtx.Err() == nil {
		j.err = err.Error()
	}
	j.wakeLocked()
}

// runSweepCells computes the job's missing suffix in one engine scope,
// so its cells share trace sets and post-failure grids across claimed
// ranges and drop them when the job run ends. Over a lease-capable
// store the work is claimed cell-range-by-cell-range: acquire the job's
// claim, compute up to sweepClaimCells cells — each written through
// PutLeased under the claim's fencing token, with a renewal every
// sweepRenewEvery cells — then release and re-probe. Finding the claim held
// (ErrLeaseHeld) or losing it mid-range (ErrLeaseStale) means another
// replica is working the job: this replica backs off, re-syncs its
// watermark from the store and falls in line. Completed cells therefore
// stay a prefix with zero re-runs fleet-wide.
func (s *Server) runSweepCells(j *sweepJob) error {
	if err := s.adm.acquire(s.jobsCtx); err != nil {
		return err
	}
	defer s.adm.release()
	eng := s.eng.Scope()
	ls, leased := s.st.(store.LeaseStore)
	if !leased {
		// A store without a lease face is a declared single-writer
		// deployment: run the whole suffix unguarded.
		completed, _, _ := j.snapshot()
		return s.computeCells(eng, j, completed, len(j.cells), nil, store.Lease{})
	}
	key := sweepLeasePrefix + j.id
	for {
		if err := s.syncWatermark(j); err != nil {
			return err
		}
		completed, _, _ := j.snapshot()
		if completed == len(j.cells) {
			return nil
		}
		lease, err := ls.AcquireLease(s.jobsCtx, key, s.replicaID, s.sweepLeaseTTL)
		if errors.Is(err, store.ErrLeaseHeld) {
			if err := sleepCtx(s.jobsCtx, s.sweepRetryDelay); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		// Holding the claim freezes the watermark (no other replica can
		// pass the fence), so re-sync once more and the range is exact.
		if err := s.syncWatermark(j); err != nil {
			_ = ls.ReleaseLease(s.jobsCtx, lease)
			return err
		}
		completed, _, _ = j.snapshot()
		end := min(completed+s.sweepClaimCells, len(j.cells))
		err = s.computeCells(eng, j, completed, end, ls, lease)
		_ = ls.ReleaseLease(s.jobsCtx, lease)
		if errors.Is(err, store.ErrLeaseStale) {
			// Fenced off: a reclaiming replica owns the job now. Nothing
			// this replica wrote past the fence landed; re-probe and follow.
			continue
		}
		if err != nil {
			return err
		}
	}
}

// computeCells runs cells [from, end) on eng in expansion order,
// persisting each durably before advancing the watermark. With a lease (ls
// non-nil) every write is fenced by the claim's token and the claim is
// renewed every sweepRenewEvery cells, so a replica that keeps making
// progress keeps its claim without paying a journal append per cell.
func (s *Server) computeCells(eng *engine.Engine, j *sweepJob, from, end int, ls store.LeaseStore, lease store.Lease) error {
	for res, err := range spec.RunCells(s.jobsCtx, eng, j.cells[from:end]) {
		if err != nil {
			return err
		}
		cell, err := makeCell(j.table, res)
		if err != nil {
			return err
		}
		// Compact encoding: streaming these stored bytes verbatim is
		// byte-identical to what /v1/sweep's NDJSON encoder emits.
		b, err := json.Marshal(cell)
		if err != nil {
			return err
		}
		if ls != nil {
			err = ls.PutLeased(s.jobsCtx, lease, j.keys[res.Index], b)
		} else {
			err = s.st.Put(s.jobsCtx, j.keys[res.Index], b)
		}
		if err != nil {
			return err
		}
		s.met.sweepCellsComputed.Inc()
		j.mu.Lock()
		j.completed = res.Index + 1
		j.wakeLocked()
		j.mu.Unlock()
		if ls != nil && (res.Index+1-from)%sweepRenewEvery == 0 {
			if err := ls.RenewLease(s.jobsCtx, lease, s.sweepLeaseTTL); err != nil {
				return err
			}
		}
	}
	return nil
}

// syncWatermark advances the in-memory watermark over cells other
// replicas persisted. Completed cells always form a prefix, so probing
// forward to the first miss is exact; newly discovered cells count as
// restored, never computed.
func (s *Server) syncWatermark(j *sweepJob) error {
	completed, _, _ := j.snapshot()
	n := 0
	for i := completed; i < len(j.cells); i++ {
		_, ok, err := s.st.Get(s.jobsCtx, j.keys[i])
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n++
	}
	if n == 0 {
		return nil
	}
	s.met.sweepCellsRestored.Add(uint64(n))
	j.mu.Lock()
	if completed+n > j.completed {
		j.completed = completed + n
		j.wakeLocked()
	}
	j.mu.Unlock()
	return nil
}

// sleepCtx waits for d or the context, whichever ends first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// getJob finds (or rebuilds from the store) the job named by id. A
// missing id answers (nil, nil).
func (s *Server) getJob(ctx context.Context, id string) (*sweepJob, error) {
	s.sweeps.mu.Lock()
	defer s.sweeps.mu.Unlock()
	if j, ok := s.sweeps.jobs[id]; ok {
		return j, nil
	}
	val, ok, err := s.st.Get(ctx, sweepJobPrefix+id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, nil
	}
	es, err := spec.DecodeExperiment(bytes.NewReader(val))
	if err != nil {
		return nil, fmt.Errorf("service: sweep job %s: corrupt job record: %w", id, err)
	}
	cells, err := validateSpec(es)
	if err != nil {
		return nil, fmt.Errorf("service: sweep job %s: %w", id, err)
	}
	j, err := s.materializeJob(ctx, es, id, cells)
	if err != nil {
		return nil, err
	}
	s.sweeps.jobs[id] = j
	s.met.sweepJobsResumed.Inc()
	return j, nil
}

// handleSweepJobCreate (POST /v1/sweeps) turns a sweep into a durable
// job: the spec is journaled under its canonical hash before the 201,
// cells persist as they complete, and re-submitting an identical spec
// re-runs only the missing suffix (zero cells, once complete).
func (s *Server) handleSweepJobCreate(w http.ResponseWriter, r *http.Request) {
	es, err := decodeSpec(w, r)
	if err != nil {
		writeError(w, decodeStatus(err), err)
		return
	}
	cells, err := validateSpec(es)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	hash, err := spec.CanonicalHash(es)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	s.sweeps.mu.Lock()
	j, known := s.sweeps.jobs[hash]
	resumed := known
	if !known {
		// Not materialized in this process — the job still counts as
		// resumed if a previous life journaled it.
		if _, ok, err := s.st.Get(r.Context(), sweepJobPrefix+hash); err != nil {
			s.sweeps.mu.Unlock()
			writeError(w, errorStatus(err), err)
			return
		} else if ok {
			resumed = true
		} else {
			// Journal the job before acknowledging it: the canonical spec
			// encoding is all a restarted server needs to rebuild the grid.
			b, err := json.Marshal(es)
			if err == nil {
				err = s.st.Put(r.Context(), sweepJobPrefix+hash, b)
			}
			if err != nil {
				s.sweeps.mu.Unlock()
				writeError(w, errorStatus(err), err)
				return
			}
		}
		j, err = s.materializeJob(r.Context(), es, hash, cells)
		if err != nil {
			s.sweeps.mu.Unlock()
			writeError(w, errorStatus(err), err)
			return
		}
		s.sweeps.jobs[hash] = j
		if resumed {
			s.met.sweepJobsResumed.Inc()
		} else {
			s.met.sweepJobsCreated.Inc()
		}
	}
	s.sweeps.mu.Unlock()

	j.mu.Lock()
	s.startJobLocked(j)
	j.mu.Unlock()

	resp := j.response()
	resp.Resumed = resumed
	code := http.StatusCreated
	if resumed {
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

// handleSweepJobGet (GET /v1/sweeps/{id}) streams a job's cells as
// NDJSON from ?from=N (default 0): first the persisted prefix straight
// from the store, then live cells as the runner lands them, then the
// /v1/sweep-compatible trailer. The stored bytes are streamed verbatim,
// so the stream is byte-identical across restarts.
func (s *Server) handleSweepJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	from, err := queryInt(r.URL.Query(), "from", 0)
	if err != nil || from < 0 {
		if err == nil {
			err = fmt.Errorf("service: query parameter from=%d must be >= 0", from)
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j, err := s.getJob(r.Context(), id)
	if err != nil {
		writeError(w, errorStatus(err), err)
		return
	}
	if j == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("service: no sweep job %q", id))
		return
	}
	if from > len(j.cells) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("service: from=%d past the job's %d cells", from, len(j.cells)))
		return
	}
	// Watching a job also restarts it if it stalled (server restart, or
	// a failed run being retried).
	j.mu.Lock()
	s.startJobLocked(j)
	j.mu.Unlock()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)

	// The stream follows the watermark, not the runner: a cell is sent
	// only once it is durably in the store, reading the recorded bytes
	// back rather than trusting any in-memory copy.
	ctx := r.Context()
	for i := from; i < len(j.cells); i++ {
		switch s.awaitCell(ctx, j, i) {
		case cellReady:
		case jobFailed:
			_, _, errMsg := j.snapshot()
			_ = writeNDJSON(w, SweepTrailer{Cells: i - from, Error: errMsg})
			return
		case watcherGone:
			// The watcher left; the job keeps running (it is not theirs to
			// cancel), so this is not a cancelled sweep.
			return
		}
		val, ok, err := s.st.Get(ctx, j.keys[i])
		if err != nil || !ok {
			if err == nil {
				err = fmt.Errorf("service: sweep job %s: cell %d missing from the store", j.id, i)
			}
			_ = writeNDJSON(w, SweepTrailer{Cells: i - from, Error: err.Error()})
			return
		}
		if _, err := w.Write(append(val, '\n')); err != nil {
			return
		}
		_ = rc.Flush()
	}
	_ = writeNDJSON(w, SweepTrailer{Done: true, Cells: len(j.cells) - from})
}

// awaitCell's verdicts.
type awaitVerdict int

const (
	cellReady awaitVerdict = iota
	jobFailed
	watcherGone
)

// awaitCell blocks until cell i is durably persisted, the job fails, or
// the watcher's context ends.
func (s *Server) awaitCell(ctx context.Context, j *sweepJob, i int) awaitVerdict {
	for {
		j.mu.Lock()
		if j.completed > i {
			j.mu.Unlock()
			return cellReady
		}
		if j.err != "" {
			j.mu.Unlock()
			return jobFailed
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return watcherGone
		}
	}
}

// writeNDJSON emits one compact NDJSON line (the encoder appends the
// newline), matching /v1/sweep's trailer encoding.
func writeNDJSON(w http.ResponseWriter, v any) error {
	return json.NewEncoder(w).Encode(v)
}
