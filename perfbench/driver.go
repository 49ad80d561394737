package main

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"
)

// sample is one op as its client saw it.
type sample struct {
	op     int           // index of the op in the workload's generated inputs
	start  time.Time     // when the client sent it
	lat    time.Duration // until the whole reply was read and checked
	failed bool
}

// phase is the outcome of one closed-loop measured phase.
type phase struct {
	samples   []sample
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
	exhausted bool // a client ran out of generated ops before the deadline
}

// merge appends another phase run back to back with this one (the
// recover-cluster rounds); wall times add up.
func (p *phase) merge(q phase) {
	p.samples = append(p.samples, q.samples...)
	p.wall += q.wall
	p.attempted += q.attempted
	p.failed += q.failed
	p.exhausted = p.exhausted || q.exhausted
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
}

// succeeded is the number of ops that completed with a correct reply.
func (p *phase) succeeded() int { return p.attempted - p.failed }

// opsPerSec is completed ops per second of measured wall time.
func (p *phase) opsPerSec() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(len(p.samples)) / p.wall.Seconds()
}

// closedLoop drives clients concurrent clients until the deadline (a zero
// deadline means until next runs dry). Each client sends its next op only
// after the previous one returned: next hands client c its next op index
// (ok=false when it has none left) and do performs and checks one op.
// Every op that is sent is attempted exactly once and either succeeds or
// fails; none is dropped from the count.
func closedLoop(clients int, deadline time.Time, next func(c int) (int, bool), do func(c, op int) error) phase {
	start := time.Now()
	per := make([][]sample, clients)
	errs := make([]error, clients)
	dry := make([]bool, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !deadline.IsZero() && !t0.Before(deadline) {
					return
				}
				op, ok := next(c)
				if !ok {
					dry[c] = !deadline.IsZero()
					return
				}
				err := do(c, op)
				per[c] = append(per[c], sample{op: op, start: t0, lat: time.Since(t0), failed: err != nil})
				if err != nil && errs[c] == nil {
					errs[c] = fmt.Errorf("op %d: %w", op, err)
				}
			}
		}()
	}
	wg.Wait()
	ph := phase{wall: time.Since(start)}
	for c := range clients {
		ph.exhausted = ph.exhausted || dry[c]
		if ph.firstErr == nil {
			ph.firstErr = errs[c]
		}
		for _, s := range per[c] {
			ph.attempted++
			if s.failed {
				ph.failed++
			}
			ph.samples = append(ph.samples, s)
		}
	}
	return ph
}

// queues hands each client its own ops, in order.
type queues [][]int

// next returns a closedLoop op source over the queues.
func (q queues) next() func(c int) (int, bool) {
	pos := make([]int, len(q))
	return func(c int) (int, bool) {
		if pos[c] >= len(q[c]) {
			return 0, false
		}
		pos[c]++
		return q[c][pos[c]-1], true
	}
}

// sortedMs returns durations as sorted milliseconds.
func sortedMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(out)
	return out
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted
// values: the smallest value with at least a q share of the values at or
// below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// beyond is the number of samples above the nearest-rank pct-th
// percentile of n samples.
func beyond(n, pct int) int {
	return n - (pct*n+99)/100
}

// tailPercentile picks the percentile a tail latency is reported at: 99
// when n >= 1000, otherwise the highest whole percentile with at least ten
// samples beyond it. ok is false when n is too small for any.
func tailPercentile(n int) (pct int, ok bool) {
	for p := 99; p >= 50; p-- {
		if beyond(n, p) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// tail is a tail latency: the value, the percentile it was read at and
// the number of samples beyond it.
type tail struct {
	value  float64
	pct    int
	beyond int
	n      int
}

// tailOf reads the tail of sorted values by tailPercentile's rule.
func tailOf(sorted []float64) (tail, error) {
	p, ok := tailPercentile(len(sorted))
	if !ok {
		return tail{}, fmt.Errorf("%d samples are too few for a tail with 10 samples beyond it", len(sorted))
	}
	return tail{value: quantile(sorted, float64(p)/100), pct: p, beyond: beyond(len(sorted), p), n: len(sorted)}, nil
}

// median returns the middle of unsorted values (the mean of the two
// middle ones for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean.
func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
