// Command chkpt-benchjson converts `go test -bench` text output, read
// from stdin, into the machine-readable BENCH_<n>.json tracked per PR
// alongside the prose baseline in BENCH.md:
//
//	go test -run xxx -bench . -benchtime 1x ./... | chkpt-benchjson -pr 6 > BENCH_6.json
//
// The emitted document carries the run environment (goos/goarch/cpu)
// and one record per benchmark with its package, name, iteration
// count, and the ns/op, B/op, and allocs/op measurements — exactly
// what a regression tracker needs to diff two PRs without re-parsing
// free-form text. Records keep the input order, so consecutive runs of
// the same suite diff cleanly. A benchmark run several times (-count n)
// becomes one record holding the median of each measurement, so one
// noisy run cannot move a baseline or fail the gate.
//
// The compare subcommand diffs two such documents and exits non-zero on
// a regression, turning the committed baseline into a CI gate:
//
//	chkpt-benchjson compare -threshold 5 -allocs-threshold 1.5 -min-ns 1000 BENCH_6.json BENCH_7.json
//
// See compare.go for the regression rules.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"nsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp,omitempty"`
	AllocsPerOp int64   `json:"allocsPerOp,omitempty"`
}

// Report is the top-level BENCH_<n>.json document.
type Report struct {
	PR         int         `json:"pr"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	pr := flag.Int("pr", 0, "PR number stamped into the report (required)")
	flag.Parse()
	if *pr <= 0 {
		fmt.Fprintln(os.Stderr, "chkpt-benchjson: -pr <n> is required")
		os.Exit(2)
	}

	report, err := parseBench(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chkpt-benchjson: %v\n", err)
		os.Exit(1)
	}
	report.PR = *pr

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fmt.Fprintf(os.Stderr, "chkpt-benchjson: %v\n", err)
		os.Exit(1)
	}
}

// parseBench consumes `go test -bench` output. Lines it does not
// recognize (PASS, ok, warnings, test log noise) are skipped; a stream
// with no benchmark lines at all is an error so a silently-empty bench
// run cannot masquerade as a baseline.
func parseBench(r io.Reader) (*Report, error) {
	report := &Report{Benchmarks: []Benchmark{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			report.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			report.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			report.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			b.Pkg = pkg
			report.Benchmarks = append(report.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(report.Benchmarks) == 0 {
		return nil, errors.New("no benchmark result lines found on stdin")
	}
	report.Benchmarks = mergeRepeats(report.Benchmarks)
	return report, nil
}

// mergeRepeats folds the lines of each benchmark run several times into
// one record, in first-appearance order. Each measurement is the median
// of its runs (the lower middle one for an even count), taken
// separately: the ns/op and the allocs/op of one outlier run are both
// dropped.
func mergeRepeats(bs []Benchmark) []Benchmark {
	groups := map[string][]Benchmark{}
	var order []string
	for _, b := range bs {
		key := benchKey(b)
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, key := range order {
		g := groups[key]
		out = append(out, Benchmark{
			Pkg:         g[0].Pkg,
			Name:        g[0].Name,
			Runs:        median(g, func(b Benchmark) int64 { return b.Runs }),
			NsPerOp:     median(g, func(b Benchmark) float64 { return b.NsPerOp }),
			BytesPerOp:  median(g, func(b Benchmark) int64 { return b.BytesPerOp }),
			AllocsPerOp: median(g, func(b Benchmark) int64 { return b.AllocsPerOp }),
		})
	}
	return out
}

// median returns the median of one measurement over a benchmark's runs,
// the lower middle value for an even count.
func median[T int64 | float64](g []Benchmark, field func(Benchmark) T) T {
	vals := make([]T, len(g))
	for i, b := range g {
		vals[i] = field(b)
	}
	slices.Sort(vals)
	return vals[(len(vals)-1)/2]
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8   1000000   1234 ns/op   56 B/op   7 allocs/op
//
// The B/op and allocs/op columns are optional (-benchmem off). Other
// custom metrics are ignored.
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Runs: runs}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Benchmark{}, false
			}
			b.NsPerOp = f
			seen = true
		case "B/op":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Benchmark{}, false
			}
			b.BytesPerOp = n
		case "allocs/op":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Benchmark{}, false
			}
			b.AllocsPerOp = n
		}
	}
	return b, seen
}
