package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro/internal/engine
cpu: AMD EPYC 7763 64-Core Processor
BenchmarkEngineTable2Row-8   	       3	 412345678 ns/op	 1234567 B/op	    8901 allocs/op
BenchmarkCacheHit-8          	 1000000	      1234 ns/op	      56 B/op	       2 allocs/op
PASS
ok  	repro/internal/engine	2.345s
pkg: repro/internal/advisor
BenchmarkPeriodicAdvise-8    	30000000	        37.2 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	repro/internal/advisor	1.200s
?   	repro/cmd/chkpt-sim	[no test files]
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("env = %q/%q, want linux/amd64", rep.Goos, rep.Goarch)
	}
	if !strings.Contains(rep.CPU, "EPYC") {
		t.Errorf("cpu = %q, want the cpu: line", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("benchmarks = %d, want 3: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}

	b := rep.Benchmarks[0]
	if b.Pkg != "repro/internal/engine" || b.Name != "BenchmarkEngineTable2Row-8" {
		t.Errorf("first record = %q %q", b.Pkg, b.Name)
	}
	if b.Runs != 3 || b.NsPerOp != 412345678 || b.BytesPerOp != 1234567 || b.AllocsPerOp != 8901 {
		t.Errorf("first record measurements = %+v", b)
	}

	adv := rep.Benchmarks[2]
	if adv.Pkg != "repro/internal/advisor" {
		t.Errorf("pkg tracking across sections: got %q", adv.Pkg)
	}
	if adv.NsPerOp != 37.2 || adv.AllocsPerOp != 0 {
		t.Errorf("fractional ns/op record = %+v", adv)
	}
}

func TestParseBenchNoMemColumns(t *testing.T) {
	rep, err := parseBench(strings.NewReader("pkg: p\nBenchmarkX-4   100   250 ns/op\n"))
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	b := rep.Benchmarks[0]
	if b.NsPerOp != 250 || b.BytesPerOp != 0 || b.AllocsPerOp != 0 {
		t.Errorf("record without -benchmem columns = %+v", b)
	}
}

func TestParseBenchEmptyIsError(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok  \tp\t0.1s\n")); err == nil {
		t.Fatal("stream without benchmark lines should be an error, got nil")
	}
}

// TestParseBenchMergesRepeatsIntoMedians: -count 3 prints each
// benchmark three times. One record per benchmark comes out, in
// first-appearance order, and each measurement is its median, so the
// outlier run (slow and allocating more) moves neither.
func TestParseBenchMergesRepeatsIntoMedians(t *testing.T) {
	const repeated = `pkg: repro/internal/engine
BenchmarkTraceCache-2   1   2100 ns/op   640 B/op   9 allocs/op
BenchmarkOther-2        1   5000 ns/op
BenchmarkTraceCache-2   1   11400 ns/op  960 B/op   14 allocs/op
BenchmarkOther-2        1   5200 ns/op
BenchmarkTraceCache-2   1   2000 ns/op   640 B/op   9 allocs/op
BenchmarkOther-2        1   4900 ns/op
pkg: repro/internal/specialfn
BenchmarkTraceCache-2   1   100 ns/op
`
	rep, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatalf("parseBench: %v", err)
	}
	want := []Benchmark{
		{Pkg: "repro/internal/engine", Name: "BenchmarkTraceCache-2", Runs: 1, NsPerOp: 2100, BytesPerOp: 640, AllocsPerOp: 9},
		{Pkg: "repro/internal/engine", Name: "BenchmarkOther-2", Runs: 1, NsPerOp: 5000},
		{Pkg: "repro/internal/specialfn", Name: "BenchmarkTraceCache-2", Runs: 1, NsPerOp: 100},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("benchmarks = %+v, want %+v", rep.Benchmarks, want)
	}
	for i := range want {
		if rep.Benchmarks[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, rep.Benchmarks[i], want[i])
		}
	}
}
