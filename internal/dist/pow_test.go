package dist

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// weibullShapes are the shapes the registries, experiments, trace
// models and workloads use, plus the figures' 0.1 steps.
var weibullShapes = []float64{0.1, 0.2, 0.3, 0.33, 0.38, 0.4, 0.49, 0.5, 0.6, 0.7, 0.78, 0.8, 0.9, 1}

// powExponents lists the exponents TestPowMatchesMathPow checks: k, k-1
// and 1/k of every shape (CumHazard, Density, Sample and Quantile), 200
// random exponents in (-2, 2), and every class boundary of the kernel
// with its neighbours one ulp away.
func powExponents() []float64 {
	var ys []float64
	for _, k := range weibullShapes {
		ys = append(ys, k, k-1, 1/k)
	}
	r := rng.NewStream(19, 1)
	for range 200 {
		ys = append(ys, 4*r.Float64()-2)
	}
	for _, b := range []float64{0.5, 1, 1.5, -0.5, 2, 0} {
		ys = append(ys, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
	}
	return ys
}

// powBases lists the bases TestPowMatchesMathPow checks: n log-uniform
// draws over every finite double (subnormals included), bases within a
// few thousand ulps and a few powers of two of 1, the kernel's range
// ends one ulp either side, and the special values.
func powBases(n int) []float64 {
	var zs []float64
	r := rng.NewStream(19, 2)
	for range n {
		// A uniform biased exponent in [0, 2046] and a uniform mantissa.
		exp := uint64(r.IntN(2047))
		zs = append(zs, math.Float64frombits(exp<<52|r.Uint64()>>12))
	}
	for k := range 1000 {
		up, down := 1.0, 1.0
		for range k {
			up = math.Nextafter(up, 2)
			down = math.Nextafter(down, 0)
		}
		zs = append(zs, up, down)
	}
	for j := 1; j <= 60; j++ {
		zs = append(zs, 1+math.Ldexp(1, -j), 1-math.Ldexp(1, -j))
	}
	for _, e := range []float64{0x1p-500, 0x1p500} {
		zs = append(zs, math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1)))
	}
	zs = append(zs, 0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1060,
		math.Float64frombits(1<<52-1), 0x1p-1022, math.MaxFloat64, math.Inf(1),
		math.Inf(-1), math.NaN(), -1, -0.5, -3)
	return zs
}

// TestPowMatchesMathPow is the kernel's contract: pow(z, y) has
// math.Pow(z, y)'s bits over more than 20 million pairs covering every
// arm, every class boundary and every special base.
func TestPowMatchesMathPow(t *testing.T) {
	ys := powExponents()
	zs := powBases(80000)
	checks := 0
	for _, y := range ys {
		for _, z := range zs {
			got, want := pow(z, y), math.Pow(z, y)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("pow(%v, %v) = %v (%#x), math.Pow = %v (%#x)",
					z, y, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			checks++
		}
	}
	if checks < 20_000_000 {
		t.Fatalf("only %d pairs checked, want at least 20M", checks)
	}
	t.Logf("%d pairs (%d exponents × %d bases) bit-identical", checks, len(ys), len(zs))
}

// TestWeibullPowersMatchMathPow checks the Weibull methods' results
// against the same formulas written with math.Pow, for the shapes of
// weibullShapes and a shape above 1.5.
func TestWeibullPowersMatchMathPow(t *testing.T) {
	r := rng.NewStream(19, 3)
	for _, k := range append(weibullShapes, 1.2, 2, 3.5) {
		w := WeibullFromMeanShape(3.9e9, k)
		for range 2000 {
			x := math.Exp(60 * r.Float64())
			p := r.Float64()
			z := x / w.Scale
			checks := []struct {
				what      string
				got, want float64
			}{
				{"CumHazard", w.CumHazard(x), math.Pow(z, k)},
				{"Density", w.Density(x), k / w.Scale * math.Pow(z, k-1) * math.Exp(-math.Pow(z, k))},
				{"Quantile", w.Quantile(p), w.Scale * math.Pow(-math.Log1p(-p), 1/k)},
			}
			for _, c := range checks {
				if math.Float64bits(c.got) != math.Float64bits(c.want) {
					t.Fatalf("shape %v: %s = %v, math.Pow formula %v", k, c.what, c.got, c.want)
				}
			}
		}
		a, b := rng.NewStream(19, 4), rng.NewStream(19, 4)
		for range 200 {
			got, want := w.Sample(a), w.Scale*math.Pow(b.ExpFloat64(), 1/k)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("shape %v: Sample = %v, math.Pow formula %v", k, got, want)
			}
		}
	}
}

// FuzzWeibullPow compares the kernel with math.Pow bit for bit on
// arbitrary pairs.
func FuzzWeibullPow(f *testing.F) {
	f.Add(1.5e-3, 0.7)
	f.Add(2.0, -0.3)
	f.Add(12.5, 1/0.7)
	f.Add(0x1p500, 1.5)
	f.Add(0x1p-500, 0.5)
	f.Add(3.0, 2.0)
	f.Fuzz(func(t *testing.T, z, y float64) {
		got, want := pow(z, y), math.Pow(z, y)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pow(%v, %v) = %v (%#x), math.Pow = %v (%#x)",
				z, y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

var benchSink float64

// BenchmarkWeibullCumHazard is one cumulative hazard at the paper's
// unit law (125-year MTBF, shape 0.7), on ages of about a year.
func BenchmarkWeibullCumHazard(b *testing.B) {
	w := WeibullFromMeanShape(125*365*86400, 0.7)
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += w.CumHazard(3.15e7 + float64(i&1023))
	}
	benchSink = acc
}

// BenchmarkWeibullCumHazardMathPow is BenchmarkWeibullCumHazard's
// formula through math.Pow: the kernel's reference on the same host.
func BenchmarkWeibullCumHazardMathPow(b *testing.B) {
	w := WeibullFromMeanShape(125*365*86400, 0.7)
	var acc float64
	for i := 0; i < b.N; i++ {
		acc += math.Pow((3.15e7+float64(i&1023))/w.Scale, w.Shape)
	}
	benchSink = acc
}
