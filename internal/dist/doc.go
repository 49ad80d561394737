// Package dist implements the failure inter-arrival time laws of the
// paper: Exponential, Weibull, Gamma and LogNormal lifetimes (§2.1, §4.2)
// plus the discrete Empirical law built from availability logs (§4.3), and
// the maximum-likelihood fitting used by the LANL trace pipeline.
//
// Paper mapping:
//
//   - §2.1 introduces iid unit lifetimes X ~ D; Distribution is that D.
//   - §4.2 fixes the parameterizations used in the evaluation: Exponential
//     with rate 1/MTBF, and Weibull with shape k and scale chosen so the
//     mean equals the MTBF (WeibullFromMeanShape implements
//     lambda = MTBF / Gamma(1 + 1/k)).
//   - §4.3 builds an Empirical law from observed availability intervals of
//     the LANL clusters; NewEmpirical/FitWeibull/FitExponential reproduce
//     that log-analysis step (Gamma and LogNormal are provided for the
//     same model-comparison role).
//
// Every law exposes the quantities the checkpointing machinery consumes:
// the density f, the CDF F, the survival S = 1 - F, the conditional
// survival S(tau+t)/S(tau) (the probability that a unit of age tau lives
// another t — the workhorse of Algorithms 1 and 2), the cumulative hazard
// H = -ln S (additive across independent units, which is what makes the
// DPNextFailure grid a single scalar function), quantiles, and
// deterministic sampling through the repro/internal/rng streams so that
// every trace is reproducible.
//
// Weibull evaluates its powers through an unexported kernel, pow, that
// returns math.Pow's bits at about half its cost; the DPNextFailure grid
// fill, the DPMakespan tables, the Bouguerra and Liu densities and trace
// generation all spend most of their time there. For a base z in
// [2^-500, 2^500] the kernel performs exactly the floating-point
// operations math.Pow's pure-Go code performs for the exponent's class:
//
//   - 0 < y < 0.5: math.Pow splits |y| into 0 + y and returns
//     Exp(y*Log(z)), rescaled by 2^0, which changes no bit.
//   - 0.5 < y < 1 and 1 < y <= 1.5: math.Pow computes y-1 (exact by
//     Sterbenz's lemma), a = Exp((y-1)*Log(z)), multiplies a by z's
//     mantissa m in [0.5, 1) and scales the product by z's power of two
//     2^e. Every value in between stays normal (|log2 a| <= 250,
//     |log2 z^y| <= 750), so rounding commutes with the power of two:
//     round(a*m)*2^e = round(a*m*2^e) = round(a*z), the kernel's one
//     multiply.
//   - -0.5 < y < 0: math.Pow returns 1/Exp(-y*Log(z)), rescaled by 2^0.
//   - y = 0.5, -0.5 and 2: Sqrt(z), 1/Sqrt(z), and z's squared mantissa
//     scaled by 2^(2e), which is z*z for the same reason as above.
//
// Every other exponent, and every base outside the range (0, subnormals,
// +Inf, NaN, negatives), goes to math.Pow itself. The equality holds
// wherever math.Pow is Go's pure-Go pow, which is every GOARCH but s390x
// (which has an assembly Pow); TestPowMatchesMathPow checks it bit for
// bit over more than 20 million (z, y) pairs, and FuzzWeibullPow beyond
// them.
//
// The declarative layer (repro/internal/spec) registers every family in
// a name-keyed registry ("exponential", "weibull", "gamma", "lognormal",
// "empirical") with JSON codecs whose encode → decode → build round trip
// is bit-identical.
package dist
