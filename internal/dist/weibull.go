package dist

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Weibull is the two-parameter Weibull law with shape k = Shape and scale
// lambda = Scale: S(x) = exp(-(x/lambda)^k). Shapes below 1 give the
// decreasing hazard rates reported for production clusters (0.33–0.78),
// the regime where the paper's DPNextFailure policy wins.
type Weibull struct {
	Shape float64
	Scale float64
}

// NewWeibull returns the Weibull law with the given shape and scale.
func NewWeibull(shape, scale float64) Weibull {
	checkPositive("Weibull", "shape", shape)
	checkPositive("Weibull", "scale", scale)
	return Weibull{Shape: shape, Scale: scale}
}

// WeibullFromMeanShape returns the Weibull with the given mean and shape,
// the paper's parameterization: scale = mean / Gamma(1 + 1/shape).
func WeibullFromMeanShape(mean, shape float64) Weibull {
	checkPositive("Weibull", "mean", mean)
	checkPositive("Weibull", "shape", shape)
	return Weibull{Shape: shape, Scale: mean / math.Gamma(1+1/shape)}
}

// Name implements Distribution.
func (Weibull) Name() string { return "Weibull" }

// String implements Distribution.
func (w Weibull) String() string {
	return fmt.Sprintf("Weibull(shape=%g, scale=%g)", w.Shape, w.Scale)
}

// Mean implements Distribution: scale * Gamma(1 + 1/shape).
func (w Weibull) Mean() float64 {
	return w.Scale * math.Gamma(1+1/w.Shape)
}

// Density implements Distribution. For shape < 1 the density diverges at
// 0+ and the method returns +Inf there.
func (w Weibull) Density(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case w.Shape < 1:
			return math.Inf(1)
		case w.Shape == 1:
			return 1 / w.Scale
		default:
			return 0
		}
	}
	z := x / w.Scale
	return w.Shape / w.Scale * pow(z, w.Shape-1) * math.Exp(-pow(z, w.Shape))
}

// CDF implements Distribution.
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-w.CumHazard(x))
}

// Survival implements Distribution.
func (w Weibull) Survival(x float64) float64 {
	if x <= 0 {
		return 1
	}
	return math.Exp(-w.CumHazard(x))
}

// CondSurvival implements Distribution through the hazard difference,
// which stays accurate for the huge ages (125-year MTBFs) the platform
// models use.
func (w Weibull) CondSurvival(t, tau float64) float64 {
	if t <= 0 {
		return 1
	}
	if tau < 0 {
		tau = 0
	}
	return math.Exp(w.CumHazard(tau) - w.CumHazard(tau+t))
}

// CumHazard implements Distribution: H(x) = (x/scale)^shape.
func (w Weibull) CumHazard(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return pow(x/w.Scale, w.Shape)
}

// Quantile implements Distribution: F^{-1}(p) = scale * (-ln(1-p))^(1/k).
func (w Weibull) Quantile(p float64) float64 {
	switch {
	case p <= 0:
		return 0
	case p >= 1:
		return math.Inf(1)
	}
	return w.Scale * pow(-math.Log1p(-p), 1/w.Shape)
}

// Sample implements Distribution by inverse transform: scale * E^(1/k)
// with E a unit exponential draw.
func (w Weibull) Sample(r *rng.Source) float64 {
	return w.Scale * pow(r.ExpFloat64(), 1/w.Shape)
}

// pow returns math.Pow(z, y) bit for bit. For z in [2^-500, 2^500] and
// the exponent classes below it performs only the operations math.Pow's
// own code performs for that class, without the special-case dispatch,
// the exponent split and the final rescale (doc.go explains why each arm
// is exact); every other input goes to math.Pow. CumHazard's z^k, the
// power every survival-grid entry costs, takes an arm for every shape in
// (0, 1.5] but 1.
func pow(z, y float64) float64 {
	if !(z >= 0x1p-500 && z <= 0x1p500) {
		return math.Pow(z, y)
	}
	switch {
	case 0 < y && y < 0.5:
		return math.Exp(y * math.Log(z))
	case 0.5 < y && y < 1, 1 < y && y <= 1.5:
		return math.Exp((y-1)*math.Log(z)) * z
	case -0.5 < y && y < 0:
		return 1 / math.Exp(-y*math.Log(z))
	case y == 0.5:
		return math.Sqrt(z)
	case y == -0.5:
		return 1 / math.Sqrt(z)
	case y == 2:
		return z * z
	}
	return math.Pow(z, y)
}
