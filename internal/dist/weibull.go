package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Weibull is the Weibull distribution in the paper's shape/rate
// parameterization: CDF(x) = 1 − exp(−(λx)^α) with shape Alpha and rate
// Lambda (the appendix tables print λ around 0.005–0.03 s⁻¹, i.e. scales
// of tens to hundreds of seconds).
type Weibull struct {
	Alpha  float64
	Lambda float64
}

// Sample draws by inverse transform from one uniform variate.
func (w Weibull) Sample(rng *rand.Rand) float64 {
	return w.Quantile(rng.Float64())
}

// CDF returns P(X <= x).
func (w Weibull) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-pow(w.Lambda*x, w.Alpha))
}

// Quantile returns the p-quantile (1/λ)·(−ln(1−p))^{1/α}.
func (w Weibull) Quantile(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Inf(1)
	}
	return pow(-math.Log1p(-p), 1/w.Alpha) / w.Lambda
}

// Mean returns E[X] = Γ(1 + 1/α)/λ.
func (w Weibull) Mean() float64 {
	return math.Gamma(1+1/w.Alpha) / w.Lambda
}

// Median returns (ln 2)^{1/α}/λ.
func (w Weibull) Median() float64 {
	return pow(math.Ln2, 1/w.Alpha) / w.Lambda
}

func (w Weibull) String() string {
	return fmt.Sprintf("W(α=%.3f, λ=%.5f)", w.Alpha, w.Lambda)
}
