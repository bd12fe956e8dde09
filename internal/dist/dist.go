// Package dist implements the statistical machinery of the paper's
// appendix: the continuous distribution families used by the conditional
// session models (lognormal, Weibull, Pareto), the body/tail composite
// BodyTail that every Table A.1–A.4 model is expressed in (one type: the
// generator samples it and the composite fitters return it, its
// conditioning constants cached by NewBodyTail), Zipf-like rank
// distributions for query popularity (Figure 11, including the
// two-segment intersection fit), maximum-likelihood fitters that recover
// each family's parameters from measured samples, and the
// Kolmogorov–Smirnov distance used to score fits.
//
// All sampling draws exclusively through the caller-supplied
// *rand/v2.Rand, so a given seed reproduces an identical stream from
// every distribution and ranker — a property the closed-loop tests and
// future parallelization depend on. Weibull, Pareto, the BodyTail
// composite, and the rankers additionally consume a fixed number of
// uniforms per draw (one, or two for BodyTail), keeping interleaved
// consumers of a shared generator aligned; plain Lognormal.Sample uses
// NormFloat64, whose ziggurat draws a variable amount.
package dist

import "math/rand/v2"

// Dist is a continuous univariate distribution over (a subset of) the
// positive reals. Implementations are small value types and safe for
// concurrent use.
type Dist interface {
	// Sample draws one variate using the supplied generator.
	Sample(rng *rand.Rand) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
	// Quantile returns the p-quantile (inverse CDF) for p in [0, 1].
	Quantile(p float64) float64
}
