package dist

import (
	"fmt"
	"math/rand/v2"
)

// BodyTail is the two-component composite every appendix model uses: with
// probability BodyWeight the variate comes from Body conditioned on
// [Lo, Hi], otherwise from Tail conditioned on (Hi, ∞). Its CDF is
// therefore 0 at Lo and exactly BodyWeight at Hi. It is both what the
// generator samples and what the body/tail fitters return; Tail holds the
// concrete fitted type (Lognormal or Pareto), so callers can type-assert
// on it.
//
// Build it with NewBodyTail, which caches the conditioning constants. A
// struct literal leaves them zero, and every draw from it is wrong.
type BodyTail struct {
	Body, Tail Dist
	Lo, Hi     float64
	BodyWeight float64
	// Cached conditioning constants.
	bLo, bHi float64 // Body.CDF(Lo), Body.CDF(Hi)
	tHi      float64 // Tail.CDF(Hi)
}

// NewBodyTail builds the composite distribution of the paper's appendix
// tables: body truncated to [lo, hi] carrying probability mass frac, and
// tail truncated to (hi, ∞) carrying 1−frac. A Pareto tail with β = hi
// is already supported on (hi, ∞), so its conditioning is the identity.
func NewBodyTail(body Dist, lo, hi, frac float64, tail Dist) BodyTail {
	return BodyTail{
		Body: body, Tail: tail,
		Lo: lo, Hi: hi, BodyWeight: frac,
		bLo: body.CDF(lo), bHi: body.CDF(hi), tHi: tail.CDF(hi),
	}
}

// BodyTailFit is BodyTail under the name the repository benchmark (bench/)
// spells; nothing else should use it.
type BodyTailFit = BodyTail

// Mixture returns d. Only the repository benchmark (bench/) calls it.
func (d BodyTail) Mixture() BodyTail { return d }

// Sample draws the branch and then one inverse-transform variate, always
// consuming exactly two uniforms so seeded streams stay aligned.
func (d BodyTail) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	v := rng.Float64()
	if u < d.BodyWeight {
		return d.Body.Quantile(d.bLo + v*(d.bHi-d.bLo))
	}
	return d.Tail.Quantile(d.tHi + v*(1-d.tHi))
}

// CDF returns the piecewise mixture CDF.
func (d BodyTail) CDF(x float64) float64 {
	switch {
	case x <= d.Lo:
		return 0
	case x <= d.Hi:
		if d.bHi == d.bLo {
			return d.BodyWeight
		}
		return d.BodyWeight * (d.Body.CDF(x) - d.bLo) / (d.bHi - d.bLo)
	default:
		return d.BodyWeight + (1-d.BodyWeight)*(d.Tail.CDF(x)-d.tHi)/(1-d.tHi)
	}
}

// Quantile inverts the piecewise CDF.
func (d BodyTail) Quantile(p float64) float64 {
	if p <= d.BodyWeight {
		if d.BodyWeight == 0 {
			return d.Hi
		}
		return d.Body.Quantile(d.bLo + (p/d.BodyWeight)*(d.bHi-d.bLo))
	}
	return d.Tail.Quantile(d.tHi + (p-d.BodyWeight)/(1-d.BodyWeight)*(1-d.tHi))
}

func (d BodyTail) String() string {
	return fmt.Sprintf("body %.0f%% %v on [%g, %g] + tail %v",
		100*d.BodyWeight, d.Body, d.Lo, d.Hi, d.Tail)
}
