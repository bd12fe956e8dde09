package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Fitting errors shared by the fitters.
var (
	errTooFew       = errors.New("dist: too few samples")
	errNonPositive  = errors.New("dist: samples must be positive and finite")
	errZeroVariance = errors.New("dist: samples have zero variance")
)

// checkSample validates a fitting sample: at least min values, all
// strictly positive and finite.
func checkSample(xs []float64, min int) error {
	if len(xs) < min {
		return fmt.Errorf("%w: %d < %d", errTooFew, len(xs), min)
	}
	for _, x := range xs {
		if !(x > 0) || math.IsInf(x, 0) {
			return errNonPositive
		}
	}
	return nil
}

// logMoments returns the mean and (MLE, population) standard deviation
// of the logs of xs.
func logMoments(xs []float64) (mu, sigma float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mu += math.Log(x)
	}
	mu /= n
	for _, x := range xs {
		d := math.Log(x) - mu
		sigma += d * d
	}
	return mu, math.Sqrt(sigma / n)
}

// FitLognormal fits a lognormal by maximum likelihood: µ and σ are the
// mean and standard deviation of the log-sample.
func FitLognormal(xs []float64) (Lognormal, error) {
	if err := checkSample(xs, 2); err != nil {
		return Lognormal{}, err
	}
	mu, sigma := logMoments(xs)
	if sigma == 0 {
		return Lognormal{}, errZeroVariance
	}
	return Lognormal{Sigma: sigma, Mu: mu}, nil
}

// FitLognormalCounts fits a continuous lognormal to rounded-and-floored
// integer counts (the Table A.2 variate: queries per session, generated
// as round(X) clamped to >= 1). Each count k >= 2 is treated as the
// censoring interval (k−0.5, k+0.5] and k = 1 as (0, 1.5], and the
// continuous (µ, σ) are recovered by maximizing the interval-censored
// likelihood — a plain log-moment fit would be biased by the
// discretization, most severely for the Asian table whose counts are
// mostly 1.
func FitLognormalCounts(xs []float64) (Lognormal, error) {
	o, err := newCountLL(xs)
	if err != nil {
		return Lognormal{}, err
	}
	mu, t := minimize2(o.negLL, o.mu0, o.t0, 0.2, 0.2)
	return Lognormal{Sigma: math.Exp(t), Mu: mu}, nil
}

// countLL is FitLognormalCounts' objective over one sample: the negative
// interval-censored log-likelihood in (µ, ln σ), with its log-moment
// start (mu0, t0).
type countLL struct {
	cells   []countCell
	mu0, t0 float64
}

// countCell is one count k, its multiplicity n, and the logs of its
// censoring interval: hi = ln(k+0.5) and, for k > 1, lo = ln(k−0.5).
type countCell struct {
	k, n   int
	lo, hi float64
}

func newCountLL(xs []float64) (countLL, error) {
	if err := checkSample(xs, 2); err != nil {
		return countLL{}, err
	}
	hist := make(map[int]int)
	for _, x := range xs {
		k := int(math.Round(x))
		if k < 1 {
			return countLL{}, fmt.Errorf("dist: count %v is not a positive integer", x)
		}
		hist[k]++
	}
	if len(hist) < 2 {
		return countLL{}, errZeroVariance
	}
	// Flatten to sorted cells: map iteration order would vary the
	// floating-point summation order run-to-run, which can flip simplex
	// comparisons and make the fit non-reproducible. The interval logs
	// never change between evaluations, so they are taken here.
	cells := make([]countCell, 0, len(hist))
	for k, n := range hist {
		c := countCell{k: k, n: n, hi: math.Log(float64(k) + 0.5)}
		if k > 1 {
			c.lo = math.Log(float64(k) - 0.5)
		}
		cells = append(cells, c)
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].k < cells[b].k })
	mu0, s0 := logMoments(xs)
	if s0 < 0.05 {
		s0 = 0.05
	}
	return countLL{cells: cells, mu0: mu0, t0: math.Log(s0)}, nil
}

func (o *countLL) negLL(mu, t float64) float64 {
	if math.Abs(mu) > 60 || math.Abs(t) > 8 {
		return math.MaxFloat64
	}
	s := math.Exp(t)
	ll := 0.0
	for _, c := range o.cells {
		zHi := (c.hi - mu) / s
		zLo := math.Inf(-1)
		if c.k > 1 {
			zLo = (c.lo - mu) / s
		}
		p := normCDFDiff(zLo, zHi)
		if p < 1e-300 {
			return math.MaxFloat64
		}
		ll += float64(c.n) * math.Log(p)
	}
	return -ll
}

// fitTruncatedLognormal fits a lognormal to samples known to be the
// lo/hi-conditioned part of the distribution, by maximizing the
// truncated likelihood. lo <= 0 means no left truncation; hi = +Inf
// means no right truncation.
func fitTruncatedLognormal(xs []float64, lo, hi float64) (Lognormal, error) {
	if err := checkSample(xs, 3); err != nil {
		return Lognormal{}, err
	}
	o, err := newTruncatedLognormalLL(xs, lo, hi)
	if err != nil {
		return Lognormal{}, err
	}
	mu, t := minimize2(o.negLL, o.mu0, o.t0, 0.3, 0.3)
	return Lognormal{Sigma: math.Exp(t), Mu: mu}, nil
}

// truncatedLognormalLL is fitTruncatedLognormal's objective over one
// sample: the negative truncated log-likelihood in (µ, ln σ), with its
// log-moment start (mu0, t0).
type truncatedLognormalLL struct {
	lo, hi    float64
	n, s1, s2 float64
	mu0, t0   float64
}

func newTruncatedLognormalLL(xs []float64, lo, hi float64) (truncatedLognormalLL, error) {
	// The sample enters the likelihood only through n, Σ ln x, Σ (ln x)²,
	// so precompute the sufficient statistics and keep each of the few
	// hundred simplex evaluations O(1). The same pass yields the
	// log-moment start: Σ ln x accumulates in logMoments' order, so µ₀ is
	// its µ bit for bit, and σ₀ sums the deviations over the cached logs.
	lxs := make([]float64, len(xs))
	o := truncatedLognormalLL{lo: lo, hi: hi, n: float64(len(xs))}
	for i, x := range xs {
		lx := math.Log(x)
		lxs[i] = lx
		o.s1 += lx
		o.s2 += lx * lx
	}
	o.mu0 = o.s1 / o.n
	var dev float64
	for _, lx := range lxs {
		d := lx - o.mu0
		dev += d * d
	}
	s0 := math.Sqrt(dev / o.n)
	if s0 == 0 {
		return o, errZeroVariance
	}
	o.t0 = math.Log(s0)
	return o, nil
}

func (o *truncatedLognormalLL) negLL(mu, t float64) float64 {
	if math.Abs(mu) > 60 || math.Abs(t) > 8 {
		return math.MaxFloat64
	}
	s := math.Exp(t)
	za, zb := math.Inf(-1), math.Inf(1)
	if o.lo > 0 {
		za = (math.Log(o.lo) - mu) / s
	}
	if !math.IsInf(o.hi, 1) {
		zb = (math.Log(o.hi) - mu) / s
	}
	norm := normCDFDiff(za, zb)
	if norm < 1e-300 {
		return math.MaxFloat64
	}
	n := o.n
	ll := -n * (math.Log(s) + math.Log(norm))
	// Σ((ln x − µ)/s)² expanded over the sufficient statistics.
	ll -= (o.s2 - 2*mu*o.s1 + n*mu*mu) / (2 * s * s)
	// A doubly-truncated window can leave (µ, σ) unidentifiable: whole
	// ridges of parameters give the same conditional law. The faint
	// pull toward the log-moment start is invisible wherever the
	// likelihood has gradient, but keeps ridge solutions at humane
	// values instead of the clamp boundary.
	ll -= 1e-3 * ((mu-o.mu0)*(mu-o.mu0) + (t-o.t0)*(t-o.t0))
	return -ll
}

// fitTruncatedWeibull fits a Weibull (shape/rate) to samples known to be
// the lo/hi-conditioned part of the distribution.
func fitTruncatedWeibull(xs []float64, lo, hi float64) (Weibull, error) {
	if err := checkSample(xs, 3); err != nil {
		return Weibull{}, err
	}
	o := newTruncatedWeibullLL(xs, lo, hi)
	la, ll2 := minimize2(o.negLL, 0, o.l0, 0.3, 0.3)
	return Weibull{Alpha: math.Exp(la), Lambda: math.Exp(ll2)}, nil
}

// truncatedWeibullLL is fitTruncatedWeibull's objective over one sample:
// the negative truncated log-likelihood in (ln α, ln λ), started at
// ln α = 0 and ln λ = l0 = ln(1/mean).
type truncatedWeibullLL struct {
	xs, lxs   []float64
	lo, hi, n float64
	l0        float64
}

func newTruncatedWeibullLL(xs []float64, lo, hi float64) truncatedWeibullLL {
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	// Each simplex evaluation walks the whole sample; ln x never changes
	// between evaluations, so it is taken once here.
	lxs := make([]float64, len(xs))
	for i, x := range xs {
		lxs[i] = math.Log(x)
	}
	return truncatedWeibullLL{xs: xs, lxs: lxs, lo: lo, hi: hi, n: float64(len(xs)), l0: math.Log(1 / mean)}
}

func (o *truncatedWeibullLL) negLL(la, ll2 float64) float64 {
	if math.Abs(la) > 4 || math.Abs(ll2) > 30 {
		return math.MaxFloat64
	}
	alpha, lambda := math.Exp(la), math.Exp(ll2)
	w := Weibull{Alpha: alpha, Lambda: lambda}
	norm := w.CDF(o.hi) - w.CDF(o.lo)
	if norm < 1e-300 {
		return math.MaxFloat64
	}
	ll := -o.n * math.Log(norm)
	// Per-sample log-density ln α + α ln λ + (α−1) ln x − (λx)^α, summed
	// left to right as written: the hoisted prefix is exactly the first
	// partial sum, so every term rounds as it would inline. (λx)^α stays
	// a power, since ln(λx) and ln λ + ln x differ in bits; its exponent
	// is split once per evaluation, not once per sample.
	prefix := math.Log(alpha) + alpha*math.Log(lambda)
	am1 := alpha - 1
	pw := newFixedPow(alpha)
	for i, x := range o.xs {
		ll += prefix + am1*o.lxs[i] - pw.of(lambda*x)
	}
	if math.IsNaN(ll) || math.IsInf(ll, 0) {
		return math.MaxFloat64
	}
	// Same ridge guard as the truncated lognormal fit.
	ll -= 1e-3 * (la*la + (ll2-o.l0)*(ll2-o.l0))
	return -ll
}

// minComponent is the smallest body or tail sub-sample a composite fit
// will accept.
const minComponent = 3

// splitComposite validates a composite-fit sample and partitions it at
// the body/tail boundary, returning the empirical body weight.
func splitComposite(xs []float64, hi float64) (body, tail []float64, weight float64, err error) {
	if err := checkSample(xs, 2*minComponent); err != nil {
		return nil, nil, 0, err
	}
	nb := 0
	for _, x := range xs {
		if x <= hi {
			nb++
		}
	}
	body = make([]float64, 0, nb)
	tail = make([]float64, 0, len(xs)-nb)
	for _, x := range xs {
		if x <= hi {
			body = append(body, x)
		} else {
			tail = append(tail, x)
		}
	}
	if len(body) < minComponent || len(tail) < minComponent {
		return nil, nil, 0, fmt.Errorf("%w: body %d / tail %d below %d",
			errTooFew, len(body), len(tail), minComponent)
	}
	return body, tail, float64(len(body)) / float64(len(xs)), nil
}

// FitBimodalLognormal fits the Table A.1 model — lognormal body on
// [lo, hi], lognormal tail beyond hi — to a duration sample. The body
// weight is the empirical body mass; each component is a truncated
// maximum-likelihood lognormal. Note that the narrow body window makes
// the body's (µ, σ) only weakly identifiable (many parameter pairs give
// nearly the same conditional law); the mixture, body weight, and tail
// parameters are the meaningful outputs.
func FitBimodalLognormal(xs []float64, lo, hi float64) (BodyTail, error) {
	body, tail, weight, err := splitComposite(xs, hi)
	if err != nil {
		return BodyTail{}, err
	}
	bLo := lo
	for _, x := range body {
		if x < bLo {
			bLo = 0 // samples below the nominal window: drop left truncation
			break
		}
	}
	bodyFit, err := fitTruncatedLognormal(body, bLo, hi)
	if err != nil {
		return BodyTail{}, err
	}
	tailFit, err := fitTruncatedLognormal(tail, hi, math.Inf(1))
	if err != nil {
		return BodyTail{}, err
	}
	// Lo is the bound the body was actually fitted under, so the
	// composite conditions the body exactly as the likelihood did.
	return NewBodyTail(bodyFit, bLo, hi, weight, tailFit), nil
}

// FitWeibullLognormal fits the Table A.3 model — Weibull body on
// [lo, hi], lognormal tail beyond hi.
func FitWeibullLognormal(xs []float64, lo, hi float64) (BodyTail, error) {
	body, tail, weight, err := splitComposite(xs, hi)
	if err != nil {
		return BodyTail{}, err
	}
	for _, x := range body {
		if x < lo {
			lo = 0 // samples below the nominal window: drop left truncation
			break
		}
	}
	bodyFit, err := fitTruncatedWeibull(body, lo, hi)
	if err != nil {
		return BodyTail{}, err
	}
	tailFit, err := fitTruncatedLognormal(tail, hi, math.Inf(1))
	if err != nil {
		return BodyTail{}, err
	}
	return NewBodyTail(bodyFit, lo, hi, weight, tailFit), nil
}

// FitLognormalPareto fits the Table A.4 model — lognormal body on
// [lo, hi], Pareto tail with β = hi. The Pareto shape is the exact
// maximum-likelihood (Hill) estimator α = m / Σ ln(xᵢ/β) over the tail.
func FitLognormalPareto(xs []float64, lo, hi float64) (BodyTail, error) {
	body, tail, weight, err := splitComposite(xs, hi)
	if err != nil {
		return BodyTail{}, err
	}
	for _, x := range body {
		if x < lo {
			lo = 0 // samples below the nominal window: drop left truncation
			break
		}
	}
	bodyFit, err := fitTruncatedLognormal(body, lo, hi)
	if err != nil {
		return BodyTail{}, err
	}
	var sumLog float64
	for _, x := range tail {
		sumLog += math.Log(x / hi)
	}
	if sumLog <= 0 {
		return BodyTail{}, errZeroVariance
	}
	alpha := float64(len(tail)) / sumLog
	return NewBodyTail(bodyFit, lo, hi, weight, Pareto{Alpha: alpha, Beta: hi}), nil
}
