package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// The reference kernels below are the truncated-fit objectives and the
// KS distance as they read before the per-sample logs were hoisted out
// of the objectives and KS gained its sorted entry point. They are the
// bit-exact oracle for the optimized kernels: the report's bytes depend on
// every rounding step of the fits and distances, so the optimized code
// must return the same float64 bits, not merely close values.

func refLogMoments(xs []float64) (mu, sigma float64) {
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

// refTruncatedLognormalObjective is fitTruncatedLognormal's objective and
// start as they read with the logs taken three times per sample.
func refTruncatedLognormalObjective(xs []float64, lo, hi float64) (negLL func(mu, t float64) float64, mu0, t0 float64) {
	var s1, s2 float64
	for _, x := range xs {
		lx := math.Log(x)
		s1 += lx
		s2 += lx * lx
	}
	mu0, s0 := refLogMoments(xs)
	if s0 == 0 {
		return nil, 0, 0
	}
	n := float64(len(xs))
	t0 = math.Log(s0)
	return func(mu, t float64) float64 {
		if math.Abs(mu) > 60 || math.Abs(t) > 8 {
			return math.MaxFloat64
		}
		s := math.Exp(t)
		za, zb := math.Inf(-1), math.Inf(1)
		if lo > 0 {
			za = (math.Log(lo) - mu) / s
		}
		if !math.IsInf(hi, 1) {
			zb = (math.Log(hi) - mu) / s
		}
		norm := normCDFDiff(za, zb)
		if norm < 1e-300 {
			return math.MaxFloat64
		}
		ll := -n * (math.Log(s) + math.Log(norm))
		ll -= (s2 - 2*mu*s1 + n*mu*mu) / (2 * s * s)
		ll -= 1e-3 * ((mu-mu0)*(mu-mu0) + (t-t0)*(t-t0))
		return -ll
	}, mu0, t0
}

// refTruncatedWeibullObjective is fitTruncatedWeibull's objective and
// start as they read with every logarithm taken inside the per-sample
// loop.
func refTruncatedWeibullObjective(xs []float64, lo, hi float64) (negLL func(la, ll2 float64) float64, l0 float64) {
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	n := float64(len(xs))
	l0 = math.Log(1 / mean)
	return func(la, ll2 float64) float64 {
		if math.Abs(la) > 4 || math.Abs(ll2) > 30 {
			return math.MaxFloat64
		}
		alpha, lambda := math.Exp(la), math.Exp(ll2)
		cdf := func(x float64) float64 {
			if x <= 0 {
				return 0
			}
			return -math.Expm1(-math.Pow(lambda*x, alpha))
		}
		norm := cdf(hi) - cdf(lo)
		if norm < 1e-300 {
			return math.MaxFloat64
		}
		ll := -n * math.Log(norm)
		for _, x := range xs {
			ll += math.Log(alpha) + alpha*math.Log(lambda) + (alpha-1)*math.Log(x) -
				math.Pow(lambda*x, alpha)
		}
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			return math.MaxFloat64
		}
		ll -= 1e-3 * (la*la + (ll2-l0)*(ll2-l0))
		return -ll
	}, l0
}

// refCountObjective is FitLognormalCounts' objective and start as they
// read with both interval logs taken inside the objective; negLL is nil
// where the fit refuses the sample.
func refCountObjective(xs []float64) (negLL func(mu, t float64) float64, mu0, t0 float64) {
	if checkSample(xs, 2) != nil {
		return nil, 0, 0
	}
	hist := make(map[int]int)
	for _, x := range xs {
		k := int(math.Round(x))
		if k < 1 {
			return nil, 0, 0
		}
		hist[k]++
	}
	if len(hist) < 2 {
		return nil, 0, 0
	}
	type cell struct{ k, n int }
	cells := make([]cell, 0, len(hist))
	for k, n := range hist {
		cells = append(cells, cell{k, n})
	}
	sort.Slice(cells, func(a, b int) bool { return cells[a].k < cells[b].k })
	mu0, s0 := refLogMoments(xs)
	if s0 < 0.05 {
		s0 = 0.05
	}
	return func(mu, t float64) float64 {
		if math.Abs(mu) > 60 || math.Abs(t) > 8 {
			return math.MaxFloat64
		}
		s := math.Exp(t)
		ll := 0.0
		for _, c := range cells {
			zHi := (math.Log(float64(c.k)+0.5) - mu) / s
			zLo := math.Inf(-1)
			if c.k > 1 {
				zLo = (math.Log(float64(c.k)-0.5) - mu) / s
			}
			p := normCDFDiff(zLo, zHi)
			if p < 1e-300 {
				return math.MaxFloat64
			}
			ll += float64(c.n) * math.Log(p)
		}
		return -ll
	}, mu0, math.Log(s0)
}

// checkCountFitBitExact fails t unless the count fit agrees with the
// reference objective bit for bit: the same verdict on the sample, the
// same start, the same objective value at every point the reference's
// simplex visits, and the same fitted parameters.
func checkCountFitBitExact(t testing.TB, xs []float64) {
	t.Helper()
	o, err := newCountLL(xs)
	refNegLL, refMu0, refT0 := refCountObjective(xs)
	if (err != nil) != (refNegLL == nil) {
		t.Fatalf("count fit: error %v, reference accepts %v", err, refNegLL != nil)
	}
	if err != nil {
		return
	}
	checkBits(t, "count fit start", []float64{o.mu0, o.t0}, []float64{refMu0, refT0})
	mu, tt := checkPath(t, "count fit", o.negLL, refNegLL, refMu0, refT0, 0.2)
	got, err := FitLognormalCounts(xs)
	if err != nil {
		t.Fatalf("count fit: %v", err)
	}
	checkBits(t, "count fit", []float64{got.Mu, got.Sigma}, []float64{mu, math.Exp(tt)})
}

func refKS(xs []float64, d Dist) float64 {
	if len(xs) == 0 || d == nil {
		return math.NaN()
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	maxD := 0.0
	for i, x := range sorted {
		f := d.CDF(x)
		if math.IsNaN(f) || math.IsNaN(x) {
			return math.NaN()
		}
		if diff := math.Abs(f - float64(i)/n); diff > maxD {
			maxD = diff
		}
		if diff := math.Abs(f - float64(i+1)/n); diff > maxD {
			maxD = diff
		}
	}
	return maxD
}

// checkKernelsBitExact fails t unless both truncated kernels, built on
// xs under the (lo, hi) window, agree with the reference kernels bit for
// bit: the same start, the same objective value at every point the
// reference's simplex visits, the same fitted parameters, and the same
// KS distance of the fit through KS and through KSSorted. Comparing the
// objective along the whole path matters: Nelder–Mead often absorbs a
// one-ulp change in the objective without moving its answer, so equal
// parameters alone would let a rounding change through. xs is not
// modified.
func checkKernelsBitExact(t testing.TB, xs []float64, lo, hi float64) {
	t.Helper()
	if checkSample(xs, 3) != nil {
		return // both fitters refuse before building an objective
	}

	o, err := newTruncatedLognormalLL(xs, lo, hi)
	refNegLL, refMu0, refT0 := refTruncatedLognormalObjective(xs, lo, hi)
	if (err != nil) != (refNegLL == nil) {
		t.Fatalf("truncated lognormal: zero-variance verdicts differ (n=%d)", len(xs))
	}
	if err == nil {
		checkBits(t, "truncated lognormal start", []float64{o.mu0, o.t0}, []float64{refMu0, refT0})
		mu, tt := checkPath(t, "truncated lognormal", o.negLL, refNegLL, refMu0, refT0, 0.3)
		ref := Lognormal{Sigma: math.Exp(tt), Mu: mu}
		got, err := fitTruncatedLognormal(xs, lo, hi)
		if err != nil {
			t.Fatalf("truncated lognormal: %v", err)
		}
		checkBits(t, "truncated lognormal fit", []float64{got.Mu, got.Sigma}, []float64{ref.Mu, ref.Sigma})
		checkKS(t, "truncated lognormal", xs, got, ref)
	}

	w := newTruncatedWeibullLL(xs, lo, hi)
	refWNegLL, refL0 := refTruncatedWeibullObjective(xs, lo, hi)
	checkBits(t, "truncated Weibull start", []float64{w.l0}, []float64{refL0})
	la, ll2 := checkPath(t, "truncated Weibull", w.negLL, refWNegLL, 0, refL0, 0.3)
	ref := Weibull{Alpha: math.Exp(la), Lambda: math.Exp(ll2)}
	got, err := fitTruncatedWeibull(xs, lo, hi)
	if err != nil {
		t.Fatalf("truncated Weibull: %v", err)
	}
	checkBits(t, "truncated Weibull fit", []float64{got.Alpha, got.Lambda}, []float64{ref.Alpha, ref.Lambda})
	checkKS(t, "truncated Weibull", xs, got, ref)
}

// checkPath minimizes the reference objective from (a0, b0) with the
// fitter's initial step, as the fitters do, asserts the optimized objective's bits at every point the
// simplex evaluates, and returns the reference optimum.
func checkPath(t testing.TB, name string, f, ref func(a, b float64) float64, a0, b0, step float64) (float64, float64) {
	t.Helper()
	evals := 0
	a, b := minimize2(func(a, b float64) float64 {
		evals++
		want := ref(a, b)
		if got := f(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: objective(%v, %v) = %v, reference %v (evaluation %d)", name, a, b, got, want, evals)
		}
		return want
	}, a0, b0, step, step)
	return a, b
}

func checkBits(t testing.TB, name string, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d = %v, reference %v", name, i, got[i], want[i])
		}
	}
}

func checkKS(t testing.TB, name string, xs []float64, got, ref Dist) {
	t.Helper()
	want := refKS(xs, ref)
	sorted := append([]float64(nil), xs...)
	SortPositive(sorted, make([]float64, len(sorted)))
	checkBits(t, name+" KS", []float64{KS(xs, got), KSSorted(sorted, got)}, []float64{want, want})
}

// windowSample draws n lognormal(µ=4, σ=1.5) variates inside (lo, hi] —
// the paper's duration shape, conditioned as a composite fit's body or
// tail would be.
func windowSample(seed uint64, n int, lo, hi float64) []float64 {
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	xs := make([]float64, 0, n)
	for len(xs) < n {
		if x := math.Exp(4 + 1.5*rng.NormFloat64()); x > lo && x <= hi {
			xs = append(xs, x)
		}
	}
	return xs
}

// TestKernelsMatchReference pins the optimized truncated fitters and KS
// to the reference kernels bit for bit over seeded samples: the body
// windows of Tables A.3 (0, 45] and A.1 (64, 120], and the tail beyond
// each split, at sizes from the fitters' minimum to a typical slice.
func TestKernelsMatchReference(t *testing.T) {
	windows := [][2]float64{{0, 45}, {64, 120}, {45, math.Inf(1)}, {120, math.Inf(1)}}
	for _, n := range []int{3, 30, 3000} {
		for _, w := range windows {
			for seed := uint64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("n=%d/window=(%g,%g)/seed=%d", n, w[0], w[1], seed), func(t *testing.T) {
					checkKernelsBitExact(t, windowSample(seed, n, w[0], w[1]), w[0], w[1])
				})
			}
		}
	}
}

// TestCountFitMatchesReference pins FitLognormalCounts to its reference
// bit for bit on rounded lognormal counts shaped like Table A.2's: mostly
// ones (the Asian rows) through long-tailed (the European rows).
func TestCountFitMatchesReference(t *testing.T) {
	for _, mu := range []float64{-0.5, 0.5, 1.5} {
		for _, n := range []int{2, 50, 5000} {
			rng := rand.New(rand.NewPCG(uint64(n), math.Float64bits(mu)))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = max(math.Round(math.Exp(mu+1.2*rng.NormFloat64())), 1)
			}
			checkCountFitBitExact(t, xs)
		}
	}
}
