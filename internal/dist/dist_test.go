package dist

import (
	"math"
	"math/rand/v2"
	"testing"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x9e3779b9)) }

func absErr(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestLognormalClosedForm(t *testing.T) {
	l := Lognormal{Sigma: 1.5, Mu: 2}
	absErr(t, "mean", l.Mean(), math.Exp(2+1.5*1.5/2), 1e-12)
	absErr(t, "median", l.Median(), math.Exp(2.0), 1e-12)
	// CDF at the median is exactly 1/2; quantile inverts the CDF.
	absErr(t, "CDF(median)", l.CDF(l.Median()), 0.5, 1e-12)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		absErr(t, "CDF(Quantile(p))", l.CDF(l.Quantile(p)), p, 1e-9)
	}
	if l.CDF(0) != 0 || l.CDF(-1) != 0 {
		t.Error("lognormal CDF must vanish at non-positive x")
	}
}

func TestWeibullClosedForm(t *testing.T) {
	w := Weibull{Alpha: 1.477, Lambda: 0.005252}
	// Mean = Γ(1+1/α)/λ.
	absErr(t, "mean", w.Mean(), math.Gamma(1+1/1.477)/0.005252, 1e-9)
	absErr(t, "median", w.Median(), math.Pow(math.Ln2, 1/1.477)/0.005252, 1e-9)
	absErr(t, "CDF(median)", w.CDF(w.Median()), 0.5, 1e-12)
	for _, p := range []float64{0.01, 0.5, 0.99} {
		absErr(t, "CDF(Quantile(p))", w.CDF(w.Quantile(p)), p, 1e-9)
	}
	// α = 1 degenerates to the exponential law: CDF(1/λ) = 1 − 1/e.
	e := Weibull{Alpha: 1, Lambda: 0.25}
	absErr(t, "exponential CDF", e.CDF(4), 1-math.Exp(-1), 1e-12)
}

func TestParetoClosedForm(t *testing.T) {
	p := Pareto{Alpha: 1.143, Beta: 103}
	absErr(t, "mean", p.Mean(), 1.143*103/(1.143-1), 1e-9)
	if m := (Pareto{Alpha: 0.9041, Beta: 103}).Mean(); !math.IsInf(m, 1) {
		t.Errorf("α<1 Pareto mean = %v, want +Inf", m)
	}
	absErr(t, "median", p.Median(), 103*math.Pow(2, 1/1.143), 1e-9)
	absErr(t, "CDF(median)", p.CDF(p.Median()), 0.5, 1e-12)
	if p.CDF(103) != 0 || p.CDF(50) != 0 {
		t.Error("Pareto CDF must vanish at or below β")
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		absErr(t, "CDF(Quantile(q))", p.CDF(p.Quantile(q)), q, 1e-9)
	}
}

func TestSampleMomentsMatch(t *testing.T) {
	// Monte-Carlo means within 3σ of the closed forms.
	rng := newRNG(1)
	const n = 200000
	check := func(name string, d Dist, want, tol float64) {
		t.Helper()
		var sum float64
		for i := 0; i < n; i++ {
			sum += d.Sample(rng)
		}
		absErr(t, name+" sample mean", sum/n, want, tol)
	}
	ln := Lognormal{Sigma: 1.0, Mu: 2}
	check("lognormal", ln, ln.Mean(), 0.25)
	w := Weibull{Alpha: 1.3, Lambda: 0.02}
	check("weibull", w, w.Mean(), 0.5)
	p := Pareto{Alpha: 3, Beta: 10}
	check("pareto", p, p.Mean(), 0.1)
}

func TestBodyTailShape(t *testing.T) {
	// The NA peak passive-duration model of Table A.1.
	body := Lognormal{Sigma: 2.502, Mu: 2.108}
	tail := Lognormal{Sigma: 2.749, Mu: 6.397}
	d := NewBodyTail(body, 64, 120, 0.75, tail)
	if got := d.CDF(64); got != 0 {
		t.Errorf("CDF(lo) = %v, want 0", got)
	}
	absErr(t, "CDF(hi)", d.CDF(120), 0.75, 1e-12)
	if d.CDF(1) != 0 {
		t.Error("CDF below lo must be 0")
	}
	if got := d.CDF(math.Inf(1)); math.Abs(got-1) > 1e-9 {
		t.Errorf("CDF(∞) = %v", got)
	}
	// Monotone non-decreasing.
	prev := 0.0
	for x := 64.0; x < 1e6; x *= 1.5 {
		c := d.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %v: %v < %v", x, c, prev)
		}
		prev = c
	}
	// Quantile inverts the CDF on both segments.
	for _, p := range []float64{0.1, 0.5, 0.74, 0.76, 0.9, 0.99} {
		absErr(t, "CDF(Quantile(p))", d.CDF(d.Quantile(p)), p, 1e-9)
	}
	// Samples respect the support split.
	rng := newRNG(2)
	nBody := 0
	const n = 20000
	for i := 0; i < n; i++ {
		x := d.Sample(rng)
		if x < 64 {
			t.Fatalf("sample %v below lo", x)
		}
		if x <= 120 {
			nBody++
		}
	}
	absErr(t, "body share of samples", float64(nBody)/n, 0.75, 0.01)
}

func TestBodyTailParetoTail(t *testing.T) {
	// Pareto tail with β = hi needs no conditioning: CDF just above hi
	// starts at frac and the tail exponent governs the decay.
	d := NewBodyTail(Lognormal{Sigma: 1.625, Mu: 3.353}, 0, 103, 0.705,
		Pareto{Alpha: 0.9041, Beta: 103})
	absErr(t, "CDF(103)", d.CDF(103), 0.705, 1e-12)
	absErr(t, "CDF(100)", d.CDF(100), 0.70, 0.01) // the Figure 8(a) anchor
	if d.CDF(0) != 0 {
		t.Error("CDF(0) must be 0")
	}
}

func TestKSAgainstOwnSamples(t *testing.T) {
	rng := newRNG(3)
	l := Lognormal{Sigma: 1.2, Mu: 1}
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = l.Sample(rng)
	}
	if ks := KS(xs, l); ks > 0.03 {
		t.Errorf("KS against generating law = %v, want small", ks)
	}
	// A clearly wrong model scores a large distance.
	if ks := KS(xs, Lognormal{Sigma: 0.3, Mu: 4}); ks < 0.3 {
		t.Errorf("KS against wrong law = %v, want large", ks)
	}
}

func TestKSDegenerate(t *testing.T) {
	if !math.IsNaN(KS(nil, Lognormal{Sigma: 1, Mu: 0})) {
		t.Error("empty sample should give NaN")
	}
	if !math.IsNaN(KS([]float64{1, math.NaN()}, Lognormal{Sigma: 1, Mu: 0})) {
		t.Error("NaN sample should give NaN")
	}
	if !math.IsNaN(KS([]float64{1, 2}, nil)) {
		t.Error("nil dist should give NaN")
	}
	if ks := KS([]float64{5, 5, 5}, Lognormal{Sigma: 1, Mu: math.Log(5)}); math.IsNaN(ks) || ks > 0.51 {
		t.Errorf("constant sample KS = %v", ks)
	}
}

func TestKS2(t *testing.T) {
	rng := newRNG(4)
	l := Lognormal{Sigma: 1, Mu: 0}
	xs := make([]float64, 4000)
	ys := make([]float64, 4000)
	zs := make([]float64, 4000)
	for i := range xs {
		xs[i] = l.Sample(rng)
		ys[i] = l.Sample(rng)
		zs[i] = l.Sample(rng) * 3
	}
	if d := KS2(xs, ys); d > 0.05 {
		t.Errorf("same-law two-sample KS = %v", d)
	}
	if d := KS2(xs, zs); d < 0.2 {
		t.Errorf("shifted-law two-sample KS = %v, want large", d)
	}
	if !math.IsNaN(KS2(nil, xs)) || !math.IsNaN(KS2(xs, nil)) {
		t.Error("empty side should give NaN")
	}
	if !math.IsNaN(KS2([]float64{1, math.NaN()}, xs)) {
		t.Error("NaN should give NaN")
	}
	// Cross-sample ties must not inflate the distance: identical samples
	// are at distance exactly 0, and integer-valued samples with shared
	// support measure only the real ECDF gap.
	if d := KS2([]float64{1, 2, 3}, []float64{1, 2, 3}); d != 0 {
		t.Errorf("identical samples KS2 = %v, want 0", d)
	}
	if d := KS2([]float64{1, 1, 2, 2}, []float64{1, 2, 2, 2}); math.Abs(d-0.25) > 1e-12 {
		t.Errorf("tied samples KS2 = %v, want 0.25", d)
	}
}

func TestZipfRankerPMF(t *testing.T) {
	z := NewZipf(0.386, 100)
	if z.Ranks() != 100 {
		t.Fatalf("Ranks = %d", z.Ranks())
	}
	var total float64
	for r := 1; r <= 100; r++ {
		total += z.PMF(r)
	}
	absErr(t, "PMF total", total, 1, 1e-9)
	// P(r) ∝ r^−α: exact ratio check.
	absErr(t, "PMF ratio", z.PMF(1)/z.PMF(2), math.Pow(2, 0.386), 1e-9)
	if z.PMF(0) != 0 || z.PMF(101) != 0 {
		t.Error("PMF outside [1, n] must be 0")
	}
}

func TestTwoSegmentZipfKnee(t *testing.T) {
	z := NewTwoSegmentZipf(0.453, 4.67, 45, 100)
	// Continuous at the split: weight(46)/weight(45) follows the tail law.
	want := math.Pow(46.0/45.0, -4.67) * math.Pow(45.0/45.0, 0.453)
	absErr(t, "knee ratio", z.PMF(46)/z.PMF(45), want, 1e-9)
	// Body follows α, tail follows tailAlpha.
	absErr(t, "body ratio", z.PMF(10)/z.PMF(20), math.Pow(2, 0.453), 1e-9)
	absErr(t, "tail ratio", z.PMF(50)/z.PMF(100), math.Pow(2, 4.67), 1e-9)
	var total float64
	for r := 1; r <= z.Ranks(); r++ {
		total += z.PMF(r)
	}
	absErr(t, "PMF total", total, 1, 1e-9)
}

func TestRankerSamplesFollowPMF(t *testing.T) {
	z := NewZipf(1.0, 10)
	rng := newRNG(5)
	const n = 200000
	counts := make([]int, 11)
	for i := 0; i < n; i++ {
		r := z.SampleRank(rng)
		if r < 1 || r > 10 {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	for r := 1; r <= 10; r++ {
		absErr(t, "rank freq", float64(counts[r])/n, z.PMF(r), 0.005)
	}
}

func TestNormQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-10, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9} {
		z := normQuantile(p)
		absErr(t, "Φ(Φ⁻¹(p))", normCDF(z), p, 1e-9*math.Max(1, math.Abs(z)))
	}
	if !math.IsInf(normQuantile(0), -1) || !math.IsInf(normQuantile(1), 1) {
		t.Error("endpoints must map to ±Inf")
	}
	if !math.IsNaN(normQuantile(-0.1)) || !math.IsNaN(normQuantile(1.1)) {
		t.Error("out-of-range p must be NaN")
	}
}
