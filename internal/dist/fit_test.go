package dist

import (
	"math"
	"testing"
)

// The recovery tolerances below are documented contracts: each fitter,
// given a deterministic synthetic sample of the stated size from known
// parameters, must land within the stated distance of them.

func TestFitLognormalRecovery(t *testing.T) {
	rng := newRNG(11)
	want := Lognormal{Sigma: 1.5, Mu: 2}
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = want.Sample(rng)
	}
	got, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	absErr(t, "µ", got.Mu, want.Mu, 0.03)
	absErr(t, "σ", got.Sigma, want.Sigma, 0.03)
	if ks := KS(xs, got); ks > 0.02 {
		t.Errorf("KS of fit = %v", ks)
	}
}

func TestFitLognormalErrors(t *testing.T) {
	cases := map[string][]float64{
		"empty":        nil,
		"single":       {1},
		"non-positive": {1, 0, 2},
		"negative":     {1, -3, 2},
		"inf":          {1, math.Inf(1)},
		"nan":          {1, math.NaN(), 2},
		"constant":     {4, 4, 4, 4},
	}
	for name, xs := range cases {
		if _, err := FitLognormal(xs); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestFitLognormalCountsRecovery(t *testing.T) {
	// The Table A.2 situation: a continuous lognormal observed only as
	// round(X) clamped to >= 1. The EU parameters make ~35% of counts
	// collapse to 1; the censored fitter must still see through that.
	rng := newRNG(13)
	want := Lognormal{Sigma: 1.306, Mu: 0.520}
	xs := make([]float64, 30000)
	for i := range xs {
		n := math.Round(want.Sample(rng))
		if n < 1 {
			n = 1
		}
		xs[i] = n
	}
	got, err := FitLognormalCounts(xs)
	if err != nil {
		t.Fatal(err)
	}
	absErr(t, "µ", got.Mu, want.Mu, 0.08)
	absErr(t, "σ", got.Sigma, want.Sigma, 0.08)

	// The naive continuous fit on the same counts must be visibly worse
	// on µ or σ — otherwise the censored machinery is pointless.
	naive, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	naiveErr := math.Abs(naive.Mu-want.Mu) + math.Abs(naive.Sigma-want.Sigma)
	censErr := math.Abs(got.Mu-want.Mu) + math.Abs(got.Sigma-want.Sigma)
	if censErr >= naiveErr {
		t.Errorf("censored fit (err %v) should beat naive fit (err %v)", censErr, naiveErr)
	}
}

func TestFitLognormalCountsErrors(t *testing.T) {
	if _, err := FitLognormalCounts([]float64{1, 1, 1}); err == nil {
		t.Error("constant counts: expected error")
	}
	if _, err := FitLognormalCounts([]float64{0.2, 3}); err == nil {
		t.Error("sub-unit count: expected error")
	}
	if _, err := FitLognormalCounts(nil); err == nil {
		t.Error("empty: expected error")
	}
}

func TestFitBimodalLognormalRecovery(t *testing.T) {
	// Round trip through the Table A.1 NA peak model.
	body := Lognormal{Sigma: 2.502, Mu: 2.108}
	tail := Lognormal{Sigma: 2.749, Mu: 6.397}
	gen := NewBodyTail(body, 64, 120, 0.75, tail)
	rng := newRNG(17)
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = gen.Sample(rng)
	}
	fit, err := FitBimodalLognormal(xs, 64, 120)
	if err != nil {
		t.Fatal(err)
	}
	absErr(t, "body weight", fit.BodyWeight, 0.75, 0.01)
	// The tail is identifiable (its window is unbounded): µ/σ within 0.2.
	tl, ok := fit.Tail.(Lognormal)
	if !ok {
		t.Fatalf("tail type %T", fit.Tail)
	}
	absErr(t, "tail µ", tl.Mu, tail.Mu, 0.2)
	absErr(t, "tail σ", tl.Sigma, tail.Sigma, 0.2)
	// The body's (µ, σ) are only weakly identifiable on a window this
	// narrow; the mixture as a whole must still match the sample.
	if ks := KS(xs, fit); ks > 0.02 {
		t.Errorf("mixture KS = %v", ks)
	}
}

func TestFitWeibullLognormalRecovery(t *testing.T) {
	// A Table A.3-shaped model with a mild truncation so the Weibull body
	// parameters are identifiable: F(hi) ≈ 0.9 at the window edge.
	body := Weibull{Alpha: 1.2, Lambda: 0.02}
	tail := Lognormal{Sigma: 2.0, Mu: 6.0}
	gen := NewBodyTail(body, 0, 100, 0.8, tail)
	rng := newRNG(19)
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = gen.Sample(rng)
	}
	fit, err := FitWeibullLognormal(xs, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	absErr(t, "body weight", fit.BodyWeight, 0.8, 0.01)
	wb, ok := fit.Body.(Weibull)
	if !ok {
		t.Fatalf("body type %T", fit.Body)
	}
	absErr(t, "body α", wb.Alpha, body.Alpha, 0.1)
	if rel := math.Abs(wb.Lambda-body.Lambda) / body.Lambda; rel > 0.15 {
		t.Errorf("body λ = %v, want %v (±15%%)", wb.Lambda, body.Lambda)
	}
	tl := fit.Tail.(Lognormal)
	absErr(t, "tail µ", tl.Mu, tail.Mu, 0.2)
	absErr(t, "tail σ", tl.Sigma, tail.Sigma, 0.2)
	if ks := KS(xs, fit); ks > 0.02 {
		t.Errorf("mixture KS = %v", ks)
	}
}

func TestFitLognormalParetoRecovery(t *testing.T) {
	// Round trip through the Table A.4 NA peak model. The Pareto shape
	// uses the exact Hill MLE, so its tolerance is tight.
	body := Lognormal{Sigma: 1.625, Mu: 3.353}
	tailWant := Pareto{Alpha: 0.9041, Beta: 103}
	gen := NewBodyTail(body, 0, 103, 0.705, tailWant)
	rng := newRNG(23)
	xs := make([]float64, 30000)
	for i := range xs {
		xs[i] = gen.Sample(rng)
	}
	fit, err := FitLognormalPareto(xs, 0, 103)
	if err != nil {
		t.Fatal(err)
	}
	absErr(t, "body weight", fit.BodyWeight, 0.705, 0.01)
	pt, ok := fit.Tail.(Pareto)
	if !ok {
		t.Fatalf("tail type %T", fit.Tail)
	}
	absErr(t, "tail α", pt.Alpha, tailWant.Alpha, 0.03)
	if pt.Beta != 103 {
		t.Errorf("tail β = %v, want the split", pt.Beta)
	}
	// Body here is left-anchored at 0, so (µ, σ) are identifiable.
	bl := fit.Body.(Lognormal)
	absErr(t, "body µ", bl.Mu, body.Mu, 0.1)
	absErr(t, "body σ", bl.Sigma, body.Sigma, 0.1)
	if ks := KS(xs, fit); ks > 0.02 {
		t.Errorf("mixture KS = %v", ks)
	}
}

func TestBodyTailFitErrors(t *testing.T) {
	// All mass on one side of the split must error, not panic.
	rng := newRNG(29)
	low := make([]float64, 100)
	for i := range low {
		low[i] = 1 + rng.Float64()*50
	}
	if _, err := FitBimodalLognormal(low, 0, 1000); err == nil {
		t.Error("no tail samples: expected error")
	}
	if _, err := FitLognormalPareto(low, 0, 1000); err == nil {
		t.Error("no tail samples: expected error")
	}
	if _, err := FitWeibullLognormal(low, 0, 1000); err == nil {
		t.Error("no tail samples: expected error")
	}
	if _, err := FitBimodalLognormal([]float64{1, 2}, 0, 1.5); err == nil {
		t.Error("tiny sample: expected error")
	}
	if _, err := FitBimodalLognormal([]float64{1, -2, 3, 2000, 3000, 4000}, 0, 1000); err == nil {
		t.Error("negative sample: expected error")
	}
}

func TestFitZipfExact(t *testing.T) {
	// An exact power law must be recovered to numerical precision.
	freqs := make([]float64, 100)
	for r := 1; r <= 100; r++ {
		freqs[r-1] = 0.2 * math.Pow(float64(r), -0.453)
	}
	fit, err := FitZipf(freqs)
	if err != nil {
		t.Fatal(err)
	}
	absErr(t, "α", fit.Alpha, 0.453, 1e-9)
	absErr(t, "C", fit.C, math.Log(0.2), 1e-9)
	absErr(t, "R²", fit.R2, 1, 1e-9)
	if fit.N != 100 {
		t.Errorf("N = %d", fit.N)
	}
}

func TestFitZipfRangeTwoSegment(t *testing.T) {
	// The Figure 11(c) shape: a two-segment ranker's PMF, fitted per
	// segment, returns each segment's exponent exactly.
	z := NewTwoSegmentZipf(0.453, 4.67, 45, 100)
	freqs := make([]float64, 100)
	for r := 1; r <= 100; r++ {
		freqs[r-1] = z.PMF(r)
	}
	bodyFit, err := FitZipfRange(freqs, 1, 45)
	if err != nil {
		t.Fatal(err)
	}
	absErr(t, "body α", bodyFit.Alpha, 0.453, 1e-9)
	tailFit, err := FitZipfRange(freqs, 46, 100)
	if err != nil {
		t.Fatal(err)
	}
	absErr(t, "tail α", tailFit.Alpha, 4.67, 1e-9)
}

func TestFitZipfSampledRecovery(t *testing.T) {
	// Sampled rank frequencies recover α within sampling noise.
	z := NewZipf(0.386, 500)
	rng := newRNG(31)
	counts := make([]float64, 500)
	const n = 400000
	for i := 0; i < n; i++ {
		counts[z.SampleRank(rng)-1]++
	}
	fit, err := FitZipf(counts[:100])
	if err != nil {
		t.Fatal(err)
	}
	absErr(t, "α", fit.Alpha, 0.386, 0.05)
	if fit.R2 < 0.8 {
		t.Errorf("R² = %v", fit.R2)
	}
}

func TestFitZipfErrors(t *testing.T) {
	cases := map[string][]float64{
		"empty":      nil,
		"single":     {3},
		"two":        {3, 2},
		"constant":   {5, 5, 5, 5},
		"nan":        {3, math.NaN(), 1},
		"inf":        {3, math.Inf(1), 1},
		"negative":   {3, -1, 1},
		"all zeros":  {0, 0, 0, 0},
		"one usable": {0, 7, 0, 0},
	}
	for name, freqs := range cases {
		if _, err := FitZipf(freqs); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// Zeros interleaved with enough positive points are fine.
	if _, err := FitZipf([]float64{8, 0, 4, 0, 2, 0, 1}); err != nil {
		t.Errorf("interleaved zeros: %v", err)
	}
}

func TestFitZipfRangeClamps(t *testing.T) {
	freqs := []float64{8, 4, 2, 1}
	if _, err := FitZipfRange(freqs, -5, 99); err != nil {
		t.Errorf("clamped range: %v", err)
	}
	if _, err := FitZipfRange(freqs, 3, 4); err == nil {
		t.Error("window with 2 points: expected error")
	}
}
