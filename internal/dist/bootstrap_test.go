package dist

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

func lognormalSample(seed uint64, n int, sigma, mu float64) []float64 {
	rng := rand.New(rand.NewPCG(seed, 1))
	m := Lognormal{Sigma: sigma, Mu: mu}
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = m.Sample(rng)
	}
	return xs
}

func lognormalBootSpec(n int, seed uint64, m Lognormal) BootstrapSpec {
	return BootstrapSpec{
		N:    n,
		B:    99,
		Seed: seed,
		Sample: func(rng *rand.Rand, out []float64) {
			for i := range out {
				out[i] = m.Sample(rng)
			}
		},
		Distance: func(xs []float64) float64 {
			m2, err := FitLognormal(xs)
			if err != nil {
				return math.NaN()
			}
			sort.Float64s(xs)
			return KSSorted(xs, m2)
		},
	}
}

// TestBootstrapAcceptsTrueModel: data truly drawn from a lognormal,
// refitted, must get a comfortable bootstrap p-value — the acceptance that
// the Lilliefors-biased asymptotic p also gives, now trustworthy.
func TestBootstrapAcceptsTrueModel(t *testing.T) {
	xs := lognormalSample(42, 400, 1.2, 2.0)
	m, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	obs := KS(xs, m)
	p := KSPValueBootstrap(obs, lognormalBootSpec(len(xs), 7, m))
	if math.IsNaN(p) || p < 0.05 {
		t.Fatalf("bootstrap rejected the true model: p=%v", p)
	}
}

// TestBootstrapRejectsWrongModel: data far from lognormal (a uniform
// lattice) must get a tiny bootstrap p-value.
func TestBootstrapRejectsWrongModel(t *testing.T) {
	n := 400
	xs := make([]float64, n)
	for i := range xs {
		// Uniform on [1, 2]: no lognormal fits this shape well.
		xs[i] = 1 + float64(i)/float64(n)
	}
	m, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	obs := KS(xs, m)
	p := KSPValueBootstrap(obs, lognormalBootSpec(n, 7, m))
	if !(p < 0.05) {
		t.Fatalf("bootstrap accepted a wrong model: p=%v", p)
	}
}

// TestBootstrapLessOptimisticThanAsymptotic quantifies the Lilliefors
// effect the bootstrap exists to fix: for true-model data the asymptotic
// p-value (which ignores that the model was fitted on the sample) is
// biased high; the bootstrap p must on average sit below it.
func TestBootstrapLessOptimisticThanAsymptotic(t *testing.T) {
	lowerCount, runs := 0, 20
	for r := 0; r < runs; r++ {
		xs := lognormalSample(uint64(100+r), 200, 0.9, 1.0)
		m, err := FitLognormal(xs)
		if err != nil {
			t.Fatal(err)
		}
		obs := KS(xs, m)
		asym := KSPValue(obs, len(xs))
		boot := KSPValueBootstrap(obs, lognormalBootSpec(len(xs), uint64(r), m))
		if boot < asym {
			lowerCount++
		}
	}
	if lowerCount < runs*3/4 {
		t.Fatalf("bootstrap p below asymptotic p in only %d/%d runs; expected the Lilliefors correction to dominate", lowerCount, runs)
	}
}

// TestBootstrapDeterministic: same spec, same p — the property the
// byte-identical report depends on.
func TestBootstrapDeterministic(t *testing.T) {
	xs := lognormalSample(9, 150, 1.0, 0.5)
	m, err := FitLognormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	obs := KS(xs, m)
	a := KSPValueBootstrap(obs, lognormalBootSpec(len(xs), 3, m))
	b := KSPValueBootstrap(obs, lognormalBootSpec(len(xs), 3, m))
	if a != b {
		t.Fatalf("same seed produced %v and %v", a, b)
	}
	c := KSPValueBootstrap(obs, lognormalBootSpec(len(xs), 4, m))
	if a == c {
		t.Log("different seeds produced equal p-values (possible on the 1/100 grid, not an error)")
	}
}

// TestBootstrapTopsUpFailedRefits: B counts valid replicates — a refit
// that fails intermittently must be replaced by a fresh draw so the
// p-value keeps its 1/(B+1) resolution, while a refit that always fails
// (beyond the 2×B attempt budget) abandons the estimate as NaN instead of
// quietly coarsening the grid.
func TestBootstrapTopsUpFailedRefits(t *testing.T) {
	m := Lognormal{Sigma: 1, Mu: 0}
	calls := 0
	spec := lognormalBootSpec(100, 1, m)
	inner := spec.Distance
	spec.Distance = func(xs []float64) float64 {
		calls++
		if calls%2 == 0 { // every other refit "fails"
			return math.NaN()
		}
		return inner(xs)
	}
	// A huge observed distance: with the full B=99 valid replicates the
	// p-value must sit on the fine grid at its minimum, 1/(B+1) — failed
	// refits must not have coarsened it.
	p := KSPValueBootstrap(0.99, spec)
	if want := 1.0 / float64(spec.B+1); math.Abs(p-want) > 1e-12 {
		t.Errorf("p = %v with intermittent refit failures, want the full-resolution minimum %v", p, want)
	}
	if calls < 2*spec.B-2 {
		t.Errorf("only %d attempts recorded; top-up did not draw replacements", calls)
	}
}

// TestBootstrapDegenerate: bad inputs yield NaN, never panic, and the
// estimator never returns exactly zero.
func TestBootstrapDegenerate(t *testing.T) {
	m := Lognormal{Sigma: 1, Mu: 0}
	spec := lognormalBootSpec(100, 1, m)
	if !math.IsNaN(KSPValueBootstrap(math.NaN(), spec)) {
		t.Error("NaN observed distance must yield NaN")
	}
	bad := spec
	bad.B = 0
	if !math.IsNaN(KSPValueBootstrap(0.1, bad)) {
		t.Error("B=0 must yield NaN")
	}
	bad = spec
	bad.Sample = nil
	if !math.IsNaN(KSPValueBootstrap(0.1, bad)) {
		t.Error("nil Sample must yield NaN")
	}
	allFail := spec
	allFail.Distance = func([]float64) float64 { return math.NaN() }
	if !math.IsNaN(KSPValueBootstrap(0.1, allFail)) {
		t.Error("all-failed refits must yield NaN")
	}
	// An absurdly large observed distance: p bottoms out at 1/(1+B), not 0.
	if p := KSPValueBootstrap(0.99, spec); !(p > 0) || p > 1.0/50 {
		t.Errorf("huge distance: p=%v, want (0, 1/50]", p)
	}
}
