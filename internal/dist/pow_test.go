package dist

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// powSpecialBases are the bases that must take math.Pow's own path, plus
// the edges of the exact range.
var powSpecialBases = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022,
	math.Inf(1), math.Inf(-1), math.NaN(), -1, -2.5, 1, math.MaxFloat64,
	powMinBase, math.Nextafter(powMinBase, 0), math.Nextafter(powMinBase, 1),
	powMaxBase, math.Nextafter(powMaxBase, 0), math.Nextafter(powMaxBase, math.Inf(1)),
}

// checkPow fails t unless fixedPow agrees with math.Pow bit for bit.
func checkPow(t testing.TB, p fixedPow, x float64) {
	if got, want := p.of(x), math.Pow(x, p.y); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("fixedPow(%v).of(%v) = %v (%#x), math.Pow %v (%#x)",
			p.y, x, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPowMatchesMathPow compares fixedPow with math.Pow on over 10⁷
// (x, y) pairs. The exponents cover the Weibull fitter's α = e^[−4, 4]
// (its |ln α| ≤ 4 clamp), the 1/α a Weibull quantile raises to, the
// integers 1–60, the half-integers, and the values that must fall back;
// the bases cover e^[−40, 40], so both the exact path and the fallback
// run, and the special values.
func TestPowMatchesMathPow(t *testing.T) {
	rng := rand.New(rand.NewPCG(2004, 42))
	var ys []float64
	for range 2000 {
		alpha := math.Exp(-4 + 8*rng.Float64())
		ys = append(ys, alpha, 1/alpha)
	}
	for i := 1; i <= 61; i++ {
		ys = append(ys, float64(i), float64(i)-0.5, math.Nextafter(float64(i), 0),
			math.Nextafter(float64(i)-0.5, math.Inf(1)))
	}
	ys = append(ys, 0, math.Copysign(0, -1), -0.5, -1, -2.5, 1e-300, math.Nextafter(powMaxExp, math.Inf(1)),
		1e6, math.Inf(1), math.Inf(-1), math.NaN())
	xs := append([]float64(nil), powSpecialBases...)
	for len(xs) < 2600 {
		xs = append(xs, math.Exp(-40+80*rng.Float64()))
	}
	pairs := 0
	for _, y := range ys {
		p := newFixedPow(y)
		for _, x := range xs {
			checkPow(t, p, x)
		}
		pairs += len(xs)
	}
	if pairs < 10_000_000 {
		t.Fatalf("checked %d pairs, want at least 10⁷", pairs)
	}
}

// FuzzPow asserts fixedPow's contract on arbitrary (x, y): math.Pow's
// exact bits.
func FuzzPow(f *testing.F) {
	for _, x := range powSpecialBases {
		f.Add(x, 1.7)
	}
	for _, y := range []float64{0, -1, 0.5, 1, 2, 2.5, 60, 60.5, 1 / 0.37, math.NaN(), math.Inf(1)} {
		f.Add(3.3, y)
	}
	f.Fuzz(func(t *testing.T, x, y float64) {
		checkPow(t, newFixedPow(y), x)
	})
}

// TestSortPositiveMatchesSortFloat64s holds SortPositive to
// sort.Float64s bit for bit on both sides of the radix threshold, with
// ties, values spanning many binary exponents and values apart in a
// single byte, and on inputs that must take the comparison sort: a zero,
// a negative, an infinity, a NaN, and too little scratch.
func TestSortPositiveMatchesSortFloat64s(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	check := func(name string, xs, scratch []float64) {
		t.Helper()
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		SortPositive(xs, scratch)
		for i := range want {
			if math.Float64bits(xs[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s n=%d: [%d] = %v, sort.Float64s %v", name, len(xs), i, xs[i], want[i])
			}
		}
	}
	for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 10_000, 100_000} {
		spread := make([]float64, n)
		for i := range spread {
			spread[i] = math.Exp(-600 + 1200*rng.Float64())
		}
		check("spread", spread, make([]float64, n))

		ties := make([]float64, n)
		for i := range ties {
			ties[i] = float64(1 + rng.IntN(7))
		}
		check("ties", ties, make([]float64, n))

		// Values apart in one mantissa byte only, so that every byte's
		// pass decides some pair's order.
		digits := make([]float64, n)
		for i := range digits {
			digits[i] = math.Float64frombits(math.Float64bits(1.5) ^ uint64(rng.IntN(256))<<(8*rng.IntN(6)))
		}
		check("digits", digits, make([]float64, n))

		if n == 0 {
			continue
		}
		lognormal := make([]float64, n)
		for i := range lognormal {
			lognormal[i] = math.Exp(4 + 1.5*rng.NormFloat64())
		}
		check("short scratch", append([]float64(nil), lognormal...), make([]float64, n-1))
		for _, bad := range []float64{0, -3, math.Inf(1), math.NaN()} {
			xs := append([]float64(nil), lognormal...)
			xs[rng.IntN(n)] = bad
			check("fallback", xs, make([]float64, n))
		}
		check("lognormal", lognormal, make([]float64, n))
	}
}
