package dist

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
)

// benchSample draws a lognormal(µ=4, σ=1.5) sample — the shape of the
// paper's duration and interarrival data — deterministic per size so
// every run fits the same bytes.
func benchSample(n int) []float64 {
	rng := rand.New(rand.NewPCG(2004, uint64(n)))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(4 + 1.5*rng.NormFloat64())
	}
	return xs
}

// The fitter benchmarks size the Nelder–Mead cost at the sample volumes
// the full-scale run actually feeds the appendix fits (the per-(region,
// period) slices of 4.36 M sessions reach the 10^5–10^6 range). Each
// simplex evaluation of the Weibull body is a full pass over the sample,
// so ns/op scales linearly in n at a fixed iteration budget.
//
// Where that pass goes, from CPU profiles of BenchmarkKSPValueBootstrap
// at n=1k (-cpu 1, 2-core x86-64 Xeon VM). Before the per-sample logs
// left the truncated objectives, the Weibull objective was 90 % of the
// bootstrap: math.Pow 61 %, the three logarithms it took per sample per
// evaluation 27 %, replicate copy-and-sort 3 %. With ln x taken once per
// fit and the ln α + α ln λ prefix once per evaluation, math.Pow alone
// was 84 %, and a third of that was its per-call overhead (Modf, Frexp,
// Ldexp, the special-case switch), not Exp and Log; the sort was 4 %.
// fixedPow (pow.go) splits the exponent once per evaluation and keeps
// math.Pow's bits, and SortPositive radix-sorts the replicates: ns/op
// 107 → 61 ms at n=1k and 1,107 → 615 ms at n=10k (three alternating
// runs each). The power is now 78 % of the bootstrap, and Exp alone 50 %;
// the sort is under 2 %. What is left to cut is the number of
// evaluations (the iteration budget, warm starts) or Exp and Log
// themselves, and both move bits.

// BenchmarkFitLognormal is the closed-form (moment) fit — the baseline
// the iterative fitters are compared against.
func BenchmarkFitLognormal(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FitLognormal(xs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitBimodalLognormal exercises the Table A.1 composite: two
// truncated-MLE Nelder–Mead optimizations per call.
func BenchmarkFitBimodalLognormal(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FitBimodalLognormal(xs, 64, 600); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitLognormalPareto exercises the Table A.4 composite: one
// Nelder–Mead body plus the closed-form Hill tail.
func BenchmarkFitLognormalPareto(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FitLognormalPareto(xs, 1, 300); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKSDistance isolates the verdict cost that follows every fit
// (sort + two-sided sup walk).
func BenchmarkKSDistance(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			d := Lognormal{Mu: 4, Sigma: 1.5}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v := KS(xs, d); v <= 0 || v >= 1 {
					b.Fatalf("implausible KS distance %v", v)
				}
			}
		})
	}
}

// BenchmarkFitWeibullLognormal exercises the Table A.3 composite: a
// truncated Weibull body, whose objective pays a math.Pow per sample per
// simplex evaluation, plus a truncated lognormal tail.
func BenchmarkFitWeibullLognormal(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := FitWeibullLognormal(xs, 0, 45); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkKSPValueBootstrap is one fit slot's bootstrap verdict as
// internal/core runs it for Table A.3: 99 replicates, each drawn from
// the fitted Weibull–lognormal mixture into the one reused buffer,
// refitted as drawn, then sorted in place by SortPositive through the
// slot's one scratch buffer and measured by KSSorted.
func BenchmarkKSPValueBootstrap(b *testing.B) {
	fit := func(v []float64) (BodyTail, error) { return FitWeibullLognormal(v, 0, 45) }
	for _, n := range []int{1_000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			xs := benchSample(n)
			bt, err := fit(xs)
			if err != nil {
				b.Fatal(err)
			}
			observed := KS(xs, bt)
			scratch := make([]float64, n)
			spec := BootstrapSpec{
				N: n, B: 99, Seed: 1,
				Sample: func(rng *rand.Rand, out []float64) {
					for i := range out {
						out[i] = bt.Sample(rng)
					}
				},
				Distance: func(v []float64) float64 {
					bt2, err := fit(v)
					if err != nil {
						return math.NaN()
					}
					SortPositive(v, scratch)
					return KSSorted(v, bt2)
				},
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p := KSPValueBootstrap(observed, spec); math.IsNaN(p) {
					b.Fatal("bootstrap abandoned the estimate")
				}
			}
		})
	}
}

// BenchmarkSortPositive sizes SortPositive's two paths on replicate-sized
// lognormal samples: the radix sort it runs from radixMin values on, and
// the sort.Float64s it calls below. Iterations cycle through distinct
// samples, so the branch predictor cannot learn one sample's comparison
// sequence; each copies its sample in first, so both paths pay the same
// copy.
func BenchmarkSortPositive(b *testing.B) {
	for _, n := range []int{16, 32, 48, 64, 96, 128, 256, 512} {
		all := benchSample(max(64*n, 1<<16))
		srcs := make([][]float64, len(all)/n)
		for i := range srcs {
			srcs[i] = all[i*n : (i+1)*n]
		}
		xs, scratch := make([]float64, n), make([]float64, n)
		b.Run(fmt.Sprintf("n=%d/radix", n), func(b *testing.B) {
			for i := range b.N {
				copy(xs, srcs[i%len(srcs)])
				radixSort(xs, scratch)
			}
		})
		b.Run(fmt.Sprintf("n=%d/Float64s", n), func(b *testing.B) {
			for i := range b.N {
				copy(xs, srcs[i%len(srcs)])
				sort.Float64s(xs)
			}
		})
	}
}
