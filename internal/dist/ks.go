package dist

import (
	"math"
	"sort"
)

// KS returns the one-sample Kolmogorov–Smirnov statistic: the supremum
// distance between the sample's empirical CDF and the model's CDF. It is
// what the fit tables report as goodness of fit. Degenerate input (empty
// sample, NaN values) yields NaN, never a panic.
func KS(xs []float64, d Dist) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return KSSorted(sorted, d)
}

// KSSorted is KS over a sample already in ascending order (as
// sort.Float64s leaves it, NaNs first), skipping KS's copy and sort: a
// caller that owns its sample, such as a bootstrap replicate, sorts it in
// place and measures it here. On a sorted sample it returns exactly what
// KS returns.
func KSSorted(sorted []float64, d Dist) float64 {
	if len(sorted) == 0 || d == nil {
		return math.NaN()
	}
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

// radixMin is the shortest sample SortPositive radix-sorts: below it the
// eight 256-entry digit counts cost more than comparison sorting saves.
// On a 2-core x86-64 VM (one goroutine) both the bootstrap replicates the
// reanalyze-boot workload sorts and BenchmarkSortPositive's samples put
// the crossover between 56 and 96 values: at 64–80 values the radix sort
// took 2.6 µs a replicate against sort.Float64s' 3.2 µs, and at 48–56
// values 2.5 µs against 2.0 µs.
const radixMin = 64

// SortPositive sorts xs ascending, leaving exactly what sort.Float64s
// leaves. When every value is positive and finite and scratch holds at
// least len(xs) values, it runs an LSD radix sort over the float bits,
// one byte per pass, using scratch as the second buffer and skipping any
// byte every key shares: such values order as their IEEE-754 encodings
// do as unsigned integers, and equal values have equal bits, so the
// result is the same slice. Otherwise — fewer than radixMin values, too
// little scratch, or any zero, negative, infinite or NaN value — it calls
// sort.Float64s. scratch is overwritten; nil scratch always takes the
// comparison sort.
func SortPositive(xs, scratch []float64) {
	if len(xs) < radixMin || len(scratch) < len(xs) || !radixSort(xs, scratch) {
		sort.Float64s(xs)
	}
}

// radixSort is SortPositive's radix sort. It reports false, leaving xs
// as it was, when some value is not positive and finite.
func radixSort(xs, scratch []float64) bool {
	n := len(xs)
	var counts [8][256]int
	for _, x := range xs {
		if !(x > 0 && x <= math.MaxFloat64) {
			return false
		}
		b := math.Float64bits(x)
		for d := range counts {
			counts[d][byte(b>>(8*d))]++
		}
	}
	src, dst := xs, scratch[:n]
	for d := range counts {
		c := &counts[d]
		shift := 8 * d
		if c[byte(math.Float64bits(src[0])>>shift)] == n {
			continue
		}
		sum := 0
		for i, k := range c {
			c[i], sum = sum, sum+k
		}
		for _, x := range src {
			k := byte(math.Float64bits(x) >> shift)
			dst[c[k]] = x
			c[k]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	return true
}

// KSPValue returns the two-sided asymptotic p-value of a one-sample
// Kolmogorov–Smirnov distance d at sample size n: the probability that a
// sample truly drawn from the model shows a distance at least this large.
// It evaluates the Kolmogorov limiting distribution
//
//	Q(t) = 2 Σ_{k≥1} (−1)^{k−1} exp(−2k²t²)
//
// at Stephens' finite-n effective statistic t = d·(√n + 0.12 + 0.11/√n),
// accurate to a few 10⁻³ for n ≥ 5. Degenerate input yields NaN.
//
// Caveat for the fit tables: the appendix models are fitted on the same
// sample the distance is then measured on, which biases d low (the
// Lilliefors effect) and therefore biases this p-value high — a rejection
// is trustworthy, an acceptance is only a necessary condition.
func KSPValue(d float64, n int) float64 {
	if n <= 0 || math.IsNaN(d) || d < 0 {
		return math.NaN()
	}
	if d == 0 {
		return 1
	}
	if d >= 1 {
		return 0
	}
	sn := math.Sqrt(float64(n))
	t := d * (sn + 0.12 + 0.11/sn)
	var p float64
	if t < 1.18 {
		// The alternating series converges badly for small t; use the
		// theta-dual representation of the Kolmogorov CDF there
		// (Marsaglia, Tsang & Wang 2003).
		sum := 0.0
		for k := 1; k <= 20; k++ {
			m := float64(2*k - 1)
			term := math.Exp(-m * m * math.Pi * math.Pi / (8 * t * t))
			sum += term
			if term < 1e-16 {
				break
			}
		}
		p = 1 - math.Sqrt(2*math.Pi)/t*sum
	} else {
		sum := 0.0
		sign := 1.0
		for k := 1; k <= 100; k++ {
			term := math.Exp(-2 * float64(k) * float64(k) * t * t)
			sum += sign * term
			sign = -sign
			if term < 1e-12 {
				break
			}
		}
		p = 2 * sum
	}
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// KSReject reports whether the fit should be rejected at significance
// level alpha: the observed distance d at sample size n is too large to be
// sampling noise. Degenerate input never rejects.
func KSReject(d float64, n int, alpha float64) bool {
	p := KSPValue(d, n)
	return !math.IsNaN(p) && p < alpha
}

// KS2 returns the two-sample Kolmogorov–Smirnov statistic between two
// empirical samples: the supremum distance between their empirical CDFs.
// Degenerate input (either sample empty, NaN values) yields NaN.
func KS2(xs, ys []float64) float64 {
	if len(xs) == 0 || len(ys) == 0 {
		return math.NaN()
	}
	for _, v := range xs {
		if math.IsNaN(v) {
			return math.NaN()
		}
	}
	for _, v := range ys {
		if math.IsNaN(v) {
			return math.NaN()
		}
	}
	a := make([]float64, len(xs))
	copy(a, xs)
	b := make([]float64, len(ys))
	copy(b, ys)
	sort.Float64s(a)
	sort.Float64s(b)
	na, nb := float64(len(a)), float64(len(b))
	i, j := 0, 0
	maxD := 0.0
	for i < len(a) && j < len(b) {
		// On a cross-sample tie both ECDFs step together: consume every
		// duplicate of the value from both sides before measuring the gap.
		switch v := math.Min(a[i], b[j]); {
		case a[i] == v && b[j] == v:
			for i < len(a) && a[i] == v {
				i++
			}
			for j < len(b) && b[j] == v {
				j++
			}
		case a[i] == v:
			i++
		default:
			j++
		}
		if d := math.Abs(float64(i)/na - float64(j)/nb); d > maxD {
			maxD = d
		}
	}
	return maxD
}
