package dist

import (
	"math"
	"math/rand/v2"
)

// BootstrapSpec parameterizes a parametric-bootstrap estimate of a KS
// p-value for a composite hypothesis — the fix for the Lilliefors bias
// that makes KSPValue's acceptances optimistic when the model was fitted
// on the very sample the distance is measured on.
type BootstrapSpec struct {
	// N is the original sample size; every replicate draws N variates.
	N int
	// B is the number of bootstrap replicates. 99 gives a p-value grid of
	// 1/100; 199 or 999 sharpen it at linear cost.
	B int
	// Seed fixes the replicate stream, making the p-value deterministic —
	// the report must stay byte-identical across worker counts, so every
	// fit slot uses its own fixed seed.
	Seed uint64
	// Sample fills out (len(out) == N) with variates drawn from the
	// *fitted* model (the null). out is one buffer that
	// KSPValueBootstrap allocates once and hands to every replicate, so
	// Sample must overwrite every element and keep no reference to it.
	Sample func(rng *rand.Rand, out []float64)
	// Distance refits the model family to a replicate and returns the KS
	// distance of the refit on that replicate — the same
	// fit-then-measure-on-the-fitting-sample procedure the observed
	// distance came from, which is exactly what cancels the bias. NaN
	// marks a failed refit; such replicates are skipped. Distance owns
	// xs for the duration of the call and may reorder it — typically it
	// refits on xs as drawn, then sorts it in place for KSSorted — but
	// must keep no reference to it after returning: the next replicate
	// overwrites it. It may also use working space of its own that lives
	// across replicates, such as the scratch buffer SortPositive sorts
	// through; a caller allocates that once per fit slot, and only when
	// it bootstraps that slot, so fits without a bootstrap never pay for
	// it.
	Distance func(xs []float64) float64
}

// KSPValueBootstrap returns the parametric-bootstrap p-value of an
// observed KS distance: the null distribution of the distance is estimated
// by drawing samples from the fitted model, refitting on each, and
// measuring each refit's distance on its own sample. The returned p-value
// uses the (1+k)/(1+B) estimator over B *valid* replicates, which can
// never report exactly zero — honest for a finite replicate count. Unlike
// KSPValue, acceptances are trustworthy too, because every replicate pays
// the same fitted-on-itself bias the observed distance paid.
//
// B counts valid replicates, not attempts: a failed refit (Distance
// returning NaN) is replaced by a fresh draw, within a 2×B attempt
// budget. This keeps the p-value's resolution — and therefore its ability
// to reject at a given significance level — independent of occasional
// fitter failures; were failures merely skipped, each one would coarsen
// the 1/(valid+1) grid and could silently push the minimum attainable
// p-value above the rejection threshold. If the family cannot be refit
// reliably enough to reach B valid replicates, the estimate is abandoned
// (NaN) rather than quietly degraded. Degenerate input (no replicates,
// NaN distance) also yields NaN.
func KSPValueBootstrap(observed float64, spec BootstrapSpec) float64 {
	if spec.B <= 0 || spec.N <= 0 || spec.Sample == nil || spec.Distance == nil ||
		math.IsNaN(observed) || observed < 0 {
		return math.NaN()
	}
	rng := rand.New(rand.NewPCG(spec.Seed, 0xb005_c4a9))
	asExtreme, valid := 0, 0
	xs := make([]float64, spec.N)
	for attempts := 0; valid < spec.B && attempts < 2*spec.B; attempts++ {
		spec.Sample(rng, xs)
		d := spec.Distance(xs)
		if math.IsNaN(d) {
			continue
		}
		valid++
		if d >= observed {
			asExtreme++
		}
	}
	if valid < spec.B {
		return math.NaN()
	}
	return float64(1+asExtreme) / float64(1+valid)
}
