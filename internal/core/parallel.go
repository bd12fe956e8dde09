package core

// Options tunes how Characterize executes. The zero value picks the
// parallel mode sized to the machine.
type Options struct {
	// Workers bounds the worker pool that the independent per-figure
	// computations and per-(table, region, period, bucket) appendix fits
	// fan out over. 0 means GOMAXPROCS; 1 forces the fully sequential
	// mode. Output is byte-identical across all settings: every task
	// writes to its own slot and no task consumes another's output.
	Workers int
	// KSBootstrap, when positive, replaces the asymptotic KS p-values of
	// the appendix fits with parametric-bootstrap p-values from this many
	// replicates (dist.KSPValueBootstrap), fixing the Lilliefors bias that
	// makes asymptotic acceptances optimistic. Every fit slot draws its
	// replicates from a fixed slot-specific seed, so the report stays
	// byte-identical across worker counts. 0 keeps the asymptotic
	// p-values. Each replicate refits the slot's model family, so cost
	// grows linearly: 99 is a sensible sharpness/cost point. Positive
	// values below 20 are raised to 20 — the smallest count whose minimum
	// attainable p-value 1/(B+1) can still reject at FitAlpha; below it a
	// bootstrap verdict would be an all-accept stamp.
	KSBootstrap int
}
