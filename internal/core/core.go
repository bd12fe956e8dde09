// Package core implements the paper's primary contribution as a reusable
// pipeline: given a measurement trace, it applies the Section 3.3 filter,
// runs every Section 4 analysis, and fits the Appendix model
// distributions (Tables A.1–A.5), producing a complete workload
// characterization from which synthetic workloads can be generated.
//
// The package depends on measurement-side packages (trace, filter,
// analysis, dist) and on internal/model for the conditioning the paper
// defines (the peak/off-peak Period, the query-count buckets and their
// sizes) and for the one appendix-model type, model.Params, which Fits
// fills from the trace. It never sees the generator's parameter values:
// TestMeasurementSeesNoGroundTruth forbids model.Default and every import
// through which a generator's *model.Params could arrive. This is what
// makes the repository's closed-loop validation meaningful:
// internal/model generates behavior, internal/capture records it, and
// this package must recover the model from the recording.
package core

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/dist"
	"repro/internal/filter"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Characterization is the full output of the pipeline: every table and
// figure of the paper, computed from one trace.
type Characterization struct {
	// Table1 summarizes the raw trace.
	Table1 analysis.Table1
	// Table2 is the filter result with per-rule accounting.
	Table2 *filter.Result
	// Sessions is the enriched retained-session view.
	Sessions []analysis.Session

	Figure1 analysis.GeoDistribution
	Figure2 analysis.SharedFiles
	Figure3 analysis.LoadByTime
	Figure4 analysis.PassiveFraction
	Figure5 analysis.PassiveDurations
	Figure6 analysis.QueriesPerSession
	Figure7 analysis.FirstQueryTimes
	Figure8 analysis.Interarrivals
	Figure9 analysis.AfterLastTimes

	Figure10 analysis.HotSetDrift
	Figure11 analysis.Popularity
	Table3   analysis.QueryClasses

	// HitRates is the query hit-rate extension (the paper's future work).
	HitRates analysis.HitRates

	// Fits holds the recovered appendix models.
	Fits Fits
}

// Fits is the recovered Appendix A model with one diagnostic per fit.
// Model has the generator's own cells (model.Params), but only the
// continental rows are fitted: the Other rows stay zero, as does any cell
// without enough data (its Diag.OK unset). Diag is indexed like Model,
// except that A.4 is fitted once per region and period and that one fit
// fills all three buckets of its Model cell.
type Fits struct {
	Model model.Params
	Diag  struct {
		PassiveDuration [geo.NumContinental][model.NumPeriods]Diag
		NumQueries      [geo.NumContinental]Diag
		FirstQuery      [geo.NumContinental][model.NumPeriods][model.NumBuckets]Diag
		Interarrival    [geo.NumContinental][model.NumPeriods]Diag
		AfterLast       [geo.NumContinental][model.NumPeriods][model.NumBuckets]Diag
	}
}

// FitAlpha is the significance level at which the report auto-rejects an
// appendix fit by its KS p-value.
const FitAlpha = 0.05

// KSSource identifies how a fit's KS p-value (and therefore its verdict)
// was computed — surfaced in the report so a reader knows whether an
// acceptance is trustworthy.
type KSSource uint8

const (
	// KSAsymptotic is the Stephens finite-n asymptotic p-value
	// (dist.KSPValue), computed on the fitting sample itself: rejections
	// are trustworthy, acceptances optimistic (the Lilliefors effect).
	KSAsymptotic KSSource = iota
	// KSBootstrapped is the parametric-bootstrap p-value
	// (dist.KSPValueBootstrap): every replicate pays the same
	// fitted-on-itself bias, so acceptances are trustworthy too.
	KSBootstrapped
)

func (s KSSource) String() string {
	if s == KSBootstrapped {
		return "bootstrap"
	}
	return "asymptotic"
}

// Diag is the sample context and goodness of fit of one fitted cell.
type Diag struct {
	OK bool
	N  int
	KS float64 // Kolmogorov–Smirnov distance of the fit on its data
	// KSP is the p-value of KS at N and Rejected the verdict at FitAlpha;
	// KSPSource records how the p-value was computed (asymptotic by
	// default; parametric bootstrap with Options.KSBootstrap > 0).
	KSP       float64
	KSPSource KSSource
	Rejected  bool
}

// Splits used by the appendix fits, from the paper's tables.
const (
	// passiveBodyLo and passiveSplit bound Table A.1's 1–2 minute body.
	passiveBodyLo = 64.0
	passiveSplit  = 120.0
	// firstQuerySplitPeak / OffPeak bound Table A.3's bodies.
	firstQuerySplitPeak    = 45.0
	firstQuerySplitOffPeak = 120.0
	// iatSplit is Table A.4's body/tail boundary (β of the Pareto tail).
	iatSplit = 103.0
)

// minFitSamples is the smallest sample size worth fitting.
const minFitSamples = 30

// Characterize runs the complete pipeline over a trace with the default
// options (parallel, sized to the machine).
func Characterize(tr *trace.Trace) *Characterization {
	return CharacterizeOpts(tr, Options{})
}

// CharacterizeOpts runs the complete pipeline over a trace. The filter
// (itself data-parallel over connections at the same worker count) and
// session enrichment run first (everything downstream reads their output);
// the per-figure computations, which share only the immutable trace and
// session slice, then fan out across the worker pool, followed by the
// independent appendix fits. The output is byte-identical for every
// Workers setting: tasks write to disjoint fields and never read each
// other's results.
func CharacterizeOpts(tr *trace.Trace, opts Options) *Characterization {
	workers := par.Workers(opts.Workers)
	res := filter.ApplyOpts(tr, filter.Options{Workers: workers})
	sessions := analysis.EnrichWorkers(res, workers)
	c := &Characterization{
		Table2:   res,
		Sessions: sessions,
	}
	// Table 3 and Figures 10 and 11 read one per-day query index; the
	// first of them to run builds it.
	days := sync.OnceValue(func() analysis.DayIndex { return analysis.IndexDays(sessions, tr.Days) })
	par.Run(workers, []func(){
		func() { c.Table1 = analysis.ComputeTable1(tr) },
		func() { c.Figure1 = analysis.ComputeFigure1(tr) },
		func() { c.Figure2 = analysis.ComputeFigure2(tr) },
		func() { c.Figure3 = analysis.ComputeFigure3(sessions) },
		func() { c.Figure4 = analysis.ComputeFigure4(sessions) },
		func() { c.Figure5 = analysis.ComputeFigure5(sessions) },
		func() { c.Figure6 = analysis.ComputeFigure6(sessions) },
		func() { c.Figure7 = analysis.ComputeFigure7(sessions) },
		func() { c.Figure8 = analysis.ComputeFigure8(sessions) },
		func() { c.Figure9 = analysis.ComputeFigure9(sessions) },
		func() { c.Figure10 = days().Figure10(geo.NorthAmerica) },
		func() { c.Figure11, _ = days().Figure11() },
		func() { c.Table3 = days().Table3() },
		func() { c.HitRates = analysis.ComputeHitRates(tr) },
	})
	c.Fits = fitAll(sessions, workers, opts.KSBootstrap)
	return c
}

// ksBootSeedBase salts the per-slot bootstrap replicate streams. Each fit
// slot XORs in its (table, region, period, bucket) coordinates, so every
// slot draws an independent but fixed stream — the report stays
// byte-identical across worker counts and runs.
const ksBootSeedBase = 0x4b5b007d

// minKSBootstrapReplicates is the smallest replicate count whose minimum
// attainable p-value, 1/(B+1), lies strictly below FitAlpha — with fewer
// replicates a bootstrap verdict could never reject, silently turning the
// "trustworthy" source into an all-accept stamp. Requested counts below
// this floor are raised to it.
const minKSBootstrapReplicates = 20

// bootCfg carries one fit slot's bootstrap configuration; b == 0 means
// asymptotic p-values.
type bootCfg struct {
	b    int
	seed uint64
}

func slotBoot(replicates, table, region, period, bucket int) bootCfg {
	if replicates > 0 && replicates < minKSBootstrapReplicates {
		replicates = minKSBootstrapReplicates
	}
	return bootCfg{
		b: replicates,
		seed: ksBootSeedBase ^ uint64(table)<<24 ^ uint64(region)<<16 ^
			uint64(period)<<8 ^ uint64(bucket),
	}
}

// ksVerdict scores an observed KS distance: parametric bootstrap when the
// slot asks for it (falling back to asymptotic — whose rejections are
// still trustworthy — when the family cannot be refit reliably enough to
// reach the replicate target), Stephens' asymptotic p-value otherwise.
func ksVerdict(ks float64, n int, boot bootCfg,
	sample func(rng *rand.Rand, out []float64),
	distance func(xs []float64) float64) (p float64, src KSSource, rejected bool) {
	if boot.b > 0 {
		bp := dist.KSPValueBootstrap(ks, dist.BootstrapSpec{
			N: n, B: boot.b, Seed: boot.seed, Sample: sample, Distance: distance,
		})
		if !math.IsNaN(bp) {
			return bp, KSBootstrapped, bp < FitAlpha
		}
	}
	p = dist.KSPValue(ks, n)
	return p, KSAsymptotic, dist.KSReject(ks, n, FitAlpha)
}

// fitAll computes the appendix fits from conditioned samples: one pass
// over the sessions feeds the per-(region, period, bucket) sample slices,
// then every independent fit runs as its own task on the worker pool,
// writing to its own cell of the result.
func fitAll(sessions []analysis.Session, workers int, ksBootstrap int) Fits {
	const (
		regions = geo.NumContinental
		periods = model.NumPeriods
		buckets = model.NumBuckets
	)
	var (
		passive, iat      [regions][periods][]float64
		numQ              [regions][]float64
		firstQ, afterLast [regions][periods][buckets][]float64
	)
	var iatScratch []time.Duration
	for i := range sessions {
		s := &sessions[i]
		r, p := s.Region, s.Period
		if r >= regions {
			continue
		}
		if s.Passive() {
			// Sessions closed by probe timeout carry the measurement
			// node's detection delay; the recorded end overestimates the
			// true end, so the duration fits use cleanly closed sessions
			// only (the trace marks which is which).
			if !s.Conn.SilentClose {
				passive[r][p] = append(passive[r][p], s.Conn.Duration().Seconds())
			}
			continue
		}
		n := s.UserQueries
		if n < 1 {
			continue
		}
		numQ[r] = append(numQ[r], float64(n))
		if first, ok := s.FirstQueryTime(); ok && first > 0 {
			b := model.QueryBucketA3(n)
			firstQ[r][p][b] = append(firstQ[r][p][b], first.Seconds())
		}
		iatScratch = s.AppendInterarrivals(iatScratch[:0])
		for _, d := range iatScratch {
			if d > 0 {
				iat[r][p] = append(iat[r][p], d.Seconds())
			}
		}
		if gap, ok := s.LastQueryGap(); ok && gap > 0 {
			b := model.QueryBucketA5(n)
			afterLast[r][p][b] = append(afterLast[r][p][b], gap.Seconds())
		}
	}

	// Fan the 51 independent fits out over the worker pool. Each task
	// writes its own cell of f, so the result is identical in any order.
	// A slot's bootstrap seed takes the Region value (NA 0, EU 1, AS 2)
	// as its region coordinate.
	var f Fits
	m, d := &f.Model, &f.Diag
	var tasks []func()
	for r := range regions {
		// A.2 — queries per session: counts are rounded-and-floored, so
		// the interval-censored fitter recovers the continuous lognormal.
		tasks = append(tasks, func() {
			m.NumQueries[r], d.NumQueries[r] = fitCell(numQ[r], slotBoot(ksBootstrap, 2, r, 0, 0),
				dist.FitLognormalCounts, ksRoundedCounts, drawCount)
		})
		for p := range periods {
			// A.1 — passive durations.
			tasks = append(tasks, func() {
				m.PassiveDuration[r][p], d.PassiveDuration[r][p] = fitCell(passive[r][p], slotBoot(ksBootstrap, 1, r, p, 0),
					func(v []float64) (dist.BodyTail, error) {
						return dist.FitBimodalLognormal(v, passiveBodyLo, passiveSplit)
					}, ksSorted, dist.BodyTail.Sample)
			})
			// A.4 — interarrival times: one fit fills every bucket.
			tasks = append(tasks, func() {
				bt, diag := fitCell(iat[r][p], slotBoot(ksBootstrap, 4, r, p, 0),
					func(v []float64) (dist.BodyTail, error) {
						return dist.FitLognormalPareto(v, 0, iatSplit)
					}, ksSorted, dist.BodyTail.Sample)
				m.Interarrival[r][p] = [buckets]dist.BodyTail{bt, bt, bt}
				d.Interarrival[r][p] = diag
			})
			split := firstQuerySplitPeak
			if model.Period(p) == model.OffPeak {
				split = firstQuerySplitOffPeak
			}
			for b := range buckets {
				// A.3 — time until first query.
				tasks = append(tasks, func() {
					m.FirstQuery[r][p][b], d.FirstQuery[r][p][b] = fitCell(firstQ[r][p][b], slotBoot(ksBootstrap, 3, r, p, b),
						func(v []float64) (dist.BodyTail, error) {
							return dist.FitWeibullLognormal(v, 0, split)
						}, ksSorted, dist.BodyTail.Sample)
				})
				// A.5 — time after last query.
				tasks = append(tasks, func() {
					m.AfterLast[r][p][b], d.AfterLast[r][p][b] = fitCell(afterLast[r][p][b], slotBoot(ksBootstrap, 5, r, p, b),
						dist.FitLognormal, ksSorted, dist.Lognormal.Sample)
				})
			}
		}
	}
	par.Run(workers, tasks)
	return f
}

// fitCell fits one appendix cell and scores the fit on its own sample.
// distance measures a sample against a model and may reorder the sample;
// it may use scratch, a buffer of the sample's length, as working space,
// and must answer the same when scratch is nil. draw samples a model the
// way the fitter assumes the data arose. The bootstrap replicates use
// both, sharing one scratch that is allocated only when the cell is
// bootstrapped, so a characterization without bootstrap pays nothing for
// it. A sample below minFitSamples, or one the fitter rejects, leaves the
// cell zero with Diag.OK unset.
func fitCell[M any](xs []float64, boot bootCfg, fit func([]float64) (M, error),
	distance func(xs []float64, m M, scratch []float64) float64, draw func(M, *rand.Rand) float64) (M, Diag) {
	var zero M
	if len(xs) < minFitSamples {
		return zero, Diag{N: len(xs)}
	}
	m, err := fit(xs)
	if err != nil {
		return zero, Diag{N: len(xs)}
	}
	d := Diag{OK: true, N: len(xs), KS: distance(xs, m, nil)}
	var scratch []float64
	if boot.b > 0 {
		scratch = make([]float64, len(xs))
	}
	d.KSP, d.KSPSource, d.Rejected = ksVerdict(d.KS, d.N, boot,
		func(rng *rand.Rand, out []float64) {
			for i := range out {
				out[i] = draw(m, rng)
			}
		},
		func(v []float64) float64 {
			// Refit on the replicate as drawn (the fitters' sums run in
			// sample order) before distance may sort it.
			m2, err := fit(v)
			if err != nil {
				return math.NaN()
			}
			return distance(v, m2, scratch)
		})
	return m, d
}

// ksSorted sorts xs in place, radix-sorting through scratch when it has
// room (dist.SortPositive), and returns its KS distance from d.
func ksSorted[D dist.Dist](xs []float64, d D, scratch []float64) float64 {
	dist.SortPositive(xs, scratch)
	return dist.KSSorted(xs, d)
}

// drawCount draws one count the way FitLognormalCounts assumes counts
// arise: a continuous lognormal draw rounded, with the k=1 cell absorbing
// everything below (matching ksRoundedCounts' censoring).
func drawCount(m dist.Lognormal, rng *rand.Rand) float64 {
	return max(math.Round(m.Sample(rng)), 1)
}

// ksRoundedCounts measures the KS distance between integer count data and
// the rounding-censored lognormal FitLognormalCounts maximizes: count k
// covers the continuous interval (k−0.5, k+0.5], so the model's CDF at
// support point k is CDF(k+0.5), with the k=1 cell absorbing the left
// tail. Scoring the continuous CDF directly would report a distance
// dominated by discretization rather than misfit and auto-reject every
// A.2 fit. The p-value derived from this distance is conservative
// (discrete-support KS).
func ksRoundedCounts(xs []float64, m dist.Lognormal, _ []float64) float64 {
	hist := map[int]int{}
	maxK := 0
	for _, x := range xs {
		k := int(math.Round(x))
		hist[k]++
		if k > maxK {
			maxK = k
		}
	}
	n := float64(len(xs))
	cum := 0
	maxD := 0.0
	for k := 1; k <= maxK; k++ {
		cum += hist[k]
		f := m.CDF(float64(k) + 0.5)
		if d := math.Abs(float64(cum)/n - f); d > maxD {
			maxD = d
		}
	}
	return maxD
}

// PassiveShare returns the measured overall passive-session share, the
// headline Figure 4 number.
func (c *Characterization) PassiveShare() float64 {
	if len(c.Sessions) == 0 {
		return math.NaN()
	}
	n := 0
	for i := range c.Sessions {
		if c.Sessions[i].Passive() {
			n++
		}
	}
	return float64(n) / float64(len(c.Sessions))
}

// SessionDurationQuantiles returns several duration quantiles sharing one
// scratch buffer and one pass over the sessions — selection permutes the
// buffer but keeps its contents, so repeated selects stay valid.
func (c *Characterization) SessionDurationQuantiles(ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(c.Sessions) == 0 {
		return out
	}
	ds := make([]float64, len(c.Sessions))
	for i := range c.Sessions {
		ds[i] = c.Sessions[i].Conn.Duration().Seconds()
	}
	for i, p := range ps {
		out[i] = time.Duration(quantileSelect(ds, p) * float64(time.Second))
	}
	return out
}

// quantileSelect returns the p-quantile of xs with the same linear
// interpolation between order statistics as stats.Sample.Quantile, found
// by quickselect rather than sorting. It reorders xs; NaN for empty input.
func quantileSelect(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return minOf(xs)
	}
	if p >= 1 {
		return maxOf(xs)
	}
	pos := p * float64(n-1)
	i := int(pos)
	frac := pos - float64(i)
	stats.SelectK(xs, i, lessFloat)
	lo := xs[i]
	if frac == 0 || i+1 >= n {
		return lo
	}
	hi := minOf(xs[i+1:]) // the (i+2)-th order statistic after selection
	return lo*(1-frac) + hi*frac
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func lessFloat(a, b float64) bool { return a < b }
