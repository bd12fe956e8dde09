// Package model encodes the paper's published workload characterization as
// a generative model: the geographic mix by time of day (Figure 1), the
// passive-peer fractions (Figure 4), the conditional session distributions
// (Tables A.1–A.5), the query-class mix (Table 3), and the per-day query
// popularity models (Figure 11). The simulation generates user behavior
// from this model; the analysis pipeline must then recover it from the
// filtered trace, closing the reproduction loop.
//
// Tables A.1–A.5 are one type, Params: exported [region][period][bucket]
// tables of dist.BodyTail and dist.Lognormal cells. Default fills it from
// the paper and the generator indexes it directly; internal/core fills
// the same type from its fits (core.Fits.Model). The conditioning those
// tables are indexed by (Period, PeriodOf, the QueryBucket* functions,
// the key periods) is defined here once for both sides.
//
// Where the paper publishes parameters only for North America, the
// European and Asian analogues are inferred from the regional anchor
// points quoted in the prose and figures (each inferred constant cites its
// anchor). Where mixture body weights are omitted, they are calibrated so
// that the mixture CDF passes through the quoted anchors; unit tests
// assert those anchors.
package model

import (
	"math"
	"math/rand/v2"
	"time"

	"repro/internal/dist"
	"repro/internal/geo"
)

// Period classifies an hour as peak or off-peak for a region. The paper
// conditions A.1, A.3, A.4 and A.5 on this, and both the generator's
// tables and the characterization's fits index by it.
type Period int

// The two day-period classes.
const (
	Peak Period = iota
	OffPeak
	NumPeriods = iota
)

func (p Period) String() string {
	if p == Peak {
		return "peak"
	}
	return "off-peak"
}

// NumKeyPeriods is the number of key one-hour windows of Figure 3.
const NumKeyPeriods = 4

// KeyPeriods are the four one-hour windows (start hour, measurement-node
// time) the paper identifies in Figure 3 and uses throughout Figures 5–9:
// 03:00–04:00 (NA peak / EU sink), 11:00–12:00 (EU peak / NA sink),
// 13:00–14:00 (EU+Asia peak / NA sink), 19:00–20:00 (joint NA+EU peak).
var KeyPeriods = [NumKeyPeriods]int{3, 11, 13, 19}

// KeyPeriodIndex returns the index into KeyPeriods of a key start hour,
// and false for every other hour.
func KeyPeriodIndex(hour int) (int, bool) {
	for k, h := range KeyPeriods {
		if h == hour {
			return k, true
		}
	}
	return 0, false
}

// regionMix is the fraction of connected peers per region for each
// measurement-node hour — the curves of Figure 1. Anchors from the paper:
// 75/15/5 at 00:00, 80/5/5 at 03:00, 60/20/15 at 12:00 (NA/EU/Asia); EU
// peaks near 20% from noon to midnight and bottoms near 5–6% in the early
// morning; Asia peaks near 13–15% around 12:00–13:00 and bottoms near 4%
// late evening; the remainder is Other/unknown (5–13%).
var regionMix = [24][4]float64{
	// NA, EU, Asia, Other — rows sum to 1.
	{0.75, 0.15, 0.05, 0.05}, // 00
	{0.77, 0.13, 0.05, 0.05}, // 01
	{0.79, 0.11, 0.05, 0.05}, // 02
	{0.80, 0.05, 0.05, 0.10}, // 03
	{0.78, 0.06, 0.06, 0.10}, // 04
	{0.76, 0.06, 0.07, 0.11}, // 05
	{0.72, 0.06, 0.09, 0.13}, // 06
	{0.68, 0.08, 0.11, 0.13}, // 07
	{0.65, 0.10, 0.12, 0.13}, // 08
	{0.63, 0.12, 0.13, 0.12}, // 09
	{0.62, 0.14, 0.13, 0.11}, // 10
	{0.61, 0.17, 0.13, 0.09}, // 11
	{0.60, 0.20, 0.15, 0.05}, // 12
	{0.60, 0.20, 0.13, 0.07}, // 13
	{0.61, 0.20, 0.12, 0.07}, // 14
	{0.62, 0.20, 0.11, 0.07}, // 15
	{0.64, 0.20, 0.09, 0.07}, // 16
	{0.66, 0.19, 0.08, 0.07}, // 17
	{0.68, 0.19, 0.07, 0.06}, // 18
	{0.70, 0.18, 0.06, 0.06}, // 19
	{0.71, 0.18, 0.05, 0.06}, // 20
	{0.72, 0.17, 0.04, 0.07}, // 21
	{0.73, 0.16, 0.04, 0.07}, // 22
	{0.74, 0.16, 0.04, 0.06}, // 23
}

// peakHours marks, per region, the measurement-node hours in which that
// region's query load is high (Figure 3): North America peaks in its
// evening (19:00–04:59 node time), Europe from late morning to midnight,
// Asia in its evening block (11:00–16:59 node time). Unknown has no peak
// hours (IsPeak checks the bound).
var peakHours = [geo.NumRegions][24]bool{
	geo.NorthAmerica: hoursIn(19, 20, 21, 22, 23, 0, 1, 2, 3, 4),
	geo.Europe:       hoursIn(11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23),
	geo.Asia:         hoursIn(11, 12, 13, 14, 15, 16),
	geo.Other:        hoursIn(11, 12, 13, 14, 15, 16, 17, 18, 19, 20),
}

func hoursIn(hs ...int) [24]bool {
	var out [24]bool
	for _, h := range hs {
		out[h] = true
	}
	return out
}

// passiveBase is the mean fraction of connected sessions that issue no
// queries, per region (Figure 4): 80–85% NA, 75–80% EU, 80–90% Asia.
// Unknown takes Other's 0.82 through normRegion.
var passiveBase = [geo.NumRegions]float64{
	geo.NorthAmerica: 0.825,
	geo.Europe:       0.775,
	geo.Asia:         0.85,
	geo.Other:        0.82,
}

// NumBuckets is the number of query-count buckets each of the A.3, A.5
// and interarrival conditionings splits sessions into.
const NumBuckets = 3

// QueryBucketA3 classifies a session's query count for the Table A.3
// conditioning: <3, =3, >3.
func QueryBucketA3(n int) int {
	switch {
	case n < 3:
		return 0
	case n == 3:
		return 1
	default:
		return 2
	}
}

// QueryBucketA5 classifies a session's query count for the Table A.5
// conditioning: 1, 2–7, >7.
func QueryBucketA5(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 7:
		return 1
	default:
		return 2
	}
}

// QueryBucketIAT classifies a session's query count for the European
// interarrival conditioning of Figure 8(b): =2, 3–7, >7. (Sessions with a
// single query have no interarrival at all.)
func QueryBucketIAT(n int) int {
	switch {
	case n <= 2:
		return 0
	case n <= 7:
		return 1
	default:
		return 2
	}
}

// Params is the Appendix A model as tables: what the generator samples
// and what internal/core recovers from a trace. Default fills every row
// from the paper; a characterization fills the continental rows from its
// fits. Each table is indexed by assignable region (Unknown has no row:
// PickRegion never assigns it, and PassiveFraction and SampleNumQueries
// fold it into Other), then Period, then the table's QueryBucket*. Build
// the BodyTail cells with dist.NewBodyTail. Build a Params once and share
// it read-only: it is then safe for concurrent use.
type Params struct {
	// PassiveDuration is Table A.1 (+ inferred EU/Asia): the passive
	// connected-session duration.
	PassiveDuration [geo.NumRegions][NumPeriods]dist.BodyTail
	// NumQueries is Table A.2: lognormals over a continuous variate,
	// discretized by SampleNumQueries.
	NumQueries [geo.NumRegions]dist.Lognormal
	// FirstQuery is Table A.3 (+ inferred), by QueryBucketA3: the time
	// until the first query.
	FirstQuery [geo.NumRegions][NumPeriods][NumBuckets]dist.BodyTail
	// Interarrival is Table A.4, by QueryBucketIAT: the query
	// interarrival time. Only Europe varies by bucket (Figure 8(b)).
	Interarrival [geo.NumRegions][NumPeriods][NumBuckets]dist.BodyTail
	// AfterLast is Table A.5 (+ inferred), by QueryBucketA5: the time
	// after the last query.
	AfterLast [geo.NumRegions][NumPeriods][NumBuckets]dist.Lognormal
	// SharedFiles is the library-size model behind Figure 2.
	SharedFiles dist.Lognormal
}

// Default returns the paper-parameterized model.
func Default() *Params {
	p := &Params{}

	// ---- Table A.1: passive connected-session duration (seconds). ----
	// Body window is [64 s, 120 s]: durations below 64 s were filtered by
	// rule 3, and the paper describes the body as the 1–2 minute mode.
	naBody := dist.Lognormal{Sigma: 2.502, Mu: 2.108}
	p.PassiveDuration[geo.NorthAmerica] = [NumPeriods]dist.BodyTail{
		Peak:    dist.NewBodyTail(naBody, 64, 120, 0.75, dist.Lognormal{Sigma: 2.749, Mu: 6.397}),
		OffPeak: dist.NewBodyTail(dist.Lognormal{Sigma: 2.383, Mu: 2.201}, 64, 120, 0.55, dist.Lognormal{Sigma: 2.848, Mu: 6.817}),
	}
	// Europe (inferred): Figure 5(a) — only 55% under 2 minutes, 35%
	// intermediate, 10% beyond 200 minutes; early-morning (off-peak)
	// sessions longer (Figure 5(c)).
	p.PassiveDuration[geo.Europe] = [NumPeriods]dist.BodyTail{
		Peak:    dist.NewBodyTail(naBody, 64, 120, 0.55, dist.Lognormal{Sigma: 2.80, Mu: 7.20}),
		OffPeak: dist.NewBodyTail(naBody, 64, 120, 0.45, dist.Lognormal{Sigma: 2.85, Mu: 7.60}),
	}
	// Asia (inferred): Figure 5(a) — 85% under 2 minutes, 12%
	// intermediate, 3% long.
	p.PassiveDuration[geo.Asia] = [NumPeriods]dist.BodyTail{
		Peak:    dist.NewBodyTail(naBody, 64, 120, 0.86, dist.Lognormal{Sigma: 2.70, Mu: 5.80}),
		OffPeak: dist.NewBodyTail(naBody, 64, 120, 0.80, dist.Lognormal{Sigma: 2.75, Mu: 6.10}),
	}
	p.PassiveDuration[geo.Other] = p.PassiveDuration[geo.NorthAmerica]

	// ---- Table A.2: queries per active session. ----
	p.NumQueries[geo.NorthAmerica] = dist.Lognormal{Sigma: 1.360, Mu: -0.0673}
	p.NumQueries[geo.Europe] = dist.Lognormal{Sigma: 1.306, Mu: 0.520}
	p.NumQueries[geo.Asia] = dist.Lognormal{Sigma: 1.618, Mu: -1.029}
	p.NumQueries[geo.Other] = p.NumQueries[geo.NorthAmerica]

	// ---- Table A.3: time until first query (seconds). ----
	// Mixture body weights are not published; they are calibrated so the
	// mixture passes through Figure 7(b)'s anchors (90% of <3-query
	// sessions issue the first query before 200 s; =3 before 1000 s;
	// >3 before 2000 s). See TestFirstQueryAnchors.
	naFQPeak := [NumBuckets]dist.BodyTail{
		dist.NewBodyTail(dist.Weibull{Alpha: 1.477, Lambda: 0.005252}, 0, 45, 0.86,
			dist.Lognormal{Sigma: 2.905, Mu: 5.091}),
		dist.NewBodyTail(dist.Weibull{Alpha: 1.261, Lambda: 0.01081}, 0, 45, 0.77,
			dist.Lognormal{Sigma: 2.045, Mu: 6.303}),
		dist.NewBodyTail(dist.Weibull{Alpha: 0.9821, Lambda: 0.02662}, 0, 45, 0.71,
			dist.Lognormal{Sigma: 2.359, Mu: 6.301}),
	}
	// The paper prints the off-peak body range as "64–120 seconds"; we
	// read it as [0, 120] — a first query can arrive within the first
	// minute off-peak too, and the published Weibull scales (56–108 s)
	// put most of their mass below 64 s.
	naFQOff := [NumBuckets]dist.BodyTail{
		dist.NewBodyTail(dist.Weibull{Alpha: 1.159, Lambda: 0.01779}, 0, 120, 0.68,
			dist.Lognormal{Sigma: 3.384, Mu: 5.144}),
		dist.NewBodyTail(dist.Weibull{Alpha: 1.207, Lambda: 0.01446}, 0, 120, 0.64,
			dist.Lognormal{Sigma: 2.324, Mu: 6.400}),
		dist.NewBodyTail(dist.Weibull{Alpha: 0.9351, Lambda: 0.03380}, 0, 120, 0.55,
			dist.Lognormal{Sigma: 2.463, Mu: 7.186}),
	}
	p.FirstQuery[geo.NorthAmerica] = [NumPeriods][NumBuckets]dist.BodyTail{Peak: naFQPeak, OffPeak: naFQOff}
	// Europe (inferred): same bodies; tails shifted right — Figure 7(a)
	// shows half of EU sessions issue the first query between 30 s and
	// 1000 s (vs 30–90 s for Asia) and Figure 7(c) shows a 10% >10⁴ s
	// off-peak tail.
	p.FirstQuery[geo.Europe] = [NumPeriods][NumBuckets]dist.BodyTail{
		Peak: {
			dist.NewBodyTail(dist.Weibull{Alpha: 1.477, Lambda: 0.005252}, 0, 45, 0.72,
				dist.Lognormal{Sigma: 2.905, Mu: 5.491}),
			dist.NewBodyTail(dist.Weibull{Alpha: 1.261, Lambda: 0.01081}, 0, 45, 0.68,
				dist.Lognormal{Sigma: 2.045, Mu: 6.703}),
			dist.NewBodyTail(dist.Weibull{Alpha: 0.9821, Lambda: 0.02662}, 0, 45, 0.60,
				dist.Lognormal{Sigma: 2.359, Mu: 6.701}),
		},
		OffPeak: {
			dist.NewBodyTail(dist.Weibull{Alpha: 1.159, Lambda: 0.01779}, 0, 120, 0.60,
				dist.Lognormal{Sigma: 3.384, Mu: 5.544}),
			dist.NewBodyTail(dist.Weibull{Alpha: 1.207, Lambda: 0.01446}, 0, 120, 0.56,
				dist.Lognormal{Sigma: 2.324, Mu: 6.800}),
			dist.NewBodyTail(dist.Weibull{Alpha: 0.9351, Lambda: 0.03380}, 0, 120, 0.48,
				dist.Lognormal{Sigma: 2.463, Mu: 7.586}),
		},
	}
	// Asia (inferred): Figure 7(a) — ≈10% within 10 s, ≈40% within 30 s
	// (the common anchor across regions), ≈90% within 90 s: a steep body
	// covering nearly all mass, thin tail.
	asFQ := [NumBuckets]dist.BodyTail{
		dist.NewBodyTail(dist.Weibull{Alpha: 1.9, Lambda: 0.027}, 0, 90, 0.90,
			dist.Lognormal{Sigma: 1.6, Mu: 5.0}),
		dist.NewBodyTail(dist.Weibull{Alpha: 1.85, Lambda: 0.025}, 0, 90, 0.88,
			dist.Lognormal{Sigma: 1.6, Mu: 5.2}),
		dist.NewBodyTail(dist.Weibull{Alpha: 1.8, Lambda: 0.023}, 0, 90, 0.85,
			dist.Lognormal{Sigma: 1.7, Mu: 5.4}),
	}
	p.FirstQuery[geo.Asia] = [NumPeriods][NumBuckets]dist.BodyTail{Peak: asFQ, OffPeak: asFQ}
	p.FirstQuery[geo.Other] = p.FirstQuery[geo.NorthAmerica]

	// ---- Table A.4: query interarrival time (seconds). ----
	// NA does not vary with session length (Figure 8(b) holds only for
	// Europe), so its three buckets are identical. Body weights calibrated
	// to the Figure 8(a) anchor P(IAT < 100 s) = 0.70 peak (see tests).
	naIATPeak := dist.NewBodyTail(dist.Lognormal{Sigma: 1.625, Mu: 3.353}, 0, 103, 0.705,
		dist.Pareto{Alpha: 0.9041, Beta: 103})
	naIATOff := dist.NewBodyTail(dist.Lognormal{Sigma: 1.410, Mu: 2.933}, 0, 103, 0.81,
		dist.Pareto{Alpha: 1.143, Beta: 103})
	p.Interarrival[geo.NorthAmerica] = [NumPeriods][NumBuckets]dist.BodyTail{
		Peak:    {naIATPeak, naIATPeak, naIATPeak},
		OffPeak: {naIATOff, naIATOff, naIATOff},
	}
	// Europe (inferred): P(IAT < 100 s) = 0.90 overall; many-query
	// sessions have shorter interarrivals (Figure 8(b)); off-peak shorter
	// still (94% below 100 s between 03:00 and 04:00, Figure 8(c)).
	p.Interarrival[geo.Europe] = [NumPeriods][NumBuckets]dist.BodyTail{
		Peak: {
			dist.NewBodyTail(dist.Lognormal{Sigma: 1.55, Mu: 3.45}, 0, 103, 0.86, dist.Pareto{Alpha: 1.0, Beta: 103}),
			dist.NewBodyTail(dist.Lognormal{Sigma: 1.50, Mu: 3.15}, 0, 103, 0.90, dist.Pareto{Alpha: 1.05, Beta: 103}),
			dist.NewBodyTail(dist.Lognormal{Sigma: 1.45, Mu: 2.85}, 0, 103, 0.93, dist.Pareto{Alpha: 1.10, Beta: 103}),
		},
		OffPeak: {
			dist.NewBodyTail(dist.Lognormal{Sigma: 1.45, Mu: 3.15}, 0, 103, 0.92, dist.Pareto{Alpha: 1.15, Beta: 103}),
			dist.NewBodyTail(dist.Lognormal{Sigma: 1.40, Mu: 2.90}, 0, 103, 0.94, dist.Pareto{Alpha: 1.20, Beta: 103}),
			dist.NewBodyTail(dist.Lognormal{Sigma: 1.35, Mu: 2.65}, 0, 103, 0.96, dist.Pareto{Alpha: 1.25, Beta: 103}),
		},
	}
	// Asia (inferred): P(IAT < 100 s) = 0.80, no session-length
	// conditioning reported.
	asIATPeak := dist.NewBodyTail(dist.Lognormal{Sigma: 1.55, Mu: 3.25}, 0, 103, 0.80, dist.Pareto{Alpha: 1.0, Beta: 103})
	asIATOff := dist.NewBodyTail(dist.Lognormal{Sigma: 1.45, Mu: 3.0}, 0, 103, 0.87, dist.Pareto{Alpha: 1.15, Beta: 103})
	p.Interarrival[geo.Asia] = [NumPeriods][NumBuckets]dist.BodyTail{
		Peak:    {asIATPeak, asIATPeak, asIATPeak},
		OffPeak: {asIATOff, asIATOff, asIATOff},
	}
	p.Interarrival[geo.Other] = p.Interarrival[geo.NorthAmerica]

	// ---- Table A.5: time after the last query (seconds). ----
	p.AfterLast[geo.NorthAmerica] = [NumPeriods][NumBuckets]dist.Lognormal{
		Peak: {
			{Sigma: 2.361, Mu: 4.879},
			{Sigma: 2.259, Mu: 5.686},
			{Sigma: 2.145, Mu: 6.107},
		},
		OffPeak: {
			{Sigma: 2.162, Mu: 4.760},
			{Sigma: 2.156, Mu: 5.672},
			{Sigma: 2.286, Mu: 6.036},
		},
	}
	// Europe (inferred): Figure 9(a) shows EU ≈ NA; Figure 9(c) shows
	// shorter tails off-peak (99% below 10⁴ s between 03:00 and 04:00).
	p.AfterLast[geo.Europe] = [NumPeriods][NumBuckets]dist.Lognormal{
		Peak: {
			{Sigma: 2.361, Mu: 4.950},
			{Sigma: 2.259, Mu: 5.750},
			{Sigma: 2.145, Mu: 6.170},
		},
		OffPeak: {
			{Sigma: 1.90, Mu: 4.60},
			{Sigma: 1.90, Mu: 5.30},
			{Sigma: 1.90, Mu: 5.70},
		},
	}
	// Asia (inferred): closes sessions faster — P(>1000 s) ≈ 10% vs 20%
	// (Figure 9(a)).
	p.AfterLast[geo.Asia] = [NumPeriods][NumBuckets]dist.Lognormal{
		Peak: {
			{Sigma: 2.2, Mu: 4.10},
			{Sigma: 2.1, Mu: 4.80},
			{Sigma: 2.0, Mu: 5.20},
		},
		OffPeak: {
			{Sigma: 2.1, Mu: 4.00},
			{Sigma: 2.0, Mu: 4.70},
			{Sigma: 2.0, Mu: 5.10},
		},
	}
	p.AfterLast[geo.Other] = p.AfterLast[geo.NorthAmerica]

	// ---- Figure 2: shared-files model. ----
	// A free-rider spike at zero plus a discretized lognormal library
	// size; Adar & Hubermann's free-rider measurements motivate the spike.
	p.SharedFiles = dist.Lognormal{Sigma: 1.6, Mu: 3.0}

	return p
}

// RegionShare returns the fraction of connected peers from the region
// during the given measurement-node hour (Figure 1).
func (p *Params) RegionShare(r geo.Region, hour int) float64 {
	h := ((hour % 24) + 24) % 24
	switch r {
	case geo.NorthAmerica:
		return regionMix[h][0]
	case geo.Europe:
		return regionMix[h][1]
	case geo.Asia:
		return regionMix[h][2]
	case geo.Other:
		return regionMix[h][3]
	default:
		return 0
	}
}

// PickRegion samples a session's region for a session starting in the
// given hour, following Figure 1's mix.
func (p *Params) PickRegion(rng *rand.Rand, hour int) geo.Region {
	u := rng.Float64()
	for _, r := range geo.Regions {
		s := p.RegionShare(r, hour)
		if u < s {
			return r
		}
		u -= s
	}
	return geo.Other
}

// IsPeak reports whether the hour is a high-load period for the region
// (Figure 3). It is a definition of the conditioning, not a model
// parameter: the measurement side classifies sessions with it too.
func IsPeak(r geo.Region, hour int) bool {
	if int(r) >= len(peakHours) {
		return false
	}
	return peakHours[r][((hour%24)+24)%24]
}

// PeriodOf converts IsPeak into the Period enum.
func PeriodOf(r geo.Region, hour int) Period {
	if IsPeak(r, hour) {
		return Peak
	}
	return OffPeak
}

// PassiveFraction returns the probability that a session starting in the
// given hour issues no queries (Figure 4). The ±2% sinusoidal wobble
// models the paper's "fluctuates only by about 5% over time of day".
func (p *Params) PassiveFraction(r geo.Region, hour int) float64 {
	return passiveBase[normRegion(r)] + 0.02*math.Sin(2*math.Pi*float64(hour)/24)
}

// SampleNumQueries draws the number of queries of an active session:
// the Table A.2 lognormal rounded to the nearest integer, floored at one
// (an active session has at least one query by definition).
func (p *Params) SampleNumQueries(rng *rand.Rand, r geo.Region) int {
	n := int(math.Round(p.NumQueries[normRegion(r)].Sample(rng)))
	if n < 1 {
		n = 1
	}
	return n
}

// FreeRiderFraction is the probability that a peer shares zero files
// (Figure 2's spike at zero; Adar & Hubermann report a similar share).
const FreeRiderFraction = 0.25

// SampleSharedFiles draws a peer's shared-library size.
func (p *Params) SampleSharedFiles(rng *rand.Rand) int {
	if rng.Float64() < FreeRiderFraction {
		return 0
	}
	n := int(p.SharedFiles.Sample(rng))
	if n < 1 {
		n = 1
	}
	if n > 10000 {
		n = 10000
	}
	return n
}

// UltrapeerFraction is the share of connections made by peers running in
// ultrapeer mode (Table 1: ≈40%).
const UltrapeerFraction = 0.40

// Quick-disconnect model (Section 3.3, rule 3): about 70% of connections
// terminate within 64 s for system reasons — 29% within 10 s, another 32%
// during the next 20–25 s, the rest spread up to 64 s. Quick sessions are
// overwhelmingly queryless; the few queries they do carry are what rule 3
// later discards (310 k queries across 3.05 M short sessions ≈ 0.1).
const (
	QuickDisconnectFraction   = 0.70
	quickUnder10Share         = 0.29 / QuickDisconnectFraction
	quickBurst20to25Share     = 0.32 / QuickDisconnectFraction
	QuickSessionQueryFraction = 0.093
)

// SampleQuickDisconnect draws the duration of a system-terminated session,
// always below 64 seconds.
func (p *Params) SampleQuickDisconnect(rng *rand.Rand) time.Duration {
	u := rng.Float64()
	var secs float64
	switch {
	case u < quickUnder10Share:
		secs = 1 + rng.Float64()*9 // 1–10 s
	case u < quickUnder10Share+quickBurst20to25Share:
		secs = 20 + rng.Float64()*5 // 20–25 s
	default:
		secs = 10 + rng.Float64()*54 // remainder spread over 10–64 s
		if secs >= 64 {
			secs = 63.9
		}
	}
	return time.Duration(secs * float64(time.Second))
}

// SessionsPerHourFullScale is the average connection arrival rate of the
// paper's trace: 4,361,965 direct connections over 40 days.
const SessionsPerHourFullScale = 4361965.0 / (40 * 24)

func normRegion(r geo.Region) geo.Region {
	if r > geo.Other {
		return geo.Other
	}
	return r
}
