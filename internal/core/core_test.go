package core

import (
	"math"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/capture"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/trace"
	"repro/internal/wire"
)

// loopTrace is the shared closed-loop trace: generated from the paper's
// model by the capture simulator, then characterized from scratch. It is
// expensive, so tests share one instance.
var (
	loopOnce  sync.Once
	loopTrace *trace.Trace
	loopChar  *Characterization
)

func loop(t *testing.T) (*trace.Trace, *Characterization) {
	t.Helper()
	loopOnce.Do(func() {
		cfg := capture.DefaultConfig(1234, 0.03)
		cfg.Workload.Days = 4
		loopTrace = engine.New(engine.Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: 1}}).Run(nil)
		loopChar = Characterize(loopTrace)
	})
	return loopTrace, loopChar
}

func TestCharacterizeBasics(t *testing.T) {
	tr, c := loop(t)
	if c.Table1.DirectConnections != uint64(len(tr.Conns)) {
		t.Error("table 1 connection count")
	}
	if c.Table2.FinalSessions == 0 || len(c.Sessions) == 0 {
		t.Fatal("no retained sessions")
	}
	if uint64(len(c.Sessions)) != c.Table2.FinalSessions {
		t.Error("session view inconsistent with filter accounting")
	}
}

func TestPassiveShareRecovered(t *testing.T) {
	// Figure 4: ≈80–85% of retained sessions are passive.
	_, c := loop(t)
	share := c.PassiveShare()
	if share < 0.75 || share > 0.90 {
		t.Errorf("passive share = %v, want ≈0.8", share)
	}
}

func TestTable2Proportions(t *testing.T) {
	// Table 2's dominant features: rule 2 removes the most queries;
	// ≈70% of sessions fall to rule 3.
	_, c := loop(t)
	t2 := c.Table2
	if t2.Rule2Duplicates <= t2.Rule1SHA1 {
		t.Errorf("rule 2 (%d) should dominate rule 1 (%d)", t2.Rule2Duplicates, t2.Rule1SHA1)
	}
	if t2.Rule2Duplicates <= t2.FinalQueries {
		t.Errorf("rule 2 (%d) should dominate the final count (%d)", t2.Rule2Duplicates, t2.FinalQueries)
	}
	shortFrac := float64(t2.Rule3Sessions) / float64(t2.TotalSessions)
	if shortFrac < 0.60 || shortFrac > 0.75 {
		t.Errorf("rule 3 session share = %v, want ≈0.70", shortFrac)
	}
	// Rules 4–5 flag a substantial minority of final queries.
	flagged := t2.Rule4SubSecond + t2.Rule5FixedInterval
	if flagged == 0 || flagged > t2.FinalQueries {
		t.Errorf("rules 4–5 flagged %d of %d", flagged, t2.FinalQueries)
	}
}

func TestNumQueriesFitRecovered(t *testing.T) {
	// Table A.2: µ(EU) > µ(NA) > µ(AS); recovered values near the
	// generative ones (−0.07, 0.52, −1.03) within discretization slack.
	_, c := loop(t)
	m, d := c.Fits.Model.NumQueries, c.Fits.Diag.NumQueries
	na, eu, as := geo.NorthAmerica, geo.Europe, geo.Asia
	if !d[na].OK || !d[eu].OK || !d[as].OK {
		t.Fatalf("fits missing: NA=%v EU=%v AS=%v", d[na].OK, d[eu].OK, d[as].OK)
	}
	// Europe must sit clearly above the other regions; the Asian fit is
	// noisy at test scale (few active sessions, counts mostly 1), so only
	// its distance below Europe is asserted.
	if !(m[eu].Mu > m[na].Mu && m[eu].Mu > m[as].Mu+0.3) {
		t.Errorf("µ ordering: EU %v, NA %v, AS %v", m[eu].Mu, m[na].Mu, m[as].Mu)
	}
	// Rule-3 selection (short sessions dropped) biases µ upward relative
	// to the pre-selection generative value; accept a generous band but
	// require the right locations.
	if math.Abs(m[eu].Mu-0.52) > 0.35 {
		t.Errorf("EU µ = %v, want ≈0.52", m[eu].Mu)
	}
	if m[na].Mu < -0.15 || m[na].Mu > 0.5 {
		t.Errorf("NA µ = %v, want ≈0.0–0.4 (selection-shifted from −0.07)", m[na].Mu)
	}
}

func TestPassiveDurationFitRecovered(t *testing.T) {
	// Table A.1: peak body weight ≈0.75 for North America; tail µ ≈6.4.
	_, c := loop(t)
	m, d := c.Fits.Model.PassiveDuration[geo.NorthAmerica], c.Fits.Diag.PassiveDuration[geo.NorthAmerica]
	peak, off := model.Peak, model.OffPeak
	if !d[peak].OK {
		t.Fatal("NA peak passive fit missing")
	}
	if math.Abs(m[peak].BodyWeight-0.75) > 0.06 {
		t.Errorf("body weight = %v, want ≈0.75", m[peak].BodyWeight)
	}
	// The ~30 s probe overestimate on silently closed sessions nudges the
	// recorded durations off the pure generative mixture, so the KS band
	// is wider than a clean-fit test would use.
	if d[peak].KS > 0.12 {
		t.Errorf("KS = %v", d[peak].KS)
	}
	// Off-peak body weight ≈0.55 < peak.
	if d[off].OK && m[off].BodyWeight >= m[peak].BodyWeight {
		t.Errorf("off-peak body weight %v should be below peak %v",
			m[off].BodyWeight, m[peak].BodyWeight)
	}
}

func TestInterarrivalFitRecovered(t *testing.T) {
	// Table A.4: Pareto tail α below ≈1 in peak hours for NA, larger
	// off-peak. One fit per period fills all three buckets.
	_, c := loop(t)
	m, d := c.Fits.Model.Interarrival[geo.NorthAmerica], c.Fits.Diag.Interarrival[geo.NorthAmerica]
	if !d[model.Peak].OK || !d[model.OffPeak].OK {
		t.Fatal("NA interarrival fits missing")
	}
	for _, cells := range m {
		if cells[1] != cells[0] || cells[2] != cells[0] {
			t.Errorf("A.4 buckets differ: %v", cells)
		}
	}
	pa, ok := tailAlpha(m[model.Peak][0])
	if !ok {
		t.Fatal("peak tail not Pareto")
	}
	oa, _ := tailAlpha(m[model.OffPeak][0])
	if math.Abs(pa-0.9041) > 0.25 {
		t.Errorf("peak Pareto α = %v, want ≈0.90", pa)
	}
	if oa <= pa {
		t.Errorf("off-peak α %v should exceed peak %v", oa, pa)
	}
}

func tailAlpha(bt dist.BodyTail) (float64, bool) {
	p, ok := bt.Tail.(dist.Pareto)
	if !ok {
		return 0, false
	}
	return p.Alpha, true
}

func TestRegionalIATOrdering(t *testing.T) {
	// Figure 8(a): P(IAT < 100 s) is EU > AS > NA.
	_, c := loop(t)
	eu := c.Figure8.ByRegion[geo.Europe].CDF(100)
	as := c.Figure8.ByRegion[geo.Asia].CDF(100)
	na := c.Figure8.ByRegion[geo.NorthAmerica].CDF(100)
	if !(eu > as && as > na) {
		t.Errorf("CDF(100): EU %v, AS %v, NA %v — want EU > AS > NA", eu, as, na)
	}
}

func TestMedianSessionDuration(t *testing.T) {
	_, c := loop(t)
	med := c.SessionDurationQuantiles(0.5)[0]
	if med < 64*time.Second || med > 2*time.Hour {
		t.Errorf("median retained duration = %v", med)
	}
	empty := &Characterization{}
	if empty.SessionDurationQuantiles(0.5)[0] != 0 {
		t.Error("empty characterization median should be 0")
	}
	if !math.IsNaN(empty.PassiveShare()) {
		t.Error("empty passive share should be NaN")
	}
}

func TestHotSetDriftMeasured(t *testing.T) {
	// Figure 10: strong drift — on most day pairs at most 4 of the top-10
	// survive into the next day's top-100.
	_, c := loop(t)
	frac := 1 - c.Figure10.FractionWithMoreThan(0, 100, 4)
	if frac < 0.5 {
		t.Errorf("P(≤4 survivors) = %v, want strong drift", frac)
	}
}

func TestPopularityFits(t *testing.T) {
	// Figure 11: both single-region classes produce Zipf fits with small
	// α (the filtered-workload signature), NA steeper than EU.
	_, c := loop(t)
	naFit := c.Figure11.Fit[analysis.ClassNAOnly]
	euFit := c.Figure11.Fit[analysis.ClassEUOnly]
	if naFit == (dist.ZipfFit{}) || euFit == (dist.ZipfFit{}) {
		t.Fatal("missing popularity fits")
	}
	if naFit.Alpha < 0.15 || naFit.Alpha > 0.8 {
		t.Errorf("NA-only α = %v, want ≈0.39", naFit.Alpha)
	}
	// The NA/EU skew ordering needs paper-level query volume to resolve
	// (rank statistics at a few hundred queries per class-day are noisy);
	// at test scale only a loose relation is asserted.
	if euFit.Alpha >= naFit.Alpha+0.12 {
		t.Errorf("EU-only α %v should not exceed NA-only %v by a wide margin", euFit.Alpha, naFit.Alpha)
	}
}

func TestPeriodString(t *testing.T) {
	if model.Peak.String() != "peak" || model.OffPeak.String() != "off-peak" {
		t.Error("period strings")
	}
}

func TestHitRateExtension(t *testing.T) {
	// The hit-response model rewards popular queries; the analysis must
	// recover a positive popularity/hit-rate correlation and a plausible
	// answered share.
	_, c := loop(t)
	hr := c.HitRates
	na := &hr.ByRegion[geo.NorthAmerica]
	if na.Len() == 0 {
		t.Fatal("no NA hit-rate samples")
	}
	if f := hr.AnsweredFraction[geo.NorthAmerica]; f < 0.2 || f > 0.8 {
		t.Errorf("NA answered fraction = %v, want ≈0.4–0.6", f)
	}
	if hr.PopularityCorrelation <= 0 {
		t.Errorf("popularity correlation = %v, want positive", hr.PopularityCorrelation)
	}
	// Mean hits must increase from the singleton bucket to the most
	// repeated bucket with data.
	first := hr.Buckets[0]
	var last *HitBucketAlias
	for i := len(hr.Buckets) - 1; i > 0; i-- {
		if hr.Buckets[i].N > 10 {
			b := hr.Buckets[i]
			last = &HitBucketAlias{MeanHits: b.MeanHits}
			break
		}
	}
	if last != nil && last.MeanHits <= first.MeanHits {
		t.Errorf("mean hits not increasing with popularity: %v vs %v", first.MeanHits, last.MeanHits)
	}
}

// HitBucketAlias avoids importing analysis just for one field in this test.
type HitBucketAlias struct{ MeanHits float64 }

func TestAblationFilteringReducesZipfSkew(t *testing.T) {
	// The paper's headline argument: automated re-queries concentrate on
	// recent user queries, so the unfiltered popularity distribution looks
	// far more cacheable (larger Zipf α) than true user behavior. Fit the
	// top-100 rank-frequency curve with and without the filter.
	tr, c := loop(t)
	counts := map[string]int{}
	for i := range tr.Queries {
		key := wire.KeywordKey(tr.Queries[i].Text)
		if key != "" {
			counts[key]++
		}
	}
	freqs := make([]float64, 0, len(counts))
	for _, n := range counts {
		freqs = append(freqs, float64(n))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(freqs)))
	if len(freqs) > 100 {
		freqs = freqs[:100]
	}
	rawFit, err := dist.FitZipf(freqs)
	if err != nil {
		t.Fatal(err)
	}
	filteredFit := c.Figure11.Fit[analysis.ClassNAOnly]
	if rawFit.Alpha <= filteredFit.Alpha {
		t.Errorf("raw α %.3f should exceed filtered α %.3f", rawFit.Alpha, filteredFit.Alpha)
	}
	if rawFit.Alpha < filteredFit.Alpha+0.05 {
		t.Errorf("filtering should change α visibly: raw %.3f vs filtered %.3f",
			rawFit.Alpha, filteredFit.Alpha)
	}
}

func TestFigure3PeakStructure(t *testing.T) {
	// Figure 3: North American query load peaks around 03:00–04:00 and
	// sinks around 11:00–14:00; Europe the other way around.
	_, c := loop(t)
	na := c.Figure3.PerRegion[geo.NorthAmerica].Avg
	eu := c.Figure3.PerRegion[geo.Europe].Avg
	sum := func(series []float64, fromHour, toHour int) float64 {
		var s float64
		for b := fromHour * 2; b < toHour*2; b++ {
			s += series[b]
		}
		return s
	}
	if naPeak, naSink := sum(na, 3, 4), sum(na, 11, 12); naPeak <= naSink {
		t.Errorf("NA load: 03:00 bin %v should exceed 11:00 bin %v", naPeak, naSink)
	}
	if euPeak, euSink := sum(eu, 13, 14), sum(eu, 3, 4); euPeak <= euSink {
		t.Errorf("EU load: 13:00 bin %v should exceed 03:00 bin %v", euPeak, euSink)
	}
}

// keyIndex is the figures' key-period index of a key start hour.
func keyIndex(t *testing.T, hour int) int {
	t.Helper()
	k, ok := model.KeyPeriodIndex(hour)
	if !ok {
		t.Fatalf("hour %d is not a key period", hour)
	}
	return k
}

func TestFigure5KeyPeriods(t *testing.T) {
	// Figure 5(c): European passive sessions starting in the early
	// morning (03:00, off-peak) run longer than afternoon ones (13:00).
	_, c := loop(t)
	offPeak := &c.Figure5.ByPeriod[geo.Europe][keyIndex(t, 3)]
	peak := &c.Figure5.ByPeriod[geo.Europe][keyIndex(t, 13)]
	if offPeak.Len() < 20 || peak.Len() < 20 {
		t.Skipf("too few period samples (%d / %d)", offPeak.Len(), peak.Len())
	}
	if offPeak.Quantile(0.5) <= peak.Quantile(0.5) {
		t.Errorf("EU off-peak median %v should exceed peak median %v",
			offPeak.Quantile(0.5), peak.Quantile(0.5))
	}
}

func TestFigure8KeyPeriods(t *testing.T) {
	// Figure 8(c): queries issued in EU peak hours have longer
	// interarrival times than off-peak (03:00) ones.
	_, c := loop(t)
	off := &c.Figure8.ByPeriodEU[keyIndex(t, 3)]
	peak := &c.Figure8.ByPeriodEU[keyIndex(t, 13)]
	if off.Len() < 30 || peak.Len() < 30 {
		t.Skipf("too few period samples (%d / %d)", off.Len(), peak.Len())
	}
	if off.CDF(100) <= peak.CDF(100) {
		t.Errorf("EU off-peak P(IAT<100) %v should exceed peak %v",
			off.CDF(100), peak.CDF(100))
	}
}

func TestFigure9BucketOrdering(t *testing.T) {
	// Figure 9(b): time after the last query grows with the session's
	// query count.
	_, c := loop(t)
	one := &c.Figure9.ByBucketNA[0]
	many := &c.Figure9.ByBucketNA[2]
	if one.Len() < 30 || many.Len() < 30 {
		t.Skipf("too few bucket samples (%d / %d)", one.Len(), many.Len())
	}
	if one.Quantile(0.5) >= many.Quantile(0.5) {
		t.Errorf("1-query median gap %v should be below >7-query median %v",
			one.Quantile(0.5), many.Quantile(0.5))
	}
}

func TestFigure2OneHopRepresentative(t *testing.T) {
	// Figure 2's point: one-hop peers report the same shared-file
	// distribution as the remote population (both have the free-rider
	// spike at zero).
	_, c := loop(t)
	f := c.Figure2
	if math.Abs(f.OneHop[0]-f.All[0]) > 0.08 {
		t.Errorf("free-rider share: one-hop %v vs all %v", f.OneHop[0], f.All[0])
	}
	if f.OneHop[0] < 0.15 || f.OneHop[0] > 0.35 {
		t.Errorf("free-rider share = %v, want ≈0.25", f.OneHop[0])
	}
}
