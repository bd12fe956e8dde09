package model

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed+1)) }

func TestRegionMixRowsSumToOne(t *testing.T) {
	p := Default()
	for h := 0; h < 24; h++ {
		var sum float64
		for _, r := range geo.Regions {
			sum += p.RegionShare(r, h)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("hour %d: shares sum to %v", h, sum)
		}
	}
}

func TestRegionMixAnchors(t *testing.T) {
	// The paper's quoted mixes: 75/15/5 at 00:00, 80/5/5 at 03:00,
	// 60/20/15 at 12:00.
	p := Default()
	checks := []struct {
		hour float64
		r    geo.Region
		want float64
	}{
		{0, geo.NorthAmerica, 0.75}, {0, geo.Europe, 0.15}, {0, geo.Asia, 0.05},
		{3, geo.NorthAmerica, 0.80}, {3, geo.Europe, 0.05}, {3, geo.Asia, 0.05},
		{12, geo.NorthAmerica, 0.60}, {12, geo.Europe, 0.20}, {12, geo.Asia, 0.15},
	}
	for _, c := range checks {
		if got := p.RegionShare(c.r, int(c.hour)); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("share(%v, %02.0f:00) = %v, want %v", c.r, c.hour, got, c.want)
		}
	}
}

func TestRegionMixShape(t *testing.T) {
	p := Default()
	for h := 0; h < 24; h++ {
		na := p.RegionShare(geo.NorthAmerica, h)
		eu := p.RegionShare(geo.Europe, h)
		as := p.RegionShare(geo.Asia, h)
		if na < 0.60 || na > 0.80 {
			t.Errorf("hour %d: NA share %v outside 60–80%%", h, na)
		}
		if eu > 0.20 {
			t.Errorf("hour %d: EU share %v above 20%%", h, eu)
		}
		if as < 0.04 || as > 0.15 {
			t.Errorf("hour %d: Asia share %v outside 4–15%%", h, as)
		}
	}
}

func TestPickRegionFollowsMix(t *testing.T) {
	p := Default()
	rng := newRNG(1)
	const n = 200000
	counts := map[geo.Region]int{}
	for i := 0; i < n; i++ {
		counts[p.PickRegion(rng, 12)]++
	}
	for _, r := range geo.Regions {
		got := float64(counts[r]) / n
		want := p.RegionShare(r, 12)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("PickRegion(%v) freq %v, want %v", r, got, want)
		}
	}
}

func TestPeakPeriods(t *testing.T) {
	// The four key periods must classify as the paper says.
	if !IsPeak(geo.NorthAmerica, 3) {
		t.Error("03:00 must be peak for NA")
	}
	if IsPeak(geo.Europe, 3) {
		t.Error("03:00 must be a sink for EU")
	}
	if IsPeak(geo.NorthAmerica, 11) || IsPeak(geo.NorthAmerica, 13) {
		t.Error("11:00/13:00 must be sinks for NA")
	}
	if !IsPeak(geo.Europe, 11) || !IsPeak(geo.Europe, 13) {
		t.Error("11:00/13:00 must be peaks for EU")
	}
	if !IsPeak(geo.Asia, 13) {
		t.Error("13:00 must be peak for Asia")
	}
	if !IsPeak(geo.NorthAmerica, 19) || !IsPeak(geo.Europe, 19) {
		t.Error("19:00 must be a joint NA+EU peak")
	}
	if PeriodOf(geo.NorthAmerica, 3) != Peak || PeriodOf(geo.NorthAmerica, 12) != OffPeak {
		t.Error("PeriodOf mismatch")
	}
}

func TestPassiveFractionBands(t *testing.T) {
	p := Default()
	for h := 0; h < 24; h++ {
		na := p.PassiveFraction(geo.NorthAmerica, h)
		eu := p.PassiveFraction(geo.Europe, h)
		as := p.PassiveFraction(geo.Asia, h)
		if na < 0.80 || na > 0.85 {
			t.Errorf("hour %d: NA passive %v outside 80–85%%", h, na)
		}
		if eu < 0.75 || eu > 0.80 {
			t.Errorf("hour %d: EU passive %v outside 75–80%%", h, eu)
		}
		if as < 0.80 || as > 0.90 {
			t.Errorf("hour %d: Asia passive %v outside 80–90%%", h, as)
		}
	}
}

func TestPassiveDurationOrdering(t *testing.T) {
	// Figure 5(a): fraction of sessions under 2 minutes is 85% Asia,
	// 75% NA, 55% EU.
	p := Default()
	twoMin := 120.0
	as := p.PassiveDuration[geo.Asia][Peak].CDF(twoMin)
	na := p.PassiveDuration[geo.NorthAmerica][Peak].CDF(twoMin)
	eu := p.PassiveDuration[geo.Europe][Peak].CDF(twoMin)
	if math.Abs(as-0.86) > 0.02 || math.Abs(na-0.75) > 0.02 || math.Abs(eu-0.55) > 0.02 {
		t.Errorf("P(<2min) = AS %v NA %v EU %v", as, na, eu)
	}
	// All passive durations are at least 64 s (rule 3 boundary).
	rng := newRNG(2)
	for _, r := range []geo.Region{geo.NorthAmerica, geo.Europe, geo.Asia} {
		for i := 0; i < 2000; i++ {
			if d := p.PassiveDuration[r][Peak].Sample(rng); d < 64 {
				t.Fatalf("%v passive duration %v below 64 s", r, d)
			}
		}
	}
	// Off-peak sessions are longer than peak sessions (Figure 5(b,c)).
	for _, r := range []geo.Region{geo.NorthAmerica, geo.Europe} {
		peak := p.PassiveDuration[r][Peak].CDF(90 * 60)
		off := p.PassiveDuration[r][OffPeak].CDF(90 * 60)
		if off >= peak {
			t.Errorf("%v: off-peak CDF(90min)=%v should be < peak %v", r, off, peak)
		}
	}
}

func TestPassiveDurationLongTail(t *testing.T) {
	// ~1% of sessions last 17–50 hours in every region (Figure 5(a)).
	p := Default()
	for _, r := range []geo.Region{geo.NorthAmerica, geo.Europe, geo.Asia} {
		d := p.PassiveDuration[r][Peak]
		frac := d.CDF(50*3600) - d.CDF(17*3600)
		if frac < 0.002 || frac > 0.04 {
			t.Errorf("%v: P(17h–50h) = %v, want near 1%%", r, frac)
		}
	}
}

func TestNumQueriesTableA2(t *testing.T) {
	p := Default()
	na := p.NumQueries[geo.NorthAmerica]
	eu := p.NumQueries[geo.Europe]
	as := p.NumQueries[geo.Asia]
	if na.Mu != -0.0673 || na.Sigma != 1.360 {
		t.Errorf("NA = %v", na)
	}
	if eu.Mu != 0.520 || eu.Sigma != 1.306 {
		t.Errorf("EU = %v", eu)
	}
	if as.Mu != -1.029 || as.Sigma != 1.618 {
		t.Errorf("AS = %v", as)
	}
}

func TestSampleNumQueriesOrdering(t *testing.T) {
	// Figure 6(a): EU sessions have more queries than NA, which have more
	// than Asia.
	p := Default()
	rng := newRNG(3)
	mean := func(r geo.Region) float64 {
		var sum float64
		const n = 50000
		for i := 0; i < n; i++ {
			sum += float64(p.SampleNumQueries(rng, r))
		}
		return sum / n
	}
	eu, na, as := mean(geo.Europe), mean(geo.NorthAmerica), mean(geo.Asia)
	if !(eu > na && na > as) {
		t.Errorf("mean queries: EU %v, NA %v, AS %v — want EU > NA > AS", eu, na, as)
	}
	// Every sample is at least 1.
	for i := 0; i < 1000; i++ {
		if p.SampleNumQueries(rng, geo.Asia) < 1 {
			t.Fatal("active session with 0 queries")
		}
	}
}

func TestQueryBuckets(t *testing.T) {
	casesA3 := map[int]int{1: 0, 2: 0, 3: 1, 4: 2, 100: 2}
	for n, want := range casesA3 {
		if got := QueryBucketA3(n); got != want {
			t.Errorf("A3(%d) = %d, want %d", n, got, want)
		}
	}
	casesA5 := map[int]int{1: 0, 2: 1, 7: 1, 8: 2, 100: 2}
	for n, want := range casesA5 {
		if got := QueryBucketA5(n); got != want {
			t.Errorf("A5(%d) = %d, want %d", n, got, want)
		}
	}
	casesIAT := map[int]int{2: 0, 3: 1, 7: 1, 8: 2}
	for n, want := range casesIAT {
		if got := QueryBucketIAT(n); got != want {
			t.Errorf("IAT(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestKeyPeriodIndex(t *testing.T) {
	for k, h := range KeyPeriods {
		if got, ok := KeyPeriodIndex(h); !ok || got != k {
			t.Errorf("KeyPeriodIndex(%d) = %d, %v; want %d, true", h, got, ok, k)
		}
	}
	for _, h := range []int{-1, 0, 4, 12, 23, 24} {
		if _, ok := KeyPeriodIndex(h); ok {
			t.Errorf("hour %d must not be a key period", h)
		}
	}
}

func TestFirstQueryAnchors(t *testing.T) {
	// Figure 7(b) anchors for NA peak sessions: 90% of <3-query sessions
	// issue the first query before 200 s, =3 before 1000 s, >3 before
	// 2000 s.
	p := Default()
	anchors := []struct {
		numQueries int
		at         float64
	}{{1, 200}, {3, 1000}, {5, 2000}}
	for _, a := range anchors {
		d := p.FirstQuery[geo.NorthAmerica][Peak][QueryBucketA3(a.numQueries)]
		if got := d.CDF(a.at); math.Abs(got-0.90) > 0.03 {
			t.Errorf("NA peak bucket(%d): CDF(%v) = %v, want ≈0.90", a.numQueries, a.at, got)
		}
	}
	// More queries ⇒ stochastically later first query at the anchor scale.
	lt3 := p.FirstQuery[geo.NorthAmerica][Peak][QueryBucketA3(1)].CDF(500)
	gt3 := p.FirstQuery[geo.NorthAmerica][Peak][QueryBucketA3(9)].CDF(500)
	if gt3 >= lt3 {
		t.Errorf("CDF(500): <3 %v should exceed >3 %v", lt3, gt3)
	}
}

func TestFirstQueryAsiaFasterBody(t *testing.T) {
	// Figure 7(a): 90% of Asian first queries within 90 s.
	p := Default()
	d := p.FirstQuery[geo.Asia][Peak][QueryBucketA3(1)]
	if got := d.CDF(90); math.Abs(got-0.90) > 0.03 {
		t.Errorf("Asia CDF(90s) = %v, want ≈0.90", got)
	}
}

func TestInterarrivalAnchors(t *testing.T) {
	// Figure 8(a): P(IAT < 100 s) ≈ 0.90 EU, 0.80 Asia, 0.70 NA (peak).
	p := Default()
	cases := []struct {
		r    geo.Region
		want float64
	}{
		{geo.Europe, 0.90}, {geo.Asia, 0.80}, {geo.NorthAmerica, 0.70},
	}
	for _, c := range cases {
		// Bucket 1 (3–7 queries) is the representative middle bucket.
		d := p.Interarrival[c.r][Peak][QueryBucketIAT(5)]
		if got := d.CDF(100); math.Abs(got-c.want) > 0.04 {
			t.Errorf("%v: P(IAT<100) = %v, want ≈%v", c.r, got, c.want)
		}
	}
}

func TestInterarrivalEUConditioning(t *testing.T) {
	// Figure 8(b): EU many-query sessions have shorter interarrivals;
	// NA does not condition on the count.
	p := Default()
	euFew := p.Interarrival[geo.Europe][Peak][QueryBucketIAT(2)].CDF(100)
	euMany := p.Interarrival[geo.Europe][Peak][QueryBucketIAT(20)].CDF(100)
	if euMany <= euFew {
		t.Errorf("EU: many-query CDF(100) %v should exceed few-query %v", euMany, euFew)
	}
	naFew := p.Interarrival[geo.NorthAmerica][Peak][QueryBucketIAT(2)]
	naMany := p.Interarrival[geo.NorthAmerica][Peak][QueryBucketIAT(20)]
	if naFew.CDF(100) != naMany.CDF(100) {
		t.Error("NA interarrival must not depend on query count")
	}
}

func TestInterarrivalPeakSlower(t *testing.T) {
	// Figure 8(c): queries in peak hours have longer interarrival times.
	p := Default()
	for _, r := range []geo.Region{geo.NorthAmerica, geo.Europe, geo.Asia} {
		peak := p.Interarrival[r][Peak][QueryBucketIAT(5)].CDF(100)
		off := p.Interarrival[r][OffPeak][QueryBucketIAT(5)].CDF(100)
		if off <= peak {
			t.Errorf("%v: off-peak CDF(100) %v should exceed peak %v", r, off, peak)
		}
	}
}

func TestAfterLastQueryTableA5(t *testing.T) {
	p := Default()
	// Published NA values.
	got := p.AfterLast[geo.NorthAmerica][Peak][QueryBucketA5(1)]
	if got.Sigma != 2.361 || got.Mu != 4.879 {
		t.Errorf("NA peak 1 query = %v", got)
	}
	got = p.AfterLast[geo.NorthAmerica][OffPeak][QueryBucketA5(10)]
	if got.Sigma != 2.286 || got.Mu != 6.036 {
		t.Errorf("NA off-peak >7 = %v", got)
	}
	// µ increases with the query bucket (Figure 9(b)).
	for _, r := range []geo.Region{geo.NorthAmerica, geo.Europe, geo.Asia} {
		m1 := p.AfterLast[r][Peak][QueryBucketA5(1)].Mu
		m2 := p.AfterLast[r][Peak][QueryBucketA5(5)].Mu
		m3 := p.AfterLast[r][Peak][QueryBucketA5(9)].Mu
		if !(m1 < m2 && m2 < m3) {
			t.Errorf("%v: µ not increasing: %v %v %v", r, m1, m2, m3)
		}
	}
	// Asia closes faster (Figure 9(a)).
	asP := p.AfterLast[geo.Asia][Peak][QueryBucketA5(5)].CDF(1000)
	naP := p.AfterLast[geo.NorthAmerica][Peak][QueryBucketA5(5)].CDF(1000)
	if asP <= naP {
		t.Errorf("Asia CDF(1000) %v should exceed NA %v", asP, naP)
	}
}

func TestSharedFiles(t *testing.T) {
	p := Default()
	rng := newRNG(4)
	const n = 100000
	zero := 0
	for i := 0; i < n; i++ {
		f := p.SampleSharedFiles(rng)
		if f < 0 || f > 10000 {
			t.Fatalf("shared files %d out of range", f)
		}
		if f == 0 {
			zero++
		}
	}
	if got := float64(zero) / n; math.Abs(got-FreeRiderFraction) > 0.01 {
		t.Errorf("free-rider fraction %v, want %v", got, FreeRiderFraction)
	}
}

func TestQuickDisconnect(t *testing.T) {
	p := Default()
	rng := newRNG(5)
	const n = 100000
	under10, under64 := 0, 0
	burst := 0
	for i := 0; i < n; i++ {
		d := p.SampleQuickDisconnect(rng).Seconds()
		if d <= 0 || d >= 64 {
			t.Fatalf("quick disconnect %vs outside (0, 64)", d)
		}
		if d < 10 {
			under10++
		}
		if d >= 20 && d < 25 {
			burst++
		}
		under64++
	}
	// Section 3.3: 29% of *all* connections < 10 s and 32% in the 20–25 s
	// band; conditioned on being a quick session, divide by 0.70.
	if got := float64(under10) / n; math.Abs(got-0.29/0.70) > 0.02 {
		t.Errorf("P(<10s | quick) = %v, want %v", got, 0.29/0.70)
	}
	if got := float64(burst) / n; got < 0.32/0.70-0.03 {
		t.Errorf("P(20–25s | quick) = %v, want ≥ %v", got, 0.32/0.70)
	}
}

func TestSessionsPerHourFullScale(t *testing.T) {
	// 4,361,965 connections over 40 days.
	if math.Abs(SessionsPerHourFullScale*40*24-4361965) > 1 {
		t.Errorf("full-scale rate = %v", SessionsPerHourFullScale)
	}
}

func TestUnknownRegionFallsBack(t *testing.T) {
	p := Default()
	if p.PassiveFraction(geo.Unknown, 3) != p.PassiveFraction(geo.Other, 3) {
		t.Error("unknown region's passive fraction must fold into Other's")
	}
	unknown, other := newRNG(6), newRNG(6)
	for i := 0; i < 100; i++ {
		if p.SampleNumQueries(unknown, geo.Unknown) != p.SampleNumQueries(other, geo.Other) {
			t.Fatal("unknown region's query counts must fold into Other's")
		}
	}
	if p.RegionShare(geo.Unknown, 0) != 0 {
		t.Error("unknown region share should be 0")
	}
	if IsPeak(geo.Unknown, 12) {
		t.Error("unknown region is never peak")
	}
}

// TestDefaultCellsBuilt holds every cell of Default to its constructor. A
// BodyTail written as a struct literal has a zero conditioning cache that
// skews every draw, and a lognormal with σ = 0 is a cell never filled.
func TestDefaultCellsBuilt(t *testing.T) {
	p := Default()
	positive := func(name string, l dist.Lognormal) {
		if !(l.Sigma > 0) {
			t.Errorf("%s: %v has σ ≤ 0", name, l)
		}
	}
	built := func(name string, d dist.BodyTail) {
		if d != dist.NewBodyTail(d.Body, d.Lo, d.Hi, d.BodyWeight, d.Tail) {
			t.Errorf("%s: %v was not built by dist.NewBodyTail", name, d)
		}
		for _, c := range []dist.Dist{d.Body, d.Tail} {
			if l, ok := c.(dist.Lognormal); ok {
				positive(name, l)
			}
		}
	}
	for _, r := range geo.Regions {
		positive(fmt.Sprintf("A.2 %v", r), p.NumQueries[r])
		for per := range NumPeriods {
			built(fmt.Sprintf("A.1 %v %v", r, Period(per)), p.PassiveDuration[r][per])
			for b := range NumBuckets {
				cell := fmt.Sprintf("%v %v bucket %d", r, Period(per), b)
				built("A.3 "+cell, p.FirstQuery[r][per][b])
				built("A.4 "+cell, p.Interarrival[r][per][b])
				positive("A.5 "+cell, p.AfterLast[r][per][b])
			}
		}
	}
	positive("shared files", p.SharedFiles)
	na, o := geo.NorthAmerica, geo.Other
	if p.PassiveDuration[o] != p.PassiveDuration[na] || p.NumQueries[o] != p.NumQueries[na] ||
		p.FirstQuery[o] != p.FirstQuery[na] || p.Interarrival[o] != p.Interarrival[na] ||
		p.AfterLast[o] != p.AfterLast[na] {
		t.Error("every Other row must equal North America's")
	}
}
