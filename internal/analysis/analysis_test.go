package analysis

import (
	"fmt"
	"math"
	"net/netip"
	"testing"
	"time"

	"repro/internal/dist"
	"repro/internal/filter"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/trace"
)

// addresses per region for synthetic traces.
var testAddrs = [geo.NumContinental]string{
	geo.NorthAmerica: "66.10.0.%d",
	geo.Europe:       "80.10.0.%d",
	geo.Asia:         "61.10.0.%d",
}

type traceBuilder struct {
	tr     *trace.Trace
	nextIP [geo.NumContinental]int
}

func newBuilder(days int) *traceBuilder {
	return &traceBuilder{
		tr: &trace.Trace{Days: days, PongSampleRate: 1, HitSampleRate: 1},
	}
}

func (b *traceBuilder) addr(r geo.Region) netip.Addr {
	b.nextIP[r]++
	return netip.MustParseAddr(fmt.Sprintf(testAddrs[r], b.nextIP[r]%250+1))
}

// session adds a connection with the given queries (offsets from start).
func (b *traceBuilder) session(r geo.Region, start, dur time.Duration, queryOffsets []time.Duration, texts []string) uint64 {
	id := uint64(len(b.tr.Conns))
	b.tr.Conns = append(b.tr.Conns, trace.Conn{
		ID: id, Start: start, End: start + dur, Addr: b.addr(r),
	})
	for i, off := range queryOffsets {
		text := "query"
		if texts != nil {
			text = texts[i]
		}
		b.tr.Queries = append(b.tr.Queries, trace.Query{
			ConnID: id, At: start + off, Text: text, Hops: 1,
		})
	}
	return id
}

func enrich(t *testing.T, tr *trace.Trace) []Session {
	t.Helper()
	return Enrich(filter.Apply(tr))
}

func TestEnrichResolvesRegions(t *testing.T) {
	b := newBuilder(1)
	b.session(geo.NorthAmerica, at(0, 3), 2*time.Minute, nil, nil)
	b.session(geo.Europe, at(0, 12), 2*time.Minute, nil, nil)
	ss := enrich(t, b.tr)
	if len(ss) != 2 {
		t.Fatalf("%d sessions", len(ss))
	}
	if ss[0].Region != geo.NorthAmerica || ss[0].StartHour != 3 || ss[0].Period != model.Peak {
		t.Errorf("session 0: %+v", ss[0])
	}
	if ss[1].Region != geo.Europe || ss[1].StartHour != 12 || ss[1].Period != model.Peak {
		t.Errorf("session 1: %+v", ss[1])
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

func at(day, hour int) time.Duration {
	return time.Duration(day)*24*time.Hour + time.Duration(hour)*time.Hour
}

func TestComputeTable1(t *testing.T) {
	tr := &trace.Trace{
		Days: 40,
		Counts: trace.MessageCounts{
			Query: 1000, QueryHit: 50, Ping: 700, Pong: 400, QueryHop1: 60,
		},
		Conns: []trace.Conn{
			{ID: 0, Ultrapeer: true, Addr: netip.MustParseAddr("66.0.0.1"), End: time.Minute},
			{ID: 1, Addr: netip.MustParseAddr("66.0.0.2"), End: time.Minute},
		},
	}
	t1 := ComputeTable1(tr)
	if t1.Queries != 1000 || t1.DirectConnections != 2 || t1.QueriesHop1 != 60 {
		t.Errorf("table1 = %+v", t1)
	}
	if t1.UltrapeerFraction != 0.5 {
		t.Errorf("up fraction = %v", t1.UltrapeerFraction)
	}
	if empty := ComputeTable1(&trace.Trace{}); empty.UltrapeerFraction != 0 {
		t.Error("empty trace fraction should be 0")
	}
}

func TestComputeFigure1(t *testing.T) {
	b := newBuilder(2)
	// Day 0, hour 3: three NA one-hop conns, one EU.
	for i := 0; i < 3; i++ {
		b.session(geo.NorthAmerica, at(0, 3)+time.Duration(i)*time.Minute, 2*time.Minute, nil, nil)
	}
	b.session(geo.Europe, at(0, 3), 2*time.Minute, nil, nil)
	// Remote pongs at hour 3: 1 NA, 1 Asia.
	b.tr.Pongs = append(b.tr.Pongs,
		trace.Pong{At: at(0, 3), Addr: netip.MustParseAddr("66.99.0.1"), Hops: 4},
		trace.Pong{At: at(0, 3), Addr: netip.MustParseAddr("61.99.0.1"), Hops: 5},
	)
	g := ComputeFigure1(b.tr)
	if got := g.OneHop[geo.NorthAmerica][3]; math.Abs(got-0.75) > 1e-9 {
		t.Errorf("one-hop NA share at hour 3 = %v, want 0.75", got)
	}
	if got := g.AllPeers[geo.Asia][3]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("all-peer Asia share = %v, want 0.5", got)
	}
	if !math.IsNaN(g.OneHop[geo.NorthAmerica][10]) {
		t.Error("hours without observations should be NaN")
	}
}

func TestComputeFigure2(t *testing.T) {
	tr := &trace.Trace{}
	tr.Pongs = []trace.Pong{
		{SharedFiles: 0, Hops: 1},
		{SharedFiles: 0, Hops: 1},
		{SharedFiles: 10, Hops: 1},
		{SharedFiles: 0, Hops: 4},
		{SharedFiles: 500, Hops: 4}, // overflow bucket
	}
	f := ComputeFigure2(tr)
	if math.Abs(f.OneHop[0]-2.0/3) > 1e-9 {
		t.Errorf("one-hop P(0 files) = %v", f.OneHop[0])
	}
	if math.Abs(f.All[0]-0.5) > 1e-9 {
		t.Errorf("all P(0 files) = %v", f.All[0])
	}
}

func TestComputeFigure3(t *testing.T) {
	b := newBuilder(2)
	// NA session at hour 3 day 0 with 2 queries; another on day 1 with 4.
	b.session(geo.NorthAmerica, at(0, 3), 10*time.Minute,
		[]time.Duration{time.Minute, 2 * time.Minute}, []string{"a", "b"})
	b.session(geo.NorthAmerica, at(1, 3), 10*time.Minute,
		[]time.Duration{1 * time.Minute, 150 * time.Second, 250 * time.Second, 470 * time.Second},
		[]string{"a", "b", "c", "d"})
	load := ComputeFigure3(enrich(t, b.tr))
	series := load.PerRegion[geo.NorthAmerica]
	bin := 6 // hour 3, first half hour
	if series.Min[bin] != 2 || series.Max[bin] != 4 || series.Avg[bin] != 3 {
		t.Errorf("bin %d = %v/%v/%v, want 2/3/4", bin, series.Min[bin], series.Avg[bin], series.Max[bin])
	}
}

func TestComputeFigure4(t *testing.T) {
	b := newBuilder(1)
	// Hour 5: 3 passive + 1 active NA session.
	for i := 0; i < 3; i++ {
		b.session(geo.NorthAmerica, at(0, 5)+time.Duration(i)*time.Minute, 2*time.Minute, nil, nil)
	}
	b.session(geo.NorthAmerica, at(0, 5), 10*time.Minute, []time.Duration{time.Minute}, nil)
	pf := ComputeFigure4(enrich(t, b.tr))
	if got := pf.PerRegion[geo.NorthAmerica].Avg[5]; math.Abs(got-0.75) > 1e-9 {
		t.Errorf("passive fraction = %v, want 0.75", got)
	}
}

func TestComputeFigure5(t *testing.T) {
	b := newBuilder(1)
	b.session(geo.Asia, at(0, 13), 90*time.Second, nil, nil)
	b.session(geo.Asia, at(0, 13), 10*time.Minute, nil, nil)
	b.session(geo.Europe, at(0, 3), 5*time.Hour, nil, nil)
	pd := ComputeFigure5(enrich(t, b.tr))
	if pd.ByRegion[geo.Asia].Len() != 2 {
		t.Fatalf("Asia samples = %d", pd.ByRegion[geo.Asia].Len())
	}
	if got := pd.ByRegion[geo.Asia].CCDF(120); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Asia CCDF(2min) = %v", got)
	}
	// EU session started at key period 03:00.
	if k := keyIndex(t, 3); pd.ByPeriod[geo.Europe][k].Len() != 1 {
		t.Errorf("EU period-3 samples = %d", pd.ByPeriod[geo.Europe][k].Len())
	}
}

func TestComputeFigure6(t *testing.T) {
	b := newBuilder(1)
	b.session(geo.Europe, at(0, 11), 30*time.Minute,
		[]time.Duration{time.Minute, 150 * time.Second, 310 * time.Second},
		[]string{"a", "b", "c"})
	// Session with an interval run: 1 user query + 4 automated.
	b.session(geo.Asia, at(0, 13), 30*time.Minute,
		[]time.Duration{time.Minute,
			10 * time.Minute, 10*time.Minute + 10*time.Second,
			10*time.Minute + 20*time.Second, 10*time.Minute + 30*time.Second},
		[]string{"user q", "m1", "m2", "m3", "m4"})
	q := ComputeFigure6(enrich(t, b.tr))
	if q.ByRegion[geo.Europe].Len() != 1 || q.ByRegion[geo.Europe].Max() != 3 {
		t.Errorf("EU queries: %+v", q.ByRegion[geo.Europe].Values())
	}
	// Asia session: user count 1, unfiltered count 5.
	if got := q.ByRegion[geo.Asia].Max(); got != 1 {
		t.Errorf("Asia filtered count = %v, want 1", got)
	}
	if got := q.Unfiltered[geo.Asia].Max(); got != 5 {
		t.Errorf("Asia unfiltered count = %v, want 5", got)
	}
	if k := keyIndex(t, 11); q.ByPeriodEU[k].Len() != 1 {
		t.Errorf("EU period-11 sessions = %d", q.ByPeriodEU[k].Len())
	}
}

func TestComputeFigure7(t *testing.T) {
	b := newBuilder(1)
	b.session(geo.NorthAmerica, at(0, 3), 30*time.Minute,
		[]time.Duration{45 * time.Second}, []string{"solo"})
	b.session(geo.NorthAmerica, at(0, 3), 30*time.Minute,
		[]time.Duration{90 * time.Second, 200 * time.Second, 330 * time.Second, 510 * time.Second},
		[]string{"a", "b", "c", "d"})
	f := ComputeFigure7(enrich(t, b.tr))
	if f.ByRegion[geo.NorthAmerica].Len() != 2 {
		t.Fatalf("NA samples = %d", f.ByRegion[geo.NorthAmerica].Len())
	}
	// Bucket 0 (<3 queries) has the 45 s sample; bucket 2 (>3) the 90 s one.
	if got := f.ByBucketNA[0].Max(); got != 45 {
		t.Errorf("bucket <3 = %v", got)
	}
	if got := f.ByBucketNA[2].Max(); got != 90 {
		t.Errorf("bucket >3 = %v", got)
	}
}

func TestComputeFigure8(t *testing.T) {
	b := newBuilder(1)
	b.session(geo.Europe, at(0, 11), 30*time.Minute,
		[]time.Duration{time.Minute, 2 * time.Minute}, []string{"a", "b"})
	ia := ComputeFigure8(enrich(t, b.tr))
	if ia.ByRegion[geo.Europe].Len() != 1 || ia.ByRegion[geo.Europe].Max() != 60 {
		t.Errorf("EU IATs: %+v", ia.ByRegion[geo.Europe].Values())
	}
	// Two-query session lands in IAT bucket 0.
	if ia.ByBucketEU[0].Len() != 1 {
		t.Errorf("bucket =2 count = %d", ia.ByBucketEU[0].Len())
	}
	if k := keyIndex(t, 11); ia.ByPeriodEU[k].Len() != 1 {
		t.Errorf("period 11 count = %d", ia.ByPeriodEU[k].Len())
	}
}

func TestComputeFigure9(t *testing.T) {
	b := newBuilder(1)
	b.session(geo.NorthAmerica, at(0, 19), 10*time.Minute,
		[]time.Duration{2 * time.Minute}, []string{"one"})
	al := ComputeFigure9(enrich(t, b.tr))
	if al.ByRegion[geo.NorthAmerica].Len() != 1 {
		t.Fatalf("NA samples = %d", al.ByRegion[geo.NorthAmerica].Len())
	}
	if got := al.ByRegion[geo.NorthAmerica].Max(); got != 480 {
		t.Errorf("after-last = %v s, want 480", got)
	}
	if al.ByBucketNA[0].Len() != 1 {
		t.Errorf("bucket-1 count = %d", al.ByBucketNA[0].Len())
	}
}

func TestComputeTable3(t *testing.T) {
	b := newBuilder(2)
	// Day 0: NA issues {x, shared}; EU issues {y, shared}; AS issues {z}.
	b.session(geo.NorthAmerica, at(0, 3), 10*time.Minute,
		[]time.Duration{time.Minute, 2 * time.Minute}, []string{"x", "shared"})
	b.session(geo.Europe, at(0, 12), 10*time.Minute,
		[]time.Duration{time.Minute, 2 * time.Minute}, []string{"y", "shared"})
	b.session(geo.Asia, at(0, 13), 10*time.Minute,
		[]time.Duration{time.Minute}, []string{"z"})
	// Day 1: NA issues {x2}.
	b.session(geo.NorthAmerica, at(1, 3), 10*time.Minute,
		[]time.Duration{time.Minute}, []string{"x2"})
	qc := ComputeTable3(enrich(t, b.tr), 2)
	d1 := qc.Windows[1]
	// Average over two 1-day windows: NA (2+1)/2, EU (2+0)/2, AS (1+0)/2.
	if math.Abs(d1.NA-1.5) > 1e-9 || math.Abs(d1.EU-1) > 1e-9 || math.Abs(d1.AS-0.5) > 1e-9 {
		t.Errorf("1-day counts = %+v", d1)
	}
	if math.Abs(d1.NAEU-0.5) > 1e-9 || d1.All != 0 {
		t.Errorf("intersections = %+v", d1)
	}
	d2 := qc.Windows[2]
	if d2.NA != 3 || d2.EU != 2 || d2.NAEU != 1 {
		t.Errorf("2-day counts = %+v", d2)
	}
}

func TestComputeFigure10(t *testing.T) {
	b := newBuilder(2)
	// Day 0: NA queries a,b,c with frequencies 3,2,1.
	offs := []time.Duration{}
	texts := []string{}
	day0 := []struct {
		text string
		n    int
	}{{"a", 3}, {"b", 2}, {"c", 1}}
	k := 0
	for _, e := range day0 {
		for i := 0; i < e.n; i++ {
			// Different sessions so rule 2 does not dedupe.
			b.session(geo.NorthAmerica, at(0, 3)+time.Duration(k)*time.Minute,
				10*time.Minute, []time.Duration{time.Minute}, []string{e.text})
			k++
		}
	}
	_ = offs
	_ = texts
	// Day 1: only "a" survives; new queries d, e.
	for _, text := range []string{"a", "d", "e"} {
		b.session(geo.NorthAmerica, at(1, 3)+time.Duration(k)*time.Minute,
			10*time.Minute, []time.Duration{time.Minute}, []string{text})
		k++
	}
	drift := ComputeFigure10(enrich(t, b.tr), 2, geo.NorthAmerica)
	counts := drift.Survivors[0][10] // top-10 day 0 found in top-10 day 1
	if len(counts) != 1 || counts[0] != 1 {
		t.Errorf("survivors = %v, want [1]", counts)
	}
	if got := drift.FractionWithMoreThan(0, 10, 0); got != 1 {
		t.Errorf("P(>0) = %v", got)
	}
	if got := drift.FractionWithMoreThan(0, 10, 1); got != 0 {
		t.Errorf("P(>1) = %v", got)
	}
}

func TestComputeFigure11(t *testing.T) {
	b := newBuilder(1)
	// NA-only queries with a steep frequency profile, one shared NA∩EU
	// query.
	day0 := []struct {
		text string
		n    int
	}{{"na1", 8}, {"na2", 4}, {"na3", 2}, {"na4", 1}}
	k := 0
	for _, e := range day0 {
		for i := 0; i < e.n; i++ {
			b.session(geo.NorthAmerica, at(0, 2)+time.Duration(k)*time.Minute,
				10*time.Minute, []time.Duration{time.Minute}, []string{e.text})
			k++
		}
	}
	b.session(geo.NorthAmerica, at(0, 2)+time.Duration(k)*time.Minute, 10*time.Minute,
		[]time.Duration{time.Minute}, []string{"both"})
	k++
	b.session(geo.Europe, at(0, 12)+time.Duration(k)*time.Minute, 10*time.Minute,
		[]time.Duration{time.Minute}, []string{"both"})
	pop, _ := ComputeFigure11(enrich(t, b.tr), 1)
	naFreq := pop.Freq[ClassNAOnly]
	if naFreq[0] < naFreq[1] || naFreq[1] < naFreq[2] {
		t.Errorf("NA-only frequencies not ranked: %v", naFreq[:4])
	}
	// The shared query forms the intersection class.
	if pop.Freq[ClassNAEU][0] == 0 {
		t.Error("intersection class empty")
	}
	if pop.Fit[ClassNAOnly] == (dist.ZipfFit{}) {
		t.Error("missing NA-only fit")
	}
}

func TestBandName(t *testing.T) {
	if BandName(0) != "top 10" || BandName(1) != "rank 11-20" || BandName(2) != "rank 21-100" {
		t.Error("band names")
	}
}

func TestComputeHitRates(t *testing.T) {
	b := newBuilder(1)
	id := b.session(geo.NorthAmerica, at(0, 3), 10*time.Minute,
		[]time.Duration{time.Minute, 200 * time.Second}, []string{"popular", "rare"})
	_ = id
	// Another session repeats "popular" the same day.
	b.session(geo.NorthAmerica, at(0, 4), 10*time.Minute,
		[]time.Duration{time.Minute}, []string{"popular"})
	// Assign hits: popular queries answered, rare not.
	b.tr.Queries[0].Hits = 4
	b.tr.Queries[1].Hits = 0
	b.tr.Queries[2].Hits = 6
	hr := ComputeHitRates(b.tr)
	na := hr.ByRegion[geo.NorthAmerica]
	if na.Len() != 3 {
		t.Fatalf("NA samples = %d", na.Len())
	}
	if math.Abs(hr.AnsweredFraction[geo.NorthAmerica]-2.0/3) > 1e-9 {
		t.Errorf("answered = %v", hr.AnsweredFraction[geo.NorthAmerica])
	}
	// Bucket 1 (first occurrence) holds "popular"(first), "rare"; bucket
	// 2-3 holds the repeat.
	if hr.Buckets[0].N != 2 || hr.Buckets[1].N != 1 {
		t.Fatalf("bucket sizes: %+v", hr.Buckets[:2])
	}
	if hr.Buckets[1].MeanHits != 6 {
		t.Errorf("repeat bucket mean = %v", hr.Buckets[1].MeanHits)
	}
	if hr.PopularityCorrelation <= 0 {
		t.Errorf("popularity correlation = %v, want positive", hr.PopularityCorrelation)
	}
}

func TestComputeHitRatesSkipsSHA1(t *testing.T) {
	b := newBuilder(1)
	b.session(geo.Europe, at(0, 12), 10*time.Minute,
		[]time.Duration{time.Minute}, []string{"kw"})
	b.tr.Queries = append(b.tr.Queries, trace.Query{
		ConnID: 0, At: at(0, 12) + 2*time.Minute, SHA1: true, Hops: 1, Hits: 9,
	})
	hr := ComputeHitRates(b.tr)
	if hr.ByRegion[geo.Europe].Len() != 1 {
		t.Fatalf("EU samples = %d (SHA1 must be excluded)", hr.ByRegion[geo.Europe].Len())
	}
}
