package p2pquery

// One benchmark per table and figure of the paper: each regenerates its
// artifact from a shared simulated trace, so `go test -bench .` both
// exercises every analysis code path and reports how long each costs.
// Micro-benchmarks for the protocol substrate and ablation benchmarks for
// the paper's methodological choices (filtering, per-day ranking,
// conditional workload structure, replication strategy) follow.

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/filter"
	"repro/internal/geo"
	"repro/internal/guid"
	"repro/internal/model"
	"repro/internal/overlay"
	"repro/internal/search"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/internal/workload"
)

// benchTrace is shared by the per-figure benchmarks; simulating it is
// benchmarked separately (BenchmarkSimulateTrace).
var (
	benchOnce     sync.Once
	benchTr       *trace.Trace
	benchFiltered *filter.Result
	benchSessions []analysis.Session
)

func benchSetup(b *testing.B) (*trace.Trace, []analysis.Session) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := DefaultSimulation(2004, 0.01)
		cfg.Workload.Days = 4
		benchTr = Simulate(cfg)
		benchFiltered = filter.Apply(benchTr)
		benchSessions = analysis.Enrich(benchFiltered)
	})
	return benchTr, benchSessions
}

// BenchmarkSimulateTrace measures the full measurement simulation (one
// day at 1% scale ≈ 1,100 connections).
func BenchmarkSimulateTrace(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultSimulation(uint64(i), 0.01)
		cfg.Workload.Days = 1
		tr := Simulate(cfg)
		if len(tr.Conns) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// --- Tables ---

func BenchmarkTable1TraceStats(b *testing.B) {
	tr, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t1 := analysis.ComputeTable1(tr)
		if t1.Queries == 0 {
			b.Fatal("no queries")
		}
	}
}

func BenchmarkTable2FilterPipeline(b *testing.B) {
	tr, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := filter.Apply(tr)
		if res.FinalSessions == 0 {
			b.Fatal("no sessions retained")
		}
	}
}

func BenchmarkTable3QueryClasses(b *testing.B) {
	tr, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qc := analysis.ComputeTable3(sessions, tr.Days)
		if len(qc.Windows) == 0 {
			b.Fatal("no windows")
		}
	}
}

// --- Figures ---

func BenchmarkFigure1GeoDistribution(b *testing.B) {
	tr, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := analysis.ComputeFigure1(tr)
		if len(g.OneHop) == 0 {
			b.Fatal("no distribution")
		}
	}
}

func BenchmarkFigure2SharedFiles(b *testing.B) {
	tr, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := analysis.ComputeFigure2(tr)
		if len(f.OneHop) == 0 {
			b.Fatal("no histogram")
		}
	}
}

func BenchmarkFigure3LoadByTime(b *testing.B) {
	_, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := analysis.ComputeFigure3(sessions)
		if len(l.PerRegion) != 3 {
			b.Fatal("missing regions")
		}
	}
}

func BenchmarkFigure4PassiveFraction(b *testing.B) {
	_, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := analysis.ComputeFigure4(sessions)
		if len(p.PerRegion) != 3 {
			b.Fatal("missing regions")
		}
	}
}

func BenchmarkFigure5PassiveDuration(b *testing.B) {
	_, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := analysis.ComputeFigure5(sessions)
		if d.ByRegion[geo.NorthAmerica].Len() == 0 {
			b.Fatal("no samples")
		}
	}
}

func BenchmarkFigure6QueriesPerSession(b *testing.B) {
	_, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := analysis.ComputeFigure6(sessions)
		if q.ByRegion[geo.NorthAmerica].Len() == 0 {
			b.Fatal("no samples")
		}
	}
}

func BenchmarkFigure7TimeToFirstQuery(b *testing.B) {
	_, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := analysis.ComputeFigure7(sessions)
		if f.ByRegion[geo.NorthAmerica].Len() == 0 {
			b.Fatal("no samples")
		}
	}
}

func BenchmarkFigure8Interarrival(b *testing.B) {
	_, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ia := analysis.ComputeFigure8(sessions)
		if ia.ByRegion[geo.NorthAmerica].Len() == 0 {
			b.Fatal("no samples")
		}
	}
}

func BenchmarkFigure9TimeAfterLast(b *testing.B) {
	_, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		al := analysis.ComputeFigure9(sessions)
		if al.ByRegion[geo.NorthAmerica].Len() == 0 {
			b.Fatal("no samples")
		}
	}
}

func BenchmarkFigure10HotSetDrift(b *testing.B) {
	tr, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := analysis.ComputeFigure10(sessions, tr.Days, geo.NorthAmerica)
		if len(d.Survivors[0]) == 0 {
			b.Fatal("no drift data")
		}
	}
}

func BenchmarkFigure11QueryPopularity(b *testing.B) {
	tr, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pop, err := analysis.ComputeFigure11(sessions, tr.Days)
		if err != nil && len(pop.Freq) == 0 {
			b.Fatal(err)
		}
	}
}

// --- Appendix fits (Tables A.1–A.5) ---

// fitBench samples a conditioned measure from the shared sessions and
// re-fits its appendix model.
func BenchmarkTableA1FitPassiveDuration(b *testing.B) {
	_, sessions := benchSetup(b)
	var xs []float64
	for i := range sessions {
		s := &sessions[i]
		if s.Region == geo.NorthAmerica && s.Passive() {
			xs = append(xs, s.Conn.Duration().Seconds())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitBimodalLognormal(xs, 64, 120); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableA2FitQueriesPerSession(b *testing.B) {
	_, sessions := benchSetup(b)
	var xs []float64
	for i := range sessions {
		s := &sessions[i]
		if s.Region == geo.NorthAmerica && s.UserQueries > 0 {
			xs = append(xs, float64(s.UserQueries))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitLognormalCounts(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableA3FitTimeToFirstQuery(b *testing.B) {
	_, sessions := benchSetup(b)
	var xs []float64
	for i := range sessions {
		s := &sessions[i]
		if s.Region == geo.NorthAmerica {
			if first, ok := s.FirstQueryTime(); ok && first > 0 {
				xs = append(xs, first.Seconds())
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitWeibullLognormal(xs, 0, 45); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableA4FitInterarrival(b *testing.B) {
	_, sessions := benchSetup(b)
	var xs []float64
	for i := range sessions {
		s := &sessions[i]
		if s.Region != geo.NorthAmerica {
			continue
		}
		for _, d := range s.Interarrivals() {
			if d > 0 {
				xs = append(xs, d.Seconds())
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitLognormalPareto(xs, 0, 103); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableA5FitTimeAfterLast(b *testing.B) {
	_, sessions := benchSetup(b)
	var xs []float64
	for i := range sessions {
		s := &sessions[i]
		if s.Region == geo.NorthAmerica {
			if gap, ok := s.LastQueryGap(); ok && gap > 0 {
				xs = append(xs, gap.Seconds())
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dist.FitLognormal(xs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigureA1FitOverlays regenerates the fitted-versus-measured
// overlay of Figure A.1 by evaluating the fitted mixture's CCDF against
// the empirical sample.
func BenchmarkFigureA1FitOverlays(b *testing.B) {
	tr, _ := benchSetup(b)
	c := core.Characterize(tr)
	fit := c.Fits.Interarrival[geo.NorthAmerica][core.Peak]
	if !fit.OK {
		b.Skip("not enough data for the overlay fit at bench scale")
	}
	mix := fit.Fit.Mixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for x := 1.0; x < 1e4; x *= 1.2 {
			sum += 1 - mix.CDF(x)
		}
		if sum <= 0 {
			b.Fatal("degenerate overlay")
		}
	}
}

// BenchmarkCharacterizeFull runs the complete pipeline with the default
// (parallel, machine-sized) options.
func BenchmarkCharacterizeFull(b *testing.B) {
	tr, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.Characterize(tr)
		if len(c.Sessions) == 0 {
			b.Fatal("no sessions")
		}
	}
}

// BenchmarkCharacterizeFullSequential pins the pipeline to one worker —
// the reference the parallel speedup is measured against.
func BenchmarkCharacterizeFullSequential(b *testing.B) {
	tr, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.CharacterizeOpts(tr, core.Options{Workers: 1})
		if len(c.Sessions) == 0 {
			b.Fatal("no sessions")
		}
	}
}

// BenchmarkCharacterizeFullParallel runs the pipeline at GOMAXPROCS
// workers; on a multi-core host the per-figure and per-fit fan-out is the
// speedup source, on a single core it measures the pool's overhead.
func BenchmarkCharacterizeFullParallel(b *testing.B) {
	tr, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.CharacterizeOpts(tr, core.Options{Workers: runtime.GOMAXPROCS(0)})
		if len(c.Sessions) == 0 {
			b.Fatal("no sessions")
		}
	}
}

// BenchmarkCharacterizeScaleSweep reports ns/op and allocs of the full
// pipeline across trace scales, the perf trajectory future PRs track.
func BenchmarkCharacterizeScaleSweep(b *testing.B) {
	for _, scale := range []float64{0.01, 0.03, 0.10} {
		cfg := DefaultSimulation(2004, scale)
		cfg.Workload.Days = 4
		tr := Simulate(cfg)
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := core.Characterize(tr)
				if len(c.Sessions) == 0 {
					b.Fatal("no sessions")
				}
			}
		})
	}
}

// --- Ablations (the paper's methodological choices) ---

// BenchmarkAblationUnfilteredPopularity fits the popularity skew without
// the Section 3.3 filter — the paper's headline argument is that this
// inflates α (automated re-queries concentrate on recent user queries).
func BenchmarkAblationUnfilteredPopularity(b *testing.B) {
	tr, _ := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := map[string]int{}
		for j := range tr.Queries {
			key := wire.KeywordKey(tr.Queries[j].Text)
			if key != "" {
				counts[key]++
			}
		}
		freqs := topFreqs(counts, 100)
		if _, err := dist.FitZipf(freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAggregatePopularity computes popularity over the whole
// window without per-day ranking — the "flattened head" pitfall the paper
// avoids by ranking per day (Section 4.6).
func BenchmarkAblationAggregatePopularity(b *testing.B) {
	_, sessions := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := map[string]int{}
		for j := range sessions {
			s := &sessions[j]
			for k := range s.Queries {
				if !s.Queries[k].Rule5 {
					counts[s.Queries[k].Key]++
				}
			}
		}
		freqs := topFreqs(counts, 100)
		if _, err := dist.FitZipf(freqs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationUnconditionalWorkload generates sessions ignoring the
// region/period conditioning (every session drawn from the NA peak
// model), quantifying the generator cost of the conditional structure.
func BenchmarkAblationUnconditionalWorkload(b *testing.B) {
	params := model.Default()
	rng := rand.New(rand.NewPCG(9, 9))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := params.PassiveDuration(geo.NorthAmerica, 0)
		if d.Sample(rng) <= 0 {
			b.Fatal("bad sample")
		}
	}
}

func topFreqs(counts map[string]int, n int) []float64 {
	freqs := make([]float64, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, float64(c))
	}
	// partial selection sort for the top n
	for i := 0; i < n && i < len(freqs); i++ {
		maxJ := i
		for j := i + 1; j < len(freqs); j++ {
			if freqs[j] > freqs[maxJ] {
				maxJ = j
			}
		}
		freqs[i], freqs[maxJ] = freqs[maxJ], freqs[i]
	}
	if len(freqs) > n {
		freqs = freqs[:n]
	}
	return freqs
}

// --- Protocol micro-benchmarks ---

func BenchmarkWireEncodeQuery(b *testing.B) {
	g := guid.NewSource(1, 1)
	env := wire.NewEnvelope(g.Next(), 6, &wire.Query{SearchText: "blue mountain song mp3"})
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = wire.AppendEnvelope(buf[:0], env)
	}
	if len(buf) == 0 {
		b.Fatal("no bytes")
	}
}

func BenchmarkWireDecodeQuery(b *testing.B) {
	g := guid.NewSource(1, 1)
	buf := wire.AppendEnvelope(nil, wire.NewEnvelope(g.Next(), 6, &wire.Query{SearchText: "blue mountain song mp3"}))
	var p wire.Parser
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Parse(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverlayQueryRouting(b *testing.B) {
	g := guid.NewSource(2, 2)
	node := overlay.New(overlay.Config{
		Self:  g.Next(),
		Addr:  netip.MustParseAddr("127.0.0.1"),
		Now:   func() time.Duration { return 0 },
		Send:  func(int, wire.Envelope) {},
		GUIDs: g,
	})
	for i := 0; i < 50; i++ {
		node.AddConn(i, true)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := wire.Envelope{
			Header:  wire.Header{GUID: g.Next(), Type: wire.TypeQuery, TTL: 5, Hops: 1},
			Payload: &wire.Query{SearchText: "bench query"},
		}
		node.Receive(i%50, env)
	}
}

func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg := workload.DefaultConfig(1, 1)
	gen := workload.NewGenerator(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := gen.SessionAt(0)
		if s == nil {
			b.Fatal("nil session")
		}
	}
}

func BenchmarkKeywordKey(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if wire.KeywordKey("Blue MOUNTAIN blue song mp3") == "" {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkAblationReplicationStrategies evaluates Cohen & Shenker's
// replication policies under the measured (filtered) query popularity:
// allocation plus the analytic expected-search-size comparison that
// motivates square-root replication.
func BenchmarkAblationReplicationStrategies(b *testing.B) {
	tr, sessions := benchSetup(b)
	pop, err := analysis.ComputeFigure11(sessions, tr.Days)
	if err != nil {
		b.Skip("popularity unavailable at bench scale")
	}
	freqs := pop.Freq[analysis.ClassNAOnly]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range []search.ReplicationStrategy{search.Uniform, search.Proportional, search.SquareRoot} {
			copies := search.Allocate(s, freqs, 4000)
			if ess := search.ExpectedSearchSize(freqs, copies, 2000); ess <= 0 {
				b.Fatal("degenerate expected search size")
			}
		}
	}
}
