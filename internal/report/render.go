package report

import (
	"fmt"
	"io"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/stats"
)

// paperTable1 holds the published Table 1 values for side-by-side display.
var paperTable1 = map[string]float64{
	"QUERY":     34425154,
	"QUERYHIT":  1339540,
	"PING":      27159805,
	"PONG":      17807992,
	"conns":     4361965,
	"QUERY h=1": 1735538,
}

// RenderTable1 prints the overall trace characteristics next to the
// paper's absolute values and the composition ratios (the reproduction's
// calibration target — see internal/capture's calibration note).
func RenderTable1(w io.Writer, c *core.Characterization) error {
	t := c.Table1
	ratio := func(v uint64) string {
		if t.QueriesHop1 == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", float64(v)/float64(t.QueriesHop1))
	}
	paperRatio := func(name string) string {
		return fmt.Sprintf("%.1f", paperTable1[name]/paperTable1["QUERY h=1"])
	}
	rows := [][]string{
		{"Trace period (days)", fmt.Sprint(t.TracePeriodDays), "40", "", ""},
		{"QUERY messages", fmt.Sprint(t.Queries), "34,425,154", ratio(t.Queries), paperRatio("QUERY")},
		{"QUERYHIT messages", fmt.Sprint(t.QueryHits), "1,339,540", ratio(t.QueryHits), paperRatio("QUERYHIT")},
		{"PING messages", fmt.Sprint(t.Pings), "27,159,805", ratio(t.Pings), paperRatio("PING")},
		{"PONG messages", fmt.Sprint(t.Pongs), "17,807,992", ratio(t.Pongs), paperRatio("PONG")},
		{"Direct connections", fmt.Sprint(t.DirectConnections), "4,361,965", ratio(t.DirectConnections), paperRatio("conns")},
		{"QUERY with hops=1", fmt.Sprint(t.QueriesHop1), "1,735,538", "1.0", "1.0"},
		{"Ultrapeer fraction", fmt.Sprintf("%.2f", t.UltrapeerFraction), "≈0.40", "", ""},
	}
	return Table(w, "Table 1 — Overall Trace Characteristics",
		[]string{"Measure", "measured", "paper", "×hop-1", "paper ×hop-1"}, rows)
}

// RenderTable2 prints the filter accounting in the paper's Table 2 layout.
func RenderTable2(w io.Writer, c *core.Characterization) error {
	t2 := c.Table2
	pct := func(n, of uint64) string {
		if of == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(of))
	}
	rows := [][]string{
		{"input: hop-1 queries / sessions", fmt.Sprint(t2.TotalHop1Queries), fmt.Sprint(t2.TotalSessions), ""},
		{"rule 1: SHA1 / empty-keyword queries", fmt.Sprint(t2.Rule1SHA1), "", pct(t2.Rule1SHA1, t2.TotalHop1Queries)},
		{"rule 2: repeated query string in session", fmt.Sprint(t2.Rule2Duplicates), "", pct(t2.Rule2Duplicates, t2.TotalHop1Queries)},
		{"rule 3: sessions under 64 s", fmt.Sprint(t2.Rule3Queries), fmt.Sprint(t2.Rule3Sessions), pct(t2.Rule3Sessions, t2.TotalSessions)},
		{"final queries / sessions", fmt.Sprint(t2.FinalQueries), fmt.Sprint(t2.FinalSessions), ""},
		{"rule 4: interarrival < 1 s (flagged)", fmt.Sprint(t2.Rule4SubSecond), "", pct(t2.Rule4SubSecond, t2.FinalQueries)},
		{"rule 5: identical interarrivals (flagged)", fmt.Sprint(t2.Rule5FixedInterval), "", pct(t2.Rule5FixedInterval, t2.FinalQueries)},
		{"queries in IAT measure", fmt.Sprint(t2.IATQueries), "", ""},
	}
	return Table(w, "Table 2 — Filtered Queries (paper: 1,735,538 queries; rule 2 removes ~48%; ~70% of sessions fall to rule 3)",
		[]string{"Rule", "# queries", "# sessions", "share"}, rows)
}

// RenderTable3 prints the query-class set sizes.
func RenderTable3(w io.Writer, c *core.Characterization) error {
	var rows [][]string
	for _, k := range []int{4, 2, 1} {
		cc, ok := c.Table3.Windows[k]
		if !ok {
			continue
		}
		rows = append(rows, []string{fmt.Sprintf("%d-day", k),
			fmt.Sprintf("%.0f", cc.NA), fmt.Sprintf("%.0f", cc.EU), fmt.Sprintf("%.0f", cc.AS),
			fmt.Sprintf("%.0f", cc.NAEU), fmt.Sprintf("%.0f", cc.NAAS), fmt.Sprintf("%.0f", cc.EUAS),
			fmt.Sprintf("%.0f", cc.All),
		})
	}
	rows = append(rows,
		[]string{"paper 4-day", "6106", "5382", "776", "323", "41", "28", "17"},
		[]string{"paper 2-day", "3588", "3729", "299", "114", "15", "10", "4"},
		[]string{"paper 1-day", "1990", "1934", "153", "56", "5", "5", "2"},
	)
	return Table(w, "Table 3 — Query Class Sizes (distinct queries; absolute values scale with trace volume)",
		[]string{"Window", "NA", "EU", "AS", "NA∩EU", "NA∩AS", "EU∩AS", "all"}, rows)
}

// PopularityClassLabel pairs a Figure 11 class with its display names:
// Name for charts, CSVName the ASCII-safe series name CSV consumers key on.
type PopularityClassLabel struct {
	Class   analysis.PopularityClass
	Name    string
	CSVName string
}

// PopularityClassLabels returns the Figure 11 classes in canonical render
// order. Exported so CSV exporters emit series in the same stable order.
func PopularityClassLabels() []PopularityClassLabel {
	return []PopularityClassLabel{
		{analysis.ClassNAOnly, "NA-only", "NA-only"},
		{analysis.ClassEUOnly, "EU-only", "EU-only"},
		{analysis.ClassNAEU, "NA∩EU", "NA-EU"},
	}
}

// RenderFigure1 charts the hourly geographic mix of one-hop vs all peers.
func RenderFigure1(w io.Writer, c *core.Characterization) error {
	for _, r := range geo.Continental {
		ch := NewChart(fmt.Sprintf("Figure 1 (%s) — fraction of peers by hour (paper: one-hop ≈ all peers)", r))
		hours := make([]float64, 24)
		for h := range hours {
			hours[h] = float64(h)
		}
		ch.Add(Series{Name: "1-hop", X: hours, Y: c.Figure1.OneHop[r]})
		ch.Add(Series{Name: "all peers", X: hours, Y: c.Figure1.AllPeers[r]})
		ch.XLabel = "hour of day at measurement peer"
		if err := ch.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// RenderFigure2 charts the shared-files distribution.
func RenderFigure2(w io.Writer, c *core.Characterization) error {
	ch := NewChart("Figure 2 — shared files per peer (log y; paper: one-hop ≈ all peers)")
	xs := make([]float64, c.Figure2.MaxFiles+1)
	for i := range xs {
		xs[i] = float64(i)
	}
	ch.LogY = true
	ch.MinY = 1e-4
	ch.Add(Series{Name: "1-hop", X: xs, Y: c.Figure2.OneHop})
	ch.Add(Series{Name: "all peers", X: xs, Y: c.Figure2.All})
	ch.XLabel = "number of shared files"
	return ch.Render(w)
}

// RenderFigure3 charts query load over the day per region.
func RenderFigure3(w io.Writer, c *core.Characterization) error {
	for _, r := range geo.Continental {
		series := c.Figure3.PerRegion[r]
		ch := NewChart(fmt.Sprintf("Figure 3 (%s) — queries per 30-min bin (min/avg/max over days)", r))
		bins := make([]float64, len(series.Avg))
		for i := range bins {
			bins[i] = float64(i) / 2
		}
		ch.Add(Series{Name: "max", X: bins, Y: series.Max})
		ch.Add(Series{Name: "avg", X: bins, Y: series.Avg})
		ch.Add(Series{Name: "min", X: bins, Y: series.Min})
		ch.XLabel = "hour of day"
		if err := ch.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// RenderFigure4 charts the passive fraction per hour per region.
func RenderFigure4(w io.Writer, c *core.Characterization) error {
	ch := NewChart("Figure 4 — fraction of passive peers by start hour (paper: ≈0.75–0.90, flat)")
	hours := make([]float64, 24)
	for h := range hours {
		hours[h] = float64(h)
	}
	for _, r := range geo.Continental {
		ch.Add(Series{Name: r.String(), X: hours, Y: c.Figure4.PerRegion[r].Avg})
	}
	ch.XLabel = "hour of day"
	return ch.Render(w)
}

// namedSample pairs a chart label with its sample. Charts take ordered
// slices, never maps: series order decides marker assignment, so it must
// be deterministic for the report to be byte-stable across runs.
type namedSample struct {
	name   string
	sample *stats.Sample
}

// regionSamples orders per-region samples in the conventional NA, EU, AS
// sequence.
func regionSamples(s *[geo.NumContinental]stats.Sample) []namedSample {
	out := make([]namedSample, 0, geo.NumContinental)
	for _, r := range geo.Continental {
		out = append(out, namedSample{r.String(), &s[r]})
	}
	return out
}

// ccdfChart renders CCDF curves from samples in the given order.
func ccdfChart(w io.Writer, title, xlabel string, grid []float64, series []namedSample) error {
	ch := NewChart(title)
	ch.LogX, ch.LogY = true, true
	ch.MinY = 0.01
	ch.XLabel = xlabel
	for _, s := range series {
		if s.sample.Len() == 0 {
			continue
		}
		pts := s.sample.CCDFSeries(grid)
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.X, p.Y
		}
		ch.Add(Series{Name: fmt.Sprintf("%s (n=%d)", s.name, s.sample.Len()), X: xs, Y: ys})
	}
	return ch.Render(w)
}

// RenderFigure5 charts passive session duration CCDFs by region.
func RenderFigure5(w io.Writer, c *core.Characterization) error {
	grid := stats.LogSpace(60, 600000, 64) // seconds; paper plots minutes 1..10⁴
	return ccdfChart(w,
		"Figure 5(a) — passive session duration CCDF (paper: <2 min = 85% AS, 75% NA, 55% EU)",
		"seconds", grid, regionSamples(&c.Figure5.ByRegion))
}

// RenderFigure6 charts queries-per-session CCDFs.
func RenderFigure6(w io.Writer, c *core.Characterization) error {
	grid := stats.LogSpace(1, 1000, 48)
	if err := ccdfChart(w,
		"Figure 6(a) — queries per active session CCDF (paper: <5 queries = 92% AS, 80% NA, 70% EU)",
		"number of queries", grid, regionSamples(&c.Figure6.ByRegion)); err != nil {
		return err
	}
	return ccdfChart(w,
		"Figure 6(c) — queries per session, rules 4–5 not applied (paper: 4% of Asian sessions >100)",
		"number of queries", grid, regionSamples(&c.Figure6.Unfiltered))
}

// RenderFigure7 charts time-to-first-query CCDFs.
func RenderFigure7(w io.Writer, c *core.Characterization) error {
	grid := stats.LogSpace(1, 100000, 64)
	if err := ccdfChart(w,
		"Figure 7(a) — time until first query CCDF (paper: ≈40% within 30 s everywhere)",
		"seconds", grid, regionSamples(&c.Figure7.ByRegion)); err != nil {
		return err
	}
	buckets := []namedSample{
		{"<3 queries", &c.Figure7.ByBucketNA[0]},
		{"=3 queries", &c.Figure7.ByBucketNA[1]},
		{">3 queries", &c.Figure7.ByBucketNA[2]},
	}
	return ccdfChart(w,
		"Figure 7(b) — NA, by session query count (paper: more queries ⇒ later first query)",
		"seconds", grid, buckets)
}

// RenderFigure8 charts interarrival CCDFs.
func RenderFigure8(w io.Writer, c *core.Characterization) error {
	grid := stats.LogSpace(1, 10000, 56)
	if err := ccdfChart(w,
		"Figure 8(a) — query interarrival CCDF (paper: <100 s = 90% EU, 80% AS, 70% NA)",
		"seconds", grid, regionSamples(&c.Figure8.ByRegion)); err != nil {
		return err
	}
	buckets := []namedSample{
		{"=2 queries", &c.Figure8.ByBucketEU[0]},
		{"3-7 queries", &c.Figure8.ByBucketEU[1]},
		{">7 queries", &c.Figure8.ByBucketEU[2]},
	}
	return ccdfChart(w,
		"Figure 8(b) — EU, by session query count (paper: more queries ⇒ shorter interarrivals)",
		"seconds", grid, buckets)
}

// RenderFigure9 charts time-after-last-query CCDFs.
func RenderFigure9(w io.Writer, c *core.Characterization) error {
	grid := stats.LogSpace(1, 100000, 64)
	return ccdfChart(w,
		"Figure 9(a) — time after last query CCDF (paper: >1000 s for 20% NA/EU, 10% AS)",
		"seconds", grid, regionSamples(&c.Figure9.ByRegion))
}

// RenderFigure10 prints the hot-set drift distribution.
func RenderFigure10(w io.Writer, c *core.Characterization) error {
	var rows [][]string
	for band := 0; band < 3; band++ {
		for _, n := range []int{10, 20, 100} {
			row := []string{analysis.BandName(band), fmt.Sprintf("top %d", n)}
			for x := 0; x <= 4; x++ {
				row = append(row, fmt.Sprintf("%.2f", c.Figure10.FractionWithMoreThan(band, n, x)))
			}
			rows = append(rows, row)
		}
	}
	return Table(w,
		"Figure 10 — hot-set drift: fraction of days with > x of day n's band in day n+1's top N\n(paper: for ≈80% of days at most 4 of the top-10 reach the next day's top-100)",
		[]string{"band (day n)", "target (day n+1)", ">0", ">1", ">2", ">3", ">4"}, rows)
}

// RenderFigure11 prints the popularity fits and charts the distributions.
func RenderFigure11(w io.Writer, c *core.Characterization) error {
	rows := [][]string{
		{"NA-only", fmtFit(c.Figure11.Fit[analysis.ClassNAOnly]), "α = 0.386"},
		{"EU-only", fmtFit(c.Figure11.Fit[analysis.ClassEUOnly]), "α = 0.223"},
		{"NA∩EU body (1–45)", fmt.Sprintf("α = %.3f", c.Figure11.BodyFit.Alpha), "α = 0.453"},
		{"NA∩EU tail (46–100)", fmt.Sprintf("α = %.3f", c.Figure11.TailFit.Alpha), "α = 4.67"},
	}
	if err := Table(w, "Figure 11 — per-day query popularity Zipf fits",
		[]string{"class", "measured", "paper"}, rows); err != nil {
		return err
	}
	ch := NewChart("Figure 11 — per-day popularity pmf by rank (log-log)")
	ch.LogX, ch.LogY = true, true
	for _, cl := range PopularityClassLabels() {
		class, name := cl.Class, cl.Name
		freq := c.Figure11.Freq[class]
		xs := make([]float64, 0, len(freq))
		ys := make([]float64, 0, len(freq))
		for i, f := range freq {
			if f > 0 {
				xs = append(xs, float64(i+1))
				ys = append(ys, f)
			}
		}
		ch.Add(Series{Name: name, X: xs, Y: ys})
	}
	ch.XLabel = "query rank"
	return ch.Render(w)
}

func fmtFit(f dist.ZipfFit) string {
	return fmt.Sprintf("α = %.3f (R²=%.2f)", f.Alpha, f.R2)
}

// RenderFits prints the recovered appendix tables next to the generative
// (paper) parameters.
func RenderFits(w io.Writer, c *core.Characterization) error {
	var rows [][]string
	m, diag := &c.Fits.Model, &c.Fits.Diag
	na := geo.NorthAmerica
	// A.1
	for p := model.Peak; p <= model.OffPeak; p++ {
		paper := "body 75% LN(2.502, 2.108), tail LN(2.749, 6.397)"
		if p == model.OffPeak {
			paper = "body 55% LN(2.383, 2.201), tail LN(2.848, 6.817)"
		}
		rows = append(rows, []string{
			fmt.Sprintf("A.1 NA %s", p), fmtBodyTail(m.PassiveDuration[na][p], diag.PassiveDuration[na][p]), paper,
		})
	}
	// A.2
	paperA2 := [geo.NumContinental]string{
		geo.NorthAmerica: "LN(σ=1.360, µ=-0.067)",
		geo.Europe:       "LN(σ=1.306, µ=0.520)",
		geo.Asia:         "LN(σ=1.618, µ=-1.029)",
	}
	for _, r := range geo.Continental {
		d := diag.NumQueries[r]
		measured := "insufficient data"
		if d.OK {
			measured = fmt.Sprintf("%v n=%d%s", m.NumQueries[r], d.N, ksVerdict(d))
		}
		rows = append(rows, []string{fmt.Sprintf("A.2 %s", r), measured, paperA2[r]})
	}
	// A.3 (NA peak, per bucket)
	bucketNames := []string{"<3", "=3", ">3"}
	paperA3 := []string{
		"W(α=1.477, λ=0.00525) + LN(2.905, 5.091)",
		"W(α=1.261, λ=0.01081) + LN(2.045, 6.303)",
		"W(α=0.982, λ=0.02662) + LN(2.359, 6.301)",
	}
	for b := 0; b < 3; b++ {
		rows = append(rows, []string{
			fmt.Sprintf("A.3 NA peak %s queries", bucketNames[b]),
			fmtBodyTail(m.FirstQuery[na][model.Peak][b], diag.FirstQuery[na][model.Peak][b]), paperA3[b],
		})
	}
	// A.4
	for p := model.Peak; p <= model.OffPeak; p++ {
		paper := "LN(1.625, 3.353) + Pareto(α=0.904, β=103)"
		if p == model.OffPeak {
			paper = "LN(1.410, 2.933) + Pareto(α=1.143, β=103)"
		}
		rows = append(rows, []string{
			fmt.Sprintf("A.4 NA %s", p), fmtBodyTail(m.Interarrival[na][p][0], diag.Interarrival[na][p]), paper,
		})
	}
	// A.5 (NA peak)
	paperA5 := []string{"LN(2.361, 4.879)", "LN(2.259, 5.686)", "LN(2.145, 6.107)"}
	bucketA5 := []string{"1", "2-7", ">7"}
	for b := 0; b < 3; b++ {
		d := diag.AfterLast[na][model.Peak][b]
		measured := "insufficient data"
		if d.OK {
			measured = fmt.Sprintf("%v n=%d KS=%.3f%s", m.AfterLast[na][model.Peak][b], d.N, d.KS, ksVerdict(d))
		}
		rows = append(rows, []string{
			fmt.Sprintf("A.5 NA peak %s queries", bucketA5[b]), measured, paperA5[b],
		})
	}
	return Table(w, "Appendix fits — measured vs paper (LN = lognormal(σ, µ); W = Weibull(shape, rate))",
		[]string{"table", "measured", "paper"}, rows)
}

func fmtBodyTail(bt dist.BodyTail, d core.Diag) string {
	if !d.OK {
		return fmt.Sprintf("insufficient data (n=%d)", d.N)
	}
	return fmt.Sprintf("body %.0f%% %v + %v (n=%d, KS=%.3f%s)",
		100*bt.BodyWeight, bt.Body, bt.Tail, d.N, d.KS, ksVerdict(d))
}

// ksVerdict renders the KS acceptance verdict of a fit: the p-value
// tagged with its source — "asym" for the Lilliefors-biased asymptotic
// p-value (rejections trustworthy, acceptances optimistic) or "boot" for
// the parametric bootstrap (both trustworthy; core.Options.KSBootstrap) —
// with an explicit marker when the fit is rejected at core.FitAlpha.
func ksVerdict(d core.Diag) string {
	tag := "asym"
	if d.KSPSource == core.KSBootstrapped {
		tag = "boot"
	}
	if d.Rejected {
		return fmt.Sprintf(", p=%.3f (%s) REJECTED at α=%.2g", d.KSP, tag, core.FitAlpha)
	}
	return fmt.Sprintf(", p=%.3f (%s)", d.KSP, tag)
}

// renderHitRates prints the hit-rate extension (the paper's future work):
// hit availability per region and its correlation with query popularity.
func renderHitRates(w io.Writer, c *core.Characterization) error {
	hr := &c.HitRates
	var rows [][]string
	for _, r := range geo.Continental {
		sample := &hr.ByRegion[r]
		if sample.Len() == 0 {
			continue
		}
		rows = append(rows, []string{
			r.String(),
			fmt.Sprint(sample.Len()),
			fmt.Sprintf("%.1f%%", 100*hr.AnsweredFraction[r]),
			fmt.Sprintf("%.2f", sample.Mean()),
			fmt.Sprintf("%.0f", sample.Max()),
		})
	}
	if err := Table(w, "Extension — query hit rates (the paper's stated future work)",
		[]string{"region", "queries", "answered", "mean hits", "max hits"}, rows); err != nil {
		return err
	}
	var brows [][]string
	for _, b := range hr.Buckets {
		label := fmt.Sprintf("%d", b.MinCount)
		if b.MaxCount > b.MinCount && b.MaxCount < 1<<29 {
			label = fmt.Sprintf("%d-%d", b.MinCount, b.MaxCount)
		} else if b.MaxCount >= 1<<29 {
			label = fmt.Sprintf("%d+", b.MinCount)
		}
		brows = append(brows, []string{label, fmt.Sprint(b.N),
			fmt.Sprintf("%.1f%%", 100*b.AnsweredFraction),
			fmt.Sprintf("%.2f", b.MeanHits)})
	}
	brows = append(brows, []string{"correlation", "", "",
		fmt.Sprintf("r = %.2f", hr.PopularityCorrelation)})
	return Table(w, "Hit rate vs same-day query popularity",
		[]string{"repetitions", "queries", "answered", "mean hits"}, brows)
}

// RenderSummary prints headline reproduction results.
func RenderSummary(w io.Writer, c *core.Characterization) error {
	qs := c.SessionDurationQuantiles(0.50, 0.90, 0.99)
	rows := [][]string{
		{"passive session share", fmt.Sprintf("%.1f%%", 100*c.PassiveShare()), "≈80%"},
		{"median retained session", qs[0].Round(time.Second).String(), "< 3 min (high fraction)"},
		{"p90 retained session", qs[1].Round(time.Second).String(), "heavy tail"},
		{"p99 retained session", qs[2].Round(time.Second).String(), "heavy tail"},
		{"sessions under 64 s", fmt.Sprintf("%.1f%%", 100*float64(c.Table2.Rule3Sessions)/float64(c.Table2.TotalSessions)), "≈70%"},
	}
	return Table(w, "Headline measures", []string{"measure", "measured", "paper"}, rows)
}

// RenderAll writes the complete paper reproduction report.
func RenderAll(w io.Writer, c *core.Characterization) error {
	renderers := []func(io.Writer, *core.Characterization) error{
		RenderSummary, RenderTable1, RenderTable2, RenderFigure1, RenderFigure2,
		RenderFigure3, RenderFigure4, RenderFigure5, RenderFigure6,
		RenderFigure7, RenderFigure8, RenderFigure9, RenderFigure10,
		RenderFigure11, RenderTable3, RenderFits, renderHitRates,
		renderAnchors,
	}
	for _, render := range renderers {
		if err := render(w, c); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

// renderAnchors prints the quantitative CCDF anchor points the paper
// quotes in its prose, measured — the most precise paper-vs-measured
// comparison the report offers.
func renderAnchors(w io.Writer, c *core.Characterization) error {
	pct := func(v float64) string { return fmt.Sprintf("%.0f%%", 100*v) }
	na, eu, as := geo.NorthAmerica, geo.Europe, geo.Asia
	passiveAvg := func(r geo.Region) float64 {
		series := c.Figure4.PerRegion[r].Avg
		var sum float64
		n := 0
		for _, v := range series {
			if v == v { // skip NaN
				sum += v
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	rows := [][]string{
		{"passive peers (avg)", "Fig 4",
			pct(passiveAvg(na)), pct(passiveAvg(eu)), pct(passiveAvg(as)),
			"80-85% / 75-80% / 80-90%"},
		{"passive session < 2 min", "Fig 5a",
			pct(c.Figure5.ByRegion[na].CDF(120)), pct(c.Figure5.ByRegion[eu].CDF(120)), pct(c.Figure5.ByRegion[as].CDF(120)),
			"75% / 55% / 85%"},
		{"passive session 17-50 h", "Fig 5a",
			pct(c.Figure5.ByRegion[na].CDF(180000) - c.Figure5.ByRegion[na].CDF(61200)),
			pct(c.Figure5.ByRegion[eu].CDF(180000) - c.Figure5.ByRegion[eu].CDF(61200)),
			pct(c.Figure5.ByRegion[as].CDF(180000) - c.Figure5.ByRegion[as].CDF(61200)),
			"≈1% each"},
		{"active session < 5 queries", "Fig 6a",
			pct(c.Figure6.ByRegion[na].CDF(4.5)), pct(c.Figure6.ByRegion[eu].CDF(4.5)), pct(c.Figure6.ByRegion[as].CDF(4.5)),
			"80% / 70% / 92%"},
		{"first query < 30 s", "Fig 7a",
			pct(c.Figure7.ByRegion[na].CDF(30)), pct(c.Figure7.ByRegion[eu].CDF(30)), pct(c.Figure7.ByRegion[as].CDF(30)),
			"≈40% each"},
		{"interarrival < 100 s", "Fig 8a",
			pct(c.Figure8.ByRegion[na].CDF(100)), pct(c.Figure8.ByRegion[eu].CDF(100)), pct(c.Figure8.ByRegion[as].CDF(100)),
			"70% / 90% / 80%"},
		{"after last query > 1000 s", "Fig 9a",
			pct(c.Figure9.ByRegion[na].CCDF(1000)), pct(c.Figure9.ByRegion[eu].CCDF(1000)), pct(c.Figure9.ByRegion[as].CCDF(1000)),
			"20% / 20% / 10%"},
	}
	return Table(w, "Prose anchors — measured vs paper (NA / EU / Asia)",
		[]string{"measure", "figure", "NA", "EU", "AS", "paper (NA/EU/AS)"}, rows)
}
