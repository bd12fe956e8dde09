// Package analysis computes every table and figure of the paper's
// evaluation from a measurement trace: the overall trace statistics
// (Table 1), the geographic and shared-file representativeness checks
// (Figures 1–2), the diurnal load and passive-peer series (Figures 3–4),
// the conditional session distributions (Figures 5–9), the hot-set drift
// and query-popularity analyses (Figures 10–11, Table 3).
//
// All analyzers consume the raw trace and/or the filtered session view of
// internal/filter; none of them sees generator ground truth, so the
// pipeline measures exactly what the paper's post-processing could
// measure. The conditioning cells are the paper's definitions, taken once
// from internal/model: the peak/off-peak Period of Figure 3's hours, the
// key periods, and the query-count buckets. Never the generator's
// parameter values (model.Default): TestMeasurementSeesNoGroundTruth in
// internal/core holds that boundary. Every per-cell result is a fixed-size array indexed
// by geo.Region (the continental regions are Regions 0–2), key-period
// index, bucket or PopularityClass.
//
// Popularity-analysis note: rule-4 flagged queries (pre-connection user
// queries re-issued at connect) are included in the popularity and class
// measures, as Section 3.3 of the paper prescribes; rule-5 flagged
// queries (fixed-interval machine automation) are excluded — including
// them would inflate the per-day distinct-query counts far beyond the
// paper's Table 3, which is how we reconcile Table 3 with Figure 6(c)'s
// hundred-query automation sessions.
package analysis

import (
	"time"

	"repro/internal/filter"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/par"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// Session is a filtered session enriched with the derived attributes every
// analyzer needs.
type Session struct {
	*filter.Session
	// Region is resolved from the connection's address.
	Region geo.Region
	// StartHour and StartDay locate the session start in measurement-node
	// time.
	StartHour int
	StartDay  int
	// Period is the session's region's peak/off-peak period at its start.
	Period model.Period
	// UserQueries caches NumUserQueries.
	UserQueries int
}

// Enrich resolves regions and periods for every retained session with a
// machine-sized worker pool. The returned slice preserves the filter's
// ordering.
func Enrich(res *filter.Result) []Session {
	return EnrichWorkers(res, 0)
}

// EnrichWorkers is Enrich on a bounded worker pool (0 = GOMAXPROCS, 1 =
// sequential). Each session's enrichment reads only immutable lookup
// tables and writes its own slot, so the result is identical for every
// worker count; at merged full-trace volume (millions of retained
// sessions) this keeps the enrichment step off the characterization
// pipeline's serial path.
func EnrichWorkers(res *filter.Result, workers int) []Session {
	workers = par.Workers(workers)
	reg := geo.Default()
	out := make([]Session, len(res.Sessions))
	var tasks []func()
	par.Chunks(len(res.Sessions), workers*4, func(_, lo, hi int) {
		tasks = append(tasks, func() {
			for i := lo; i < hi; i++ {
				fs := &res.Sessions[i]
				r := reg.Lookup(fs.Conn.Addr)
				hour := simtime.HourOfDay(fs.Conn.Start)
				out[i] = Session{
					Session:     fs,
					Region:      r,
					StartHour:   hour,
					StartDay:    simtime.DayIndex(fs.Conn.Start),
					Period:      model.PeriodOf(r, hour),
					UserQueries: fs.NumUserQueries(),
				}
			}
		})
	})
	par.Run(workers, tasks)
	return out
}

// Table1 is the overall trace characteristics (the paper's Table 1).
type Table1 struct {
	TracePeriodDays   int
	Queries           uint64
	QueryHits         uint64
	Pings             uint64
	Pongs             uint64
	DirectConnections uint64
	QueriesHop1       uint64
	UltrapeerFraction float64
}

// ComputeTable1 summarizes the raw trace.
func ComputeTable1(tr *trace.Trace) Table1 {
	up := 0
	for i := range tr.Conns {
		if tr.Conns[i].Ultrapeer {
			up++
		}
	}
	frac := 0.0
	if len(tr.Conns) > 0 {
		frac = float64(up) / float64(len(tr.Conns))
	}
	return Table1{
		TracePeriodDays:   tr.Days,
		Queries:           tr.Counts.Query,
		QueryHits:         tr.Counts.QueryHit,
		Pings:             tr.Counts.Ping,
		Pongs:             tr.Counts.Pong,
		DirectConnections: uint64(len(tr.Conns)),
		QueriesHop1:       tr.Counts.QueryHop1,
		UltrapeerFraction: frac,
	}
}

// secondsOf converts a duration to float seconds, the unit of the
// appendix models.
func secondsOf(d time.Duration) float64 { return d.Seconds() }
