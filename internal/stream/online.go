package stream

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// OnlineConfig parameterizes the online characterization layer.
type OnlineConfig struct {
	// TopKCapacity is the Space-Saving counter budget for the keyword
	// ranking (0 = DefaultTopKCapacity). The ranking is exact while the
	// distinct keyword-set count fits the capacity.
	TopKCapacity int
	// QuantileEpsilon is the rank-error bound of the duration and
	// interarrival summaries (0 = DefaultQuantileEpsilon).
	QuantileEpsilon float64
	// RateBucket and RateBuckets shape the sliding rate windows
	// (defaults: 60 × 1 minute = a one-hour window).
	RateBucket  trace.Time
	RateBuckets int
}

// DefaultTopKCapacity holds the full keyword working set of a paper-scale
// day with room to spare, so the CI-scale rankings are exact and the
// full-scale ranking is exact for every key above N/capacity.
const DefaultTopKCapacity = 8192

// Online characterizes a query stream as it arrives, with state that
// does not grow with the stream: a Space-Saving top-K over keyword sets,
// Greenwald–Khanna quantile summaries for session duration and query
// interarrival, sliding-window arrival and query rates, and a handful of
// exact counters (the under-64 s session share among them — the paper's
// headline quick-session figure is an exact streaming statistic).
//
// It implements Sink, so it can ride a Merger and observe the merged
// global order (deterministic snapshots, pinned against batch-exact
// values by test), and it also accepts direct wire-level observations
// (ObserveQuery), which is how cmd/gnutellad serves live metrics for
// socket-ingested traffic. Safe for concurrent use.
type Online struct {
	mu sync.Mutex

	sessions uint64
	queries  uint64
	under64  uint64

	dur   *Quantile // session duration, seconds
	inter *Quantile // within-session query interarrival, seconds

	keywords *TopK

	arrivals *RateWindow
	qrate    *RateWindow

	// lastWall is the wall-clock instant of the most recent observation,
	// exposed as a snapshot-age gauge (how stale the live metrics are).
	lastWall time.Time
}

// NewOnline builds the online layer.
func NewOnline(cfg OnlineConfig) *Online {
	if cfg.TopKCapacity <= 0 {
		cfg.TopKCapacity = DefaultTopKCapacity
	}
	if cfg.RateBucket <= 0 {
		cfg.RateBucket = time.Minute
	}
	if cfg.RateBuckets <= 0 {
		cfg.RateBuckets = 60
	}
	return &Online{
		dur:      NewQuantile(cfg.QuantileEpsilon),
		inter:    NewQuantile(cfg.QuantileEpsilon),
		keywords: NewTopK(cfg.TopKCapacity),
		arrivals: NewRateWindow(cfg.RateBucket, cfg.RateBuckets),
		qrate:    NewRateWindow(cfg.RateBucket, cfg.RateBuckets),
	}
}

// MergedSession implements Sink: observe one retired session of the
// merged stream.
func (o *Online) MergedSession(c *trace.Conn, qs []trace.Query) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.lastWall = time.Now()
	o.sessions++
	o.arrivals.Add(c.Start)
	d := c.End - c.Start
	if d < 64*time.Second {
		o.under64++
	}
	o.dur.Add(d.Seconds())
	for i := range qs {
		o.observeQueryLocked(qs[i].At, qs[i].Text, qs[i].SHA1)
		if i > 0 {
			o.inter.Add((qs[i].At - qs[i-1].At).Seconds())
		}
	}
}

// ObserveQuery observes one hop-1 query outside any session framing —
// the live-daemon ingestion path.
func (o *Online) ObserveQuery(at trace.Time, text string, sha1 bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.observeQueryLocked(at, text, sha1)
}

func (o *Online) observeQueryLocked(at trace.Time, text string, sha1 bool) {
	o.lastWall = time.Now()
	o.queries++
	o.qrate.Add(at)
	if sha1 {
		return // source hunts carry no keywords
	}
	if key := wire.KeywordKey(text); key != "" {
		o.keywords.Add(key)
	}
}

// Register exposes the online layer's live state on an obs registry as
// scrape-time gauges (GaugeFuncs — exposition-only, never journaled):
// exact counters, headline sketch figures, window rates, and the
// snapshot age (seconds since the last observation, the staleness of
// everything else). Each func takes o's mutex, so scrapes see a
// consistent value. A nil registry no-ops.
func (o *Online) Register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	locked := func(f func() float64) func() float64 {
		return func() float64 {
			o.mu.Lock()
			defer o.mu.Unlock()
			return f()
		}
	}
	reg.GaugeFunc("online_sessions", "merged sessions observed by the online layer",
		locked(func() float64 { return float64(o.sessions) }))
	reg.GaugeFunc("online_queries", "hop-1 queries observed by the online layer",
		locked(func() float64 { return float64(o.queries) }))
	reg.GaugeFunc("online_under64_share", "exact share of sessions shorter than 64s",
		locked(func() float64 {
			if o.sessions == 0 {
				return 0
			}
			return float64(o.under64) / float64(o.sessions)
		}))
	reg.GaugeFunc("online_duration_p50_seconds", "GK median session duration",
		locked(func() float64 {
			if o.dur.N() == 0 {
				return 0
			}
			return o.dur.Query(0.50)
		}))
	reg.GaugeFunc("online_distinct_keywords", "distinct keyword sets tracked by Space-Saving",
		locked(func() float64 { return float64(o.keywords.Distinct()) }))
	reg.GaugeFunc("online_arrivals_per_hour", "sliding-window arrival rate",
		locked(func() float64 { return o.arrivals.PerHour() }))
	reg.GaugeFunc("online_queries_per_hour", "sliding-window query rate",
		locked(func() float64 { return o.qrate.PerHour() }))
	reg.GaugeFunc("online_snapshot_age_seconds", "wall seconds since the last observation",
		locked(func() float64 {
			if o.lastWall.IsZero() {
				return 0
			}
			return time.Since(o.lastWall).Seconds()
		}))
}

// QuantileSnapshot reports one summary's headline quantiles in seconds.
type QuantileSnapshot struct {
	N       uint64  `json:"n"`
	P50     float64 `json:"p50_sec"`
	P90     float64 `json:"p90_sec"`
	P99     float64 `json:"p99_sec"`
	Max     float64 `json:"max_sec"`
	Epsilon float64 `json:"epsilon"`
	// Tuples is the summary's current size — the bounded state.
	Tuples int `json:"tuples,omitempty"`
}

// Snapshot is one consistent view of the online characterization,
// JSON-encodable for the live metrics endpoint.
type Snapshot struct {
	Sessions        uint64  `json:"sessions"`
	Queries         uint64  `json:"queries"`
	Under64Fraction float64 `json:"under_64s_fraction"`

	Duration     QuantileSnapshot `json:"session_duration"`
	Interarrival QuantileSnapshot `json:"query_interarrival"`

	TopKeywords []TopKEntry `json:"top_keywords"`
	// TopKExact reports whether every keyword count is exact; when false,
	// TopKErrBound bounds the per-counter overestimation.
	TopKExact    bool   `json:"topk_exact"`
	TopKErrBound uint64 `json:"topk_err_bound"`
	DistinctKeys int    `json:"distinct_keys"`

	// Rates are sliding-window figures at the stream's leading edge.
	ArrivalsPerHour float64 `json:"arrivals_per_hour"`
	QueriesPerHour  float64 `json:"queries_per_hour"`
	PeakArrivalsWin uint64  `json:"peak_arrivals_per_window"`
	PeakQueriesWin  uint64  `json:"peak_queries_per_window"`
	WindowSec       float64 `json:"rate_window_sec"`
}

// Snapshot captures the current state; k bounds the reported keyword
// ranking length.
func (o *Online) Snapshot(k int) Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	if k <= 0 {
		k = 10
	}
	snap := func(q *Quantile) QuantileSnapshot {
		// An empty summary answers NaN, which JSON cannot carry: report
		// zeros with N = 0 saying why.
		if q.N() == 0 {
			return QuantileSnapshot{Epsilon: q.Epsilon()}
		}
		return QuantileSnapshot{
			N:       q.N(),
			P50:     q.Query(0.50),
			P90:     q.Query(0.90),
			P99:     q.Query(0.99),
			Max:     q.Max(),
			Epsilon: q.Epsilon(),
			Tuples:  q.Size(),
		}
	}
	s := Snapshot{
		Sessions:        o.sessions,
		Queries:         o.queries,
		Duration:        snap(o.dur),
		Interarrival:    snap(o.inter),
		TopKeywords:     o.keywords.Top(k),
		TopKExact:       o.keywords.Exact(),
		TopKErrBound:    o.keywords.ErrBound(),
		DistinctKeys:    o.keywords.Distinct(),
		ArrivalsPerHour: o.arrivals.PerHour(),
		QueriesPerHour:  o.qrate.PerHour(),
		PeakArrivalsWin: o.arrivals.PeakInWindow(),
		PeakQueriesWin:  o.qrate.PeakInWindow(),
		WindowSec:       o.arrivals.Window().Seconds(),
	}
	if o.sessions > 0 {
		s.Under64Fraction = float64(o.under64) / float64(o.sessions)
	}
	return s
}

// WriteText renders the snapshot as the report-style text block `analyze
// -online` prints.
func (s *Snapshot) WriteText(w io.Writer) error {
	exact := "exact"
	if !s.TopKExact {
		exact = fmt.Sprintf("±%d (Space-Saving bound)", s.TopKErrBound)
	}
	if _, err := fmt.Fprintf(w, `Online characterization (streaming sketches)
  sessions: %d   hop-1 queries: %d
  under-64s session share: %.1f%% (exact)
  session duration  p50/p90/p99: %.1f / %.1f / %.1f s  (GK eps=%g, %d tuples)
  query interarrival p50/p90/p99: %.1f / %.1f / %.1f s  (GK eps=%g, %d tuples)
  rates (last %.0f min window): %.0f arrivals/h, %.0f queries/h
  distinct keyword sets: %d   counts %s
  top keyword sets:
`,
		s.Sessions, s.Queries,
		100*s.Under64Fraction,
		s.Duration.P50, s.Duration.P90, s.Duration.P99, s.Duration.Epsilon, s.Duration.Tuples,
		s.Interarrival.P50, s.Interarrival.P90, s.Interarrival.P99, s.Interarrival.Epsilon, s.Interarrival.Tuples,
		s.WindowSec/60, s.ArrivalsPerHour, s.QueriesPerHour,
		s.DistinctKeys, exact,
	); err != nil {
		return err
	}
	for i, e := range s.TopKeywords {
		if _, err := fmt.Fprintf(w, "    %2d. %-30q %8d\n", i+1, e.Key, e.Count); err != nil {
			return err
		}
	}
	return nil
}

// Exact computes the same metrics as Online exactly, from a materialized
// trace — the oracle the sketch tolerances are pinned against. Rates are
// omitted (they are defined on the stream's leading edge, which a batch
// trace does not have).
func Exact(tr *trace.Trace, k int) Snapshot {
	if k <= 0 {
		k = 10
	}
	s := Snapshot{
		Sessions:  uint64(len(tr.Conns)),
		Queries:   uint64(len(tr.Queries)),
		TopKExact: true,
	}
	durs := make([]float64, 0, len(tr.Conns))
	for i := range tr.Conns {
		c := &tr.Conns[i]
		d := c.End - c.Start
		if d < 64*time.Second {
			s.Under64Fraction++
		}
		durs = append(durs, d.Seconds())
	}
	if len(tr.Conns) > 0 {
		s.Under64Fraction /= float64(len(tr.Conns))
	}
	var inters []float64
	counts := make(map[string]uint64)
	for _, qs := range tr.QueriesPerConn() {
		for i, q := range qs {
			if i > 0 {
				inters = append(inters, (q.At - qs[i-1].At).Seconds())
			}
			if q.SHA1 {
				continue
			}
			if key := wire.KeywordKey(q.Text); key != "" {
				counts[key]++
			}
		}
	}
	s.Duration = exactQuantiles(durs)
	s.Interarrival = exactQuantiles(inters)
	s.DistinctKeys = len(counts)
	for key, n := range counts {
		s.TopKeywords = append(s.TopKeywords, TopKEntry{Key: key, Count: n})
	}
	sort.Slice(s.TopKeywords, func(i, j int) bool {
		if s.TopKeywords[i].Count != s.TopKeywords[j].Count {
			return s.TopKeywords[i].Count > s.TopKeywords[j].Count
		}
		return s.TopKeywords[i].Key < s.TopKeywords[j].Key
	})
	if k < len(s.TopKeywords) {
		s.TopKeywords = s.TopKeywords[:k]
	}
	return s
}

func exactQuantiles(xs []float64) QuantileSnapshot {
	qs := QuantileSnapshot{N: uint64(len(xs))}
	if len(xs) == 0 {
		return qs
	}
	sort.Float64s(xs)
	at := func(p float64) float64 {
		i := int(p * float64(len(xs)-1))
		return xs[i]
	}
	qs.P50, qs.P90, qs.P99 = at(0.50), at(0.90), at(0.99)
	qs.Max = xs[len(xs)-1]
	return qs
}
