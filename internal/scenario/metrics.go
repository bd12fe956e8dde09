package scenario

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// The headline metrics a spec's checks can gate. Each is computed from
// the drained trace plus the compiled scenario (which supplies the
// inject set and the churn timeline the churn_* metrics need).
//
//	conns              total direct connections recorded
//	hop1_queries       total hop-1 QUERY records
//	under64s_share     share of sessions shorter than 64 s (the paper's
//	                   quick-session headline)
//	under64s_drift     second-half under-64s share minus first-half share
//	                   (long-run stability of the quick-session figure)
//	polluter_share     share of hop-1 queries whose text is an injected
//	                   string (0 without content-injection classes)
//	churn_outage_drop  1 - (outage-window arrival rate / pre-churn rate)
//	                   for the first churn event (NaN-free: 0 without one)
//	churn_recovery     post-recovery arrival rate / pre-churn rate for the
//	                   first churn event (1 without one)
var metricNames = []string{
	"conns",
	"hop1_queries",
	"under64s_share",
	"under64s_drift",
	"polluter_share",
	"churn_outage_drop",
	"churn_recovery",
}

// MetricNames lists the headline metrics checks can reference, sorted.
func MetricNames() []string {
	out := append([]string(nil), metricNames...)
	sort.Strings(out)
	return out
}

func knownMetric(name string) bool {
	for _, n := range metricNames {
		if n == name {
			return true
		}
	}
	return false
}

// Metrics holds one run's measured headline values, keyed by metric name.
type Metrics map[string]float64

// computeMetrics measures every headline metric on a drained trace.
func computeMetrics(tr *trace.Trace, c *Compiled) Metrics {
	m := Metrics{
		"conns":        float64(len(tr.Conns)),
		"hop1_queries": float64(len(tr.Queries)),
	}

	// Under-64s share, overall and per half of the measurement period.
	horizon := time.Duration(tr.Days) * 24 * time.Hour
	var under, total, underA, totalA, underB, totalB float64
	for i := range tr.Conns {
		cn := &tr.Conns[i]
		total++
		quick := cn.Duration() < 64*time.Second
		if quick {
			under++
		}
		if horizon > 0 {
			if cn.Start < horizon/2 {
				totalA++
				if quick {
					underA++
				}
			} else {
				totalB++
				if quick {
					underB++
				}
			}
		}
	}
	m["under64s_share"] = ratio(under, total)
	m["under64s_drift"] = ratio(underB, totalB) - ratio(underA, totalA)

	// Polluter share: membership of recorded query texts in the inject set.
	if inj := c.InjectSet(); inj != nil {
		var hit float64
		for i := range tr.Queries {
			if inj[tr.Queries[i].Text] {
				hit++
			}
		}
		m["polluter_share"] = ratio(hit, float64(len(tr.Queries)))
	} else {
		m["polluter_share"] = 0
	}

	// Churn transient: compare arrival (connection-start) rates in equal
	// windows before the event, during the outage, and after recovery
	// completes. The pre window has the outage's own length, so the two
	// counts divide without normalization.
	m["churn_outage_drop"] = 0
	m["churn_recovery"] = 1
	if ev := c.FirstChurn(); ev != nil && ev.Outage > 0 {
		w := ev.Outage
		preStart := ev.At - w
		if preStart < 0 {
			preStart = 0
			w = ev.At
		}
		if w > 0 {
			outageEnd := ev.At + ev.Outage
			postStart := outageEnd + ev.Recovery
			var pre, during, post float64
			for i := range tr.Conns {
				s := tr.Conns[i].Start
				switch {
				case s >= preStart && s < ev.At:
					pre++
				case s >= ev.At && s < outageEnd:
					during++
				case s >= postStart && s < postStart+w:
					post++
				}
			}
			if pre > 0 {
				// Window lengths: pre is w, outage is ev.Outage, post is w.
				preRate := pre / w.Hours()
				m["churn_outage_drop"] = 1 - (during/ev.Outage.Hours())/preRate
				m["churn_recovery"] = (post / w.Hours()) / preRate
			}
		}
	}
	return m
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// CheckResult is one evaluated assertion.
type CheckResult struct {
	Metric string
	Value  float64
	Min    *float64
	Max    *float64
	OK     bool
}

func (r CheckResult) String() string {
	bound := ""
	if r.Min != nil {
		bound += fmt.Sprintf(" min=%g", *r.Min)
	}
	if r.Max != nil {
		bound += fmt.Sprintf(" max=%g", *r.Max)
	}
	verdict := "ok"
	if !r.OK {
		verdict = "FAIL"
	}
	return fmt.Sprintf("check %-18s %-4s value=%.6g%s", r.Metric, verdict, r.Value, bound)
}

// EvaluateChecks measures the trace and applies the compiled spec's
// assertions, returning every result and whether all passed.
func EvaluateChecks(tr *trace.Trace, c *Compiled) ([]CheckResult, bool) {
	m := computeMetrics(tr, c)
	results := make([]CheckResult, 0, len(c.Checks))
	allOK := true
	for _, ck := range c.Checks {
		r := CheckResult{Metric: ck.Metric, Value: m[ck.Metric], Min: ck.Min, Max: ck.Max, OK: true}
		if ck.Min != nil && r.Value < *ck.Min {
			r.OK = false
		}
		if ck.Max != nil && r.Value > *ck.Max {
			r.OK = false
		}
		if !r.OK {
			allOK = false
		}
		results = append(results, r)
	}
	return results, allOK
}

// RecordChecks publishes evaluated check results on the observability
// layer: each check's measured value and pass/fail as
// scenario_check_value / scenario_check_ok gauges (labeled by metric
// name) and one scenario_check journal event per check. Values are
// deterministic functions of the trace, so they belong in the journal's
// deterministic record. A nil observer no-ops.
func RecordChecks(o *obs.Observer, results []CheckResult) {
	for _, r := range results {
		l := obs.L("metric", r.Metric)
		o.Gauge("scenario_check_value", "measured value of a scenario headline-metric check", l).Set(r.Value)
		ok := 0.0
		if r.OK {
			ok = 1
		}
		o.Gauge("scenario_check_ok", "1 when the scenario check passed its declared bounds", l).Set(ok)
		o.Event("scenario_check", obs.A("metric", r.Metric), obs.A("value", r.Value), obs.A("ok", r.OK))
	}
}

// WriteChecks renders evaluated checks, one per line.
func WriteChecks(w io.Writer, results []CheckResult) error {
	for _, r := range results {
		if _, err := fmt.Fprintln(w, r); err != nil {
			return err
		}
	}
	return nil
}
