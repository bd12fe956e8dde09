package scenario

import (
	"math"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/trace"
	"repro/internal/workload"
)

// capturedWith is a minimal Compiled.Sim carrying the given scenario.
func capturedWith(sc *workload.Scenario) capture.Config {
	cfg := capture.DefaultConfig(1, 0.01)
	cfg.Workload.Scenario = sc
	return cfg
}

// synthTrace builds a hand-crafted trace: arrivals per hour, durations,
// and query texts fully controlled, so each metric's value is computable
// by inspection.
func synthTrace() *trace.Trace {
	tr := &trace.Trace{Days: 2}
	addConn := func(start, dur time.Duration) {
		tr.Conns = append(tr.Conns, trace.Conn{ID: uint64(len(tr.Conns)), Start: start, End: start + dur})
	}
	// Day 1 (first half): 10 conns/hour for 24h, 30% quick.
	for h := 0; h < 24; h++ {
		for i := 0; i < 10; i++ {
			dur := 10 * time.Minute
			if i < 3 {
				dur = 30 * time.Second
			}
			addConn(time.Duration(h)*time.Hour+time.Duration(i)*time.Minute, dur)
		}
	}
	// Day 2 (second half): same rate, 50% quick.
	for h := 24; h < 48; h++ {
		for i := 0; i < 10; i++ {
			dur := 10 * time.Minute
			if i < 5 {
				dur = 30 * time.Second
			}
			addConn(time.Duration(h)*time.Hour+time.Duration(i)*time.Minute, dur)
		}
	}
	// Queries: 3 planted out of 10.
	for i := 0; i < 10; i++ {
		text := "organic"
		if i < 3 {
			text = "planted"
		}
		tr.Queries = append(tr.Queries, trace.Query{ConnID: 0, At: time.Duration(i) * time.Minute, Text: text})
	}
	return tr
}

func TestComputeMetricsSynthetic(t *testing.T) {
	tr := synthTrace()
	c := &Compiled{Sim: capturedWith(&workload.Scenario{
		Classes: []workload.ClientClass{{Name: "p", Share: 0.1, Inject: []string{"planted"}}},
	})}
	m := computeMetrics(tr, c)

	approx := func(name string, want float64) {
		t.Helper()
		if got := m[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("conns", 480)
	approx("hop1_queries", 10)
	approx("under64s_share", 0.4)  // (72 + 120) / 480
	approx("under64s_drift", 0.2)  // 0.5 − 0.3
	approx("polluter_share", 0.3)  // 3 / 10
	approx("churn_outage_drop", 0) // no churn event
	approx("churn_recovery", 1)
}

func TestComputeMetricsChurn(t *testing.T) {
	tr := &trace.Trace{Days: 1}
	add := func(start time.Duration) {
		tr.Conns = append(tr.Conns, trace.Conn{ID: uint64(len(tr.Conns)), Start: start, End: start + time.Hour})
	}
	// 60/h before the event, 12/h during the 2h outage (80% drop),
	// 54/h after recovery (90% of the pre rate).
	for m := 0; m < 120; m++ {
		add(8*time.Hour + time.Duration(m)*time.Minute) // pre [8h,10h): 60/h
	}
	for i := 0; i < 24; i++ {
		add(10*time.Hour + time.Duration(i)*5*time.Minute) // outage [10h,12h): 12/h
	}
	for i := 0; i < 108; i++ {
		add(15*time.Hour + time.Duration(float64(i)*66.6)*time.Second) // post [15h,17h): 54/h
	}
	c := &Compiled{Sim: capturedWith(&workload.Scenario{
		Churn: []workload.ChurnEvent{{At: 10 * time.Hour, Fraction: 0.8, Outage: 2 * time.Hour, Recovery: 3 * time.Hour}},
	})}
	m := computeMetrics(tr, c)
	if got := m["churn_outage_drop"]; math.Abs(got-0.8) > 0.01 {
		t.Errorf("churn_outage_drop = %v, want ≈ 0.8", got)
	}
	if got := m["churn_recovery"]; math.Abs(got-0.9) > 0.01 {
		t.Errorf("churn_recovery = %v, want ≈ 0.9", got)
	}
}

func TestEvaluateChecks(t *testing.T) {
	tr := synthTrace()
	min1, max1 := 0.3, 0.5
	tooHigh := 0.99
	c := &Compiled{Checks: []Check{
		{Metric: "under64s_share", Min: &min1, Max: &max1}, // 0.4 → ok
		{Metric: "under64s_share", Min: &tooHigh},          // 0.4 < 0.99 → fail
	}}
	c.Sim = capturedWith(nil)
	results, ok := EvaluateChecks(tr, c)
	if ok {
		t.Error("EvaluateChecks reported all-ok with a failing check")
	}
	if len(results) != 2 || !results[0].OK || results[1].OK {
		t.Errorf("results: %+v", results)
	}
}
