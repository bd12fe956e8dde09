package p2pquery_test

import (
	"bytes"
	"strings"
	"testing"

	p2pquery "repro"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// journalRun executes the paper40d preset at smoke scale under a fresh
// observer and returns the full journal: the engine's simulate span, a
// characterize span, the scenario check events, and
// the final metrics snapshot — the exact sequence `analyze -journal`
// records.
func journalRun(t *testing.T) []byte {
	t.Helper()
	base, err := scenario.Preset("paper40d")
	if err != nil {
		t.Fatal(err)
	}
	scale, days, nodes := 0.02, 2, 4
	minConns := 1.0
	sc, err := scenario.Compile(scenario.Merge(base, &scenario.Spec{
		Version: scenario.SchemaVersion,
		Name:    "paper40d-smoke",
		Sim:     scenario.SimSpec{Scale: &scale, Days: &days, Nodes: &nodes},
		Checks:  []scenario.Check{{Metric: "conns", Min: &minConns}},
	}))
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	ob := &obs.Observer{Metrics: obs.NewRegistry(), Journal: obs.NewJournal(&buf)}
	res, err := p2pquery.Run(p2pquery.RunConfig{
		Sim:   sc.Sim,
		Nodes: sc.Nodes,
		Obs:   ob,
	})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := p2pquery.EvaluateScenario(res.Trace, sc)
	scenario.RecordChecks(ob, results)
	sp := ob.Begin("characterize", obs.A("conns", len(res.Trace.Conns)))
	c := p2pquery.Characterize(res.Trace)
	sp.End(obs.A("sessions", len(c.Sessions)))
	ob.SnapshotMetrics()
	if err := ob.Journal.Err(); err != nil {
		t.Fatalf("journal write error: %v", err)
	}
	return buf.Bytes()
}

// TestJournalDeterministic pins the observability contract the journal's
// design carries: two runs of the same spec produce identical journals
// once timestamps are stripped (obs.Canonical). Everything else in a
// journal line — span order, attrs, the final metrics snapshot — is a
// deterministic function of the run, because wall-clock-dependent values
// only ever ride GaugeFuncs (excluded from snapshots) and heartbeats
// (dropped by Canonical).
func TestJournalDeterministic(t *testing.T) {
	a, err := obs.Canonical(bytes.NewReader(journalRun(t)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := obs.Canonical(bytes.NewReader(journalRun(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("journal line counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("journals diverge at canonical line %d:\n  run1 %s\n  run2 %s", i, a[i], b[i])
		}
	}

	// The canonical record must tell the whole pipeline's story.
	joined := strings.Join(a, "\n")
	for _, span := range []string{"simulate", "characterize"} {
		if !strings.Contains(joined, `"name":"`+span+`"`) {
			t.Errorf("journal missing %q span", span)
		}
	}
	for _, want := range []string{`"kind":"metrics"`, "scenario_check", "engine_arrivals_total"} {
		if !strings.Contains(joined, want) {
			t.Errorf("journal missing %q", want)
		}
	}
}
