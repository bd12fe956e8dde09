package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	r, ok := parseBench("BenchmarkRankingBuild-8  1656  1490862 ns/op  19404 B/op  57 allocs/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "BenchmarkRankingBuild" {
		t.Errorf("name = %q", r.Name)
	}
	if r.Iterations != 1656 || r.NsPerOp != 1490862 || r.BytesPerOp != 19404 || r.AllocsPerOp != 57 {
		t.Errorf("parsed %+v", r)
	}
}

func TestParseBenchNoMem(t *testing.T) {
	r, ok := parseBench("BenchmarkSampleCachedDay 19966726 122.4 ns/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.NsPerOp != 122.4 || r.BytesPerOp != 0 {
		t.Errorf("parsed %+v", r)
	}
}

func TestParseBenchSubBenchmarkName(t *testing.T) {
	r, ok := parseBench("BenchmarkCharacterizeScaleSweep/scale=0.03-4 100 1000 ns/op")
	if !ok {
		t.Fatal("line not parsed")
	}
	if r.Name != "BenchmarkCharacterizeScaleSweep/scale=0.03" {
		t.Errorf("name = %q", r.Name)
	}
}

func TestParseBenchRejectsJunk(t *testing.T) {
	for _, line := range []string{
		"BenchmarkBroken",
		"Benchmark x y z",
		"ok   repro 1.2s",
	} {
		if _, ok := parseBench(line); ok {
			t.Errorf("parsed junk line %q", line)
		}
	}
}

func writeBaseline(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadBaselinePlainOutput(t *testing.T) {
	path := writeBaseline(t, `{"benchmarks":[
		{"name":"BenchmarkFoo","ns_per_op":1000,"allocs_per_op":10},
		{"name":"BenchmarkBar","ns_per_op":250.5}
	]}`)
	base, _, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base["BenchmarkFoo"].NsPerOp != 1000 || base["BenchmarkFoo"].AllocsPerOp != 10 {
		t.Errorf("BenchmarkFoo = %+v", base["BenchmarkFoo"])
	}
	if base["BenchmarkBar"].NsPerOp != 250.5 {
		t.Errorf("BenchmarkBar = %+v", base["BenchmarkBar"])
	}
}

func TestLoadBaselineCuratedSnapshot(t *testing.T) {
	// The BENCH_pr2.json shape: results nested under commentary keys,
	// both map-keyed and array-form, with the array-form ("after")
	// taking precedence over the map-keyed pre-PR baseline.
	path := writeBaseline(t, `{
		"pr": 2,
		"baseline_pre_pr": {
			"note": "pre-rewrite",
			"BenchmarkFoo": {"ns_per_op": 9000, "allocs_per_op": 500},
			"nested": {"BenchmarkDeep": {"ns_per_op": 77}}
		},
		"after": {"benchmarks": [
			{"name": "BenchmarkFoo", "ns_per_op": 1200, "allocs_per_op": 30}
		]}
	}`)
	base, _, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if base["BenchmarkFoo"].NsPerOp != 1200 {
		t.Errorf("array form should win: %+v", base["BenchmarkFoo"])
	}
	if base["BenchmarkDeep"].NsPerOp != 77 {
		t.Errorf("nested map-keyed entry missed: %+v", base["BenchmarkDeep"])
	}
}

func TestLoadBaselineAgainstCommittedSnapshot(t *testing.T) {
	// The real committed baseline must parse and contain the headline
	// pipeline benchmark.
	base, _, err := loadBaseline("../../BENCH_pr2.json")
	if err != nil {
		t.Fatal(err)
	}
	if base["BenchmarkCharacterizeFull"].NsPerOp <= 0 {
		t.Errorf("BenchmarkCharacterizeFull missing from committed baseline")
	}
}

func TestCompareResultsGates(t *testing.T) {
	baseline := map[string]Result{
		"BenchmarkStable": {Name: "BenchmarkStable", NsPerOp: 1e6, AllocsPerOp: 100},
		"BenchmarkGone":   {Name: "BenchmarkGone", NsPerOp: 5},
	}
	gate := gateConfig{tolerance: 1.5, nsSlack: 5000, allocTolerance: 1.25, allocSlack: 64}

	var sb strings.Builder
	ok := compareResults(&sb, []Result{
		{Name: "BenchmarkStable", NsPerOp: 1.4e6, AllocsPerOp: 120},
		{Name: "BenchmarkNew", NsPerOp: 123},
	}, baseline, gate)
	if !ok {
		t.Errorf("within-tolerance run failed the gate:\n%s", sb.String())
	}
	for _, want := range []string{"NEW", "RETIRED", "BenchmarkGone"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q:\n%s", want, sb.String())
		}
	}

	sb.Reset()
	if compareResults(&sb, []Result{{Name: "BenchmarkStable", NsPerOp: 2e6, AllocsPerOp: 100}}, baseline, gate) {
		t.Errorf("2× ns/op regression passed the gate:\n%s", sb.String())
	}

	sb.Reset()
	if compareResults(&sb, []Result{{Name: "BenchmarkStable", NsPerOp: 1e6, AllocsPerOp: 400}}, baseline, gate) {
		t.Errorf("4× allocs/op regression passed the gate:\n%s", sb.String())
	}

	// Sub-microsecond benchmarks ride the absolute slack: 5 ns → 400 ns
	// is scheduler noise at -benchtime=1x, not a regression.
	sb.Reset()
	if !compareResults(&sb, []Result{{Name: "BenchmarkGone", NsPerOp: 400}}, baseline, gate) {
		t.Errorf("noise on a tiny benchmark failed the gate:\n%s", sb.String())
	}
}

func TestCheckSpeedup(t *testing.T) {
	cur := []Result{
		{Name: "BenchmarkSeq", NsPerOp: 4000},
		{Name: "BenchmarkPar", NsPerOp: 1000},
	}
	var sb strings.Builder
	ok, err := checkSpeedup(&sb, cur, "BenchmarkSeq:BenchmarkPar:2.0")
	if err != nil || !ok {
		t.Errorf("4× speedup failed a 2× requirement: ok=%v err=%v\n%s", ok, err, sb.String())
	}
	ok, err = checkSpeedup(&sb, cur, "BenchmarkSeq:BenchmarkPar:5.0")
	if err != nil || ok {
		t.Errorf("4× speedup passed a 5× requirement: ok=%v err=%v", ok, err)
	}
	if _, err = checkSpeedup(&sb, cur, "BenchmarkSeq:BenchmarkMissing:2.0"); err == nil {
		t.Error("missing benchmark did not error")
	}
	if _, err = checkSpeedup(&sb, cur, "garbage"); err == nil {
		t.Error("malformed spec did not error")
	}
}

// TestSpeedupSpecsAccumulate pins the repeatable-flag behavior: every
// -speedup occurrence is kept and empty specs are rejected, so a CI
// pipeline can gate the characterization and simulation pairs in one
// invocation.
func TestSpeedupSpecsAccumulate(t *testing.T) {
	var s speedupSpecs
	if err := s.Set("A:B:2.0"); err != nil {
		t.Fatal(err)
	}
	if err := s.Set("C:D:3.0"); err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 || s[0] != "A:B:2.0" || s[1] != "C:D:3.0" {
		t.Fatalf("specs = %v", s)
	}
	if err := s.Set("  "); err == nil {
		t.Error("blank spec accepted")
	}
}

func TestLoadBaselinePhases(t *testing.T) {
	path := writeBaseline(t, `{
		"benchmarks": [{"name": "BenchmarkFoo", "ns_per_op": 10}],
		"phases": [
			{"label":"stream-ci","peak_rss_bytes":100000000,"simulate_peak_rss_bytes":60000000,"simulate_s":1.5}
		]
	}`)
	_, phases, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := phases["stream-ci"]
	if !ok {
		t.Fatalf("phase not found: %+v", phases)
	}
	if p.PeakRSS != 100000000 || p.SimulatePeakRSS != 60000000 {
		t.Errorf("phase fields: %+v", p)
	}
}

func TestComparePhasesGates(t *testing.T) {
	baseline := map[string]Phase{
		"stable":  {Label: "stable", PeakRSS: 1 << 30, SimulatePeakRSS: 1 << 29},
		"retired": {Label: "retired", PeakRSS: 1},
	}
	gate := gateConfig{rssTolerance: 1.5, rssSlack: 1 << 20}

	var sb strings.Builder
	ok := comparePhases(&sb, []Phase{
		{Label: "stable", PeakRSS: 1 << 30, SimulatePeakRSS: 1 << 29},
		{Label: "new", PeakRSS: 42},
	}, baseline, gate)
	if !ok {
		t.Fatalf("within-tolerance phases failed:\n%s", sb.String())
	}
	for _, want := range []string{"NEW", "RETIRED"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("report missing %q:\n%s", want, sb.String())
		}
	}

	sb.Reset()
	if comparePhases(&sb, []Phase{
		{Label: "stable", PeakRSS: 2 << 30, SimulatePeakRSS: 1 << 29},
	}, baseline, gate) {
		t.Fatalf("peak-RSS regression passed:\n%s", sb.String())
	}

	// A simulate-phase-only regression must fail too: the streaming
	// engine's whole point is that phase's bound.
	sb.Reset()
	if comparePhases(&sb, []Phase{
		{Label: "stable", PeakRSS: 1 << 30, SimulatePeakRSS: 3 << 29},
	}, baseline, gate) {
		t.Fatalf("simulate-RSS regression passed:\n%s", sb.String())
	}
}

func TestStdinPhaseLineParsed(t *testing.T) {
	// The main loop recognizes labeled perf lines on stdin; this pins the
	// filter logic (label and peak_rss_bytes required).
	lines := []string{
		`{"label":"stream-ci","conns":5,"peak_rss_bytes":12345,"stream":true}`,
		`{"conns":5,"peak_rss_bytes":99}`, // unlabeled: ignored
		`{"label":"x"}`,                   // no RSS: ignored
	}
	var phases []Phase
	for _, line := range lines {
		var ph Phase
		if err := json.Unmarshal([]byte(line), &ph); err == nil && ph.Label != "" && ph.PeakRSS > 0 {
			phases = append(phases, ph)
		}
	}
	if len(phases) != 1 || phases[0].Label != "stream-ci" || !phases[0].Stream {
		t.Errorf("phase filtering wrong: %+v", phases)
	}
}

func TestPhaseLineFormatCompat(t *testing.T) {
	// The -perf line switched from a hand-rolled fmt.Sprintf (through
	// PR 6's recorded baselines) to encoding/json over a struct. Both
	// generations must keep decoding into the same Phase: old baselines
	// stay comparable, and the new encoder must not have renamed or
	// reordered anything a decoder relies on.
	old := `{"label":"stream-full","conns":4362622,"arrivals":4362622,"rejected_arrivals":0,"max_peak_conns":200,"merge_peak_pending":1861,"spilled_sessions":0,"dead_inputs":0,"lost_sessions":0,"sched_events_max_node":1194034,"sched_events_total":119272887,"simulate_s":116.32,"simulate_peak_rss_bytes":655590400,"simulate_heap_live_bytes":331837744,"simworkers":0,"stream":true,"nodes":128,"hop1_queries":9608692,"characterize_s":31.31,"total_s":147.63,"peak_rss_bytes":3966092800,"workers":0,"scale":1,"days":40}`
	var phOld Phase
	if err := json.Unmarshal([]byte(old), &phOld); err != nil {
		t.Fatalf("PR6-era line: %v", err)
	}
	if phOld.Label != "stream-full" || !phOld.Stream || phOld.PeakRSS != 3966092800 {
		t.Fatalf("decoded PR6-era phase wrong: %+v", phOld)
	}
	if phOld.SimulateS != 116.32 || phOld.MergePeakPending != 1861 || phOld.SchedEventsMaxNode != 1194034 {
		t.Fatalf("decoded PR6-era phase wrong: %+v", phOld)
	}

	// Verbatim capture of the struct encoder's output (a smoke-scale
	// run): zero floats render as 0 rather than 0.00 and the sim block
	// rides an embedded struct, but the field names and order are the
	// same contract. The engine's worker knob is gone, so the current
	// line lacks the PR6-era worker-count key — which the old line above
	// keeps verbatim, pinning that retired keys still decode.
	now := `{"label":"smoke","conns":549,"arrivals":549,"rejected_arrivals":0,"max_peak_conns":9,"merge_peak_pending":549,"spilled_sessions":0,"dead_inputs":0,"lost_sessions":0,"sched_events_max_node":18099,"sched_events_total":33623,"simulate_s":0.04,"simulate_peak_rss_bytes":15863808,"simulate_heap_live_bytes":3550880,"stream":false,"nodes":2,"hop1_queries":1197,"characterize_s":0,"total_s":0.04,"peak_rss_bytes":16084992,"workers":0,"scale":0.005,"days":1}`
	var phNow Phase
	if err := json.Unmarshal([]byte(now), &phNow); err != nil {
		t.Fatalf("current line: %v", err)
	}
	if phNow.Label != "smoke" || phNow.Conns != 549 || phNow.PeakRSS != 16084992 {
		t.Fatalf("decoded current phase wrong: %+v", phNow)
	}
	if phNow.SimulateS != 0.04 || phNow.CharacterizeS != 0 || phNow.MergePeakPending != 549 {
		t.Fatalf("decoded current phase wrong: %+v", phNow)
	}
}
