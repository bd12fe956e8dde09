package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestSmokeWorkloads runs every workload at its smoke size, one timed pass
// and the traced run, in this process: the pass must deliver every session
// and match golden.json, the traced run must report every per-layer metric
// and leave a well-formed span tree.
func TestSmokeWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			pr, err := runPass(w, smokeSize, 2004, 0)
			if err != nil {
				t.Fatal(err)
			}
			if pr.Failed != 0 || pr.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d: %v", pr.Attempted, pr.Failed, pr.Problems)
			}
			if !pr.Golden {
				t.Error("golden.json does not pin the smoke size at seed 2004")
			}
			for _, m := range endToEnd {
				if v := m.of(pr); !(v > 0) {
					t.Errorf("%s = %v, want > 0", m.Name, v)
				}
			}

			tr, err := runTraced(w, smokeSize, 2004)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Failed != 0 {
				t.Fatalf("traced run failed %d sessions: %v", tr.Failed, tr.Problems)
			}
			if cov := tr.PerLayer["budget.coverage"]; !(cov > 0) {
				t.Errorf("budget.coverage = %v, want > 0", cov)
			}
			replay := w.name == "wire-replay" || w.name == "reanalyze-boot"
			if loop := tr.PerLayer["capture.event_loop_us_per_session"]; replay != (loop == 0) {
				t.Errorf("capture.event_loop_us_per_session = %v on %s", loop, w.name)
			}

			var sf spanFile
			if err := readJSON(tr.SpanFile, &sf); err != nil {
				t.Fatal(err)
			}
			if len(sf.Spans) == 0 || sf.Spans[0].Parent != -1 {
				t.Fatalf("span file has no root: %d spans", len(sf.Spans))
			}
			if err := checkTree(sf.Spans); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestNamesMatchBenchmarkJSON pins the workloads and metrics the benchmark
// emits against BENCHMARK.json in both directions, as dashboard_test.go
// does for the dashboard: a rename on either side fails here and not in
// the driver.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}

	var declared, emitted []string
	for _, w := range bf.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		emitted = append(emitted, w.name)
	}
	if !reflect.DeepEqual(declared, emitted) {
		t.Errorf("workloads: BENCHMARK.json %v, bench %v", declared, emitted)
	}

	var declE2E, emitE2E []metricDef
	for _, m := range bf.EndToEnd {
		declE2E = append(declE2E, metricDef{m.Name, m.Unit, m.Better})
		if !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range endToEnd {
		emitE2E = append(emitE2E, m.metricDef)
	}
	if !reflect.DeepEqual(declE2E, emitE2E) {
		t.Errorf("end_to_end: BENCHMARK.json %v, bench %v", declE2E, emitE2E)
	}

	var declLayer []metricDef
	for _, m := range bf.PerLayer {
		declLayer = append(declLayer, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(declLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json and bench differ:\n%v\n%v", declLayer, perLayer)
	}

	// What the result lines actually carry, not just what the tables say.
	timed := &workloadResult{EndToEnd: map[string]summary{}}
	for _, m := range endToEnd {
		timed.EndToEnd[m.Name] = summarize(m.Unit, []float64{1})
	}
	traced := &workloadResult{Traced: &tracedResult{PerLayer: newTracer().metrics}}
	for _, c := range []struct {
		line resultLine
		want []metricDef
	}{{timed.line(), declE2E}, {traced.line(), declLayer}} {
		var got, want []string
		for name, v := range c.line.Metrics {
			got = append(got, name+" "+v.Unit)
		}
		for _, m := range c.want {
			want = append(want, m.Name+" "+m.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("result line metrics %v, BENCHMARK.json %v", got, want)
		}
	}
}

func TestCheckTreeRejectsMalformed(t *testing.T) {
	ok := []span{{Name: "root", Parent: -1, EndUS: 10}, {Name: "a", StartUS: 1, EndUS: 4}, {Name: "b", StartUS: 4, EndUS: 9}}
	fillSelf(ok)
	if err := checkTree(ok); err != nil {
		t.Fatal(err)
	}
	if ok[0].SelfUS != 2 {
		t.Errorf("root self time %v, want 2", ok[0].SelfUS)
	}
	outside := []span{{Name: "root", Parent: -1, EndUS: 10}, {Name: "a", StartUS: 5, EndUS: 11}}
	if err := checkTree(outside); err == nil {
		t.Error("child ending after its parent accepted")
	}
	negative := []span{{Name: "root", Parent: -1, EndUS: 10, SelfUS: -1}}
	if err := checkTree(negative); err == nil {
		t.Error("negative self time accepted")
	}
}

// TestTimeMetricsScaleWithTheProbe: a pass on a machine half as fast as
// the reference (probe twice probeRefS) reports half its measured times and
// twice its measured rate; the memory metrics are as measured.
func TestTimeMetricsScaleWithTheProbe(t *testing.T) {
	pr := passResult{Attempted: 100, Items: 10, SetupS: 3, ProbeS: 2 * probeRefS,
		measurement: measurement{WallS: 4, CPUS: 6, PeakRSSMB: 50, Mallocs: 20, AllocBytes: 40}}
	want := map[string]float64{"wall_s": 2, "sessions_per_s": 50, "cpu_s": 3, "peak_rss_mb": 50,
		"allocs_per_item": 2, "alloc_bytes_per_item": 4, "setup_s": 1.5}
	for _, m := range endToEnd {
		if got := m.of(pr); got != want[m.Name] {
			t.Errorf("%s = %v, want %v", m.Name, got, want[m.Name])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 8, 2, 6, 5, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

// TestCompareVerdicts: a median worse by more than the bound regresses, a
// spread wider than the bound is unresolved, and both fail the command;
// set-up that moves and spreads by under half a second does neither.
func TestCompareVerdicts(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	file := func(name string, wall []float64) string {
		w := &workloadResult{Name: "fleet-stream", Attempted: 1, Correct: true, EndToEnd: map[string]summary{}}
		for _, m := range bf.EndToEnd {
			w.EndToEnd[m.Name] = summarize(m.Unit, []float64{1, 1, 1, 1, 1})
		}
		w.EndToEnd["wall_s"] = summarize("s", wall)
		// A tenth of a second of set-up, spread by a third and, in the
		// change, slower by half: all inside the absolute slack.
		w.EndToEnd["setup_s"] = summarize("s", []float64{0.08 * wall[0], 0.1 * wall[0], 0.12 * wall[0], 0.09 * wall[0], 0.11 * wall[0]})
		data, err := json.Marshal(resultsFile{Workloads: []*workloadResult{w}})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := file("a.json", []float64{1, 1.01, 1, 0.99, 1})
	for _, c := range []struct {
		name   string
		wall   []float64
		ok     bool
		expect string
	}{
		{"same", []float64{1, 1.01, 1, 0.99, 1.005}, true, ""},
		{"slower", []float64{1.5, 1.51, 1.5, 1.49, 1.5}, false, "wall_s on fleet-stream: REGRESSION"},
		{"noisy", []float64{0.5, 1.6, 1, 0.7, 1.4}, false, "wall_s on fleet-stream: unresolved"},
	} {
		var out bytes.Buffer
		ok, err := compare(&out, base, file(c.name+".json", c.wall))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, out.String())
		}
	}
}

// TestBaselineComparesWithItself: the committed baseline is usable as
// either side of compare, with no pair unresolved by its own spread.
func TestBaselineComparesWithItself(t *testing.T) {
	base := filepath.Join("baseline", "pr12.json")
	var out bytes.Buffer
	ok, err := compare(&out, base, base)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("compare(baseline, baseline) fails:\n%s", out.String())
	}
}
