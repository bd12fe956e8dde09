package p2pquery

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestFacadeEndToEnd drives the whole public API surface: simulate,
// persist, reload, characterize, report, and generate a workload.
func TestFacadeEndToEnd(t *testing.T) {
	cfg := DefaultSimulation(7, 0.002)
	cfg.Workload.Days = 1
	tr := Simulate(cfg)
	if len(tr.Conns) == 0 || len(tr.Queries) == 0 {
		t.Fatal("empty trace")
	}

	path := filepath.Join(t.TempDir(), "facade.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Counts != tr.Counts {
		t.Fatal("reloaded trace differs")
	}

	c := Characterize(back)
	if len(c.Sessions) == 0 {
		t.Fatal("no sessions characterized")
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("report missing sections")
	}

	wl := NewWorkload(DefaultWorkload(7, 0.001))
	n := 0
	for s := wl.Next(); s != nil && n < 50; s = wl.Next() {
		if s.Region != NorthAmerica && s.Region != Europe && s.Region != Asia &&
			s.Region.String() == "" {
			t.Fatal("bad region")
		}
		n++
	}
	if n == 0 {
		t.Fatal("workload generated nothing")
	}
}

// TestFacadeFleet drives the multi-vantage entry point: the merged
// trace must carry the node count and characterize end to end.
func TestFacadeFleet(t *testing.T) {
	cfg := DefaultSimulation(7, 0.002)
	cfg.Workload.Days = 1
	res, err := Run(RunConfig{Sim: cfg, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if tr.Nodes != 3 {
		t.Fatalf("merged trace Nodes = %d, want 3", tr.Nodes)
	}
	if len(tr.Conns) == 0 || len(tr.Queries) == 0 {
		t.Fatal("empty merged trace")
	}
	c := Characterize(tr)
	if len(c.Sessions) == 0 {
		t.Fatal("no sessions characterized from merged trace")
	}
}

func traceBytes(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunEquivalence: the run configurations that differ only in how the
// run is observed or executed must be byte-identical — Simulate is
// Run{Sim}, the deprecated Stream knob is ignored, and the online sketch
// layer rides the merge without perturbing it.
func TestRunEquivalence(t *testing.T) {
	cfg := DefaultSimulation(7, 0.002)
	cfg.Workload.Days = 1

	res, err := Run(RunConfig{Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceBytes(t, Simulate(cfg)), traceBytes(t, res.Trace)) {
		t.Error("Simulate differs from Run")
	}

	fleet, err := Run(RunConfig{Sim: cfg, Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fleet.Stats.Arrivals == 0 || len(fleet.ScheduledPerNode) != 3 {
		t.Errorf("Run result accounting empty: %+v", fleet.Stats)
	}
	if fleet.Online != nil {
		t.Error("online snapshot without Online")
	}
	online, err := Run(RunConfig{Sim: cfg, Nodes: 3, Stream: true, Online: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(traceBytes(t, fleet.Trace), traceBytes(t, online.Trace)) {
		t.Error("online run's trace differs from the plain run's")
	}
	if online.Online == nil || online.Online.Sessions != uint64(len(online.Trace.Conns)) {
		t.Errorf("online snapshot does not cover the trace: %+v", online.Online)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("zero RunConfig accepted")
	}
	cfg := DefaultSimulation(7, 0.001)
	cfg.Workload.Days = 1
	if _, err := Run(RunConfig{Sim: cfg, Nodes: -1}); err == nil {
		t.Error("negative Nodes accepted")
	}
	// Each run-shape field the engine would otherwise silently rewrite or
	// hang on is its own error, not part of a zero-config heuristic.
	for name, mut := range map[string]func(*SimulationConfig){
		"MaxConns 0": func(c *SimulationConfig) { c.MaxConns = 0 },
		"Scale 0":    func(c *SimulationConfig) { c.Workload.Scale = 0 },
		"Scale -1":   func(c *SimulationConfig) { c.Workload.Scale = -1 },
		"Days 0":     func(c *SimulationConfig) { c.Workload.Days = 0 },
	} {
		bad := cfg
		mut(&bad)
		if _, err := Run(RunConfig{Sim: bad}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestScenarioFacade: preset loading, scenario runs and check evaluation
// through the public surface only.
func TestScenarioFacade(t *testing.T) {
	c, err := ScenarioPreset("laptop")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink for test runtime; explicit overrides mimic the CLI path.
	c.Sim.Workload.Scale = 0.002
	c.Sim.Workload.Days = 1
	c.Nodes = 2
	res, err := RunScenario(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Conns) == 0 {
		t.Fatal("scenario run produced an empty trace")
	}
	results, ok := EvaluateScenario(res.Trace, c)
	if !ok || len(results) != 0 {
		t.Errorf("preset without checks must evaluate clean: %v %v", results, ok)
	}

	if _, err := ScenarioPreset("warpdrive"); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := LoadScenario("/nonexistent.yaml"); err == nil {
		t.Error("missing spec file accepted")
	}
}

func TestFacadeDeterminism(t *testing.T) {
	cfg := DefaultSimulation(11, 0.001)
	cfg.Workload.Days = 1
	a := Simulate(cfg)
	b := Simulate(cfg)
	if a.Counts != b.Counts || len(a.Conns) != len(b.Conns) {
		t.Fatal("same config must produce identical traces")
	}
}
