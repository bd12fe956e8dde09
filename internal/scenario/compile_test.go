package scenario

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/engine"
)

func TestPresetsParseAndCompile(t *testing.T) {
	for _, name := range PresetNames() {
		sp, err := Preset(name)
		if err != nil {
			t.Fatalf("Preset(%s): %v", name, err)
		}
		c, err := Compile(sp)
		if err != nil {
			t.Fatalf("Compile(%s): %v", name, err)
		}
		if c.Name != name {
			t.Errorf("preset %s compiled with name %q", name, c.Name)
		}
		if c.Sim.Workload.Scenario != nil {
			t.Errorf("preset %s carries a scenario; presets must be pure base configs", name)
		}
	}
}

// TestPaper40dIsTodaysDefaultConfig: the paper40d preset must compile to
// exactly capture.DefaultConfig — field for field, so any future default
// change breaks here instead of silently forking the preset.
func TestPaper40dIsTodaysDefaultConfig(t *testing.T) {
	sp, err := Preset("paper40d")
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	want := capture.DefaultConfig(2004, 1.0)
	if !reflect.DeepEqual(c.Sim, want) {
		t.Errorf("paper40d.Sim = %+v\nwant default %+v", c.Sim, want)
	}
	if c.Nodes != 48 || !c.Online {
		t.Errorf("paper40d run shape: nodes=%d online=%v, want 48/true", c.Nodes, c.Online)
	}
}

// TestPaper40dTraceHashEqualsFlagPath pins the acceptance criterion at
// test scale: the preset-compiled config, overridden the way explicit
// CLI flags override it, drains to a trace SHA-256 equal to the
// historical flag-driven path.
func TestPaper40dTraceHashEqualsFlagPath(t *testing.T) {
	scale, days, nodes := 0.02, 2, 4

	sp, err := Preset("paper40d")
	if err != nil {
		t.Fatal(err)
	}
	overlay := &Spec{Sim: SimSpec{Scale: &scale, Days: &days, Nodes: &nodes}}
	c, err := Compile(Merge(sp, overlay))
	if err != nil {
		t.Fatal(err)
	}
	specTr := engine.New(engine.Config{
		Fleet: capture.FleetConfig{Node: c.Sim, Nodes: c.Nodes},
	}).Run(nil)
	specHash, err := specTr.Hash()
	if err != nil {
		t.Fatal(err)
	}

	// The flag-driven path, exactly as cmd/analyze -simulate builds it.
	cfg := capture.DefaultConfig(2004, scale)
	cfg.Workload.Days = days
	flagTr := engine.New(engine.Config{
		Fleet: capture.FleetConfig{Node: cfg, Nodes: nodes},
	}).Run(nil)
	flagHash, err := flagTr.Hash()
	if err != nil {
		t.Fatal(err)
	}

	if specHash != flagHash {
		t.Errorf("paper40d spec path sha256 %x != flag path %x", specHash, flagHash)
	}
}

func TestMergePrecedence(t *testing.T) {
	base, err := Preset("laptop")
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.5
	online := true
	overlay := &Spec{
		Name: "over",
		Sim:  SimSpec{Scale: &scale, Online: &online},
		Classes: []ClassSpec{
			{Name: "x", Share: 0.1},
		},
	}
	m := Merge(base, overlay)
	if m.Name != "over" {
		t.Errorf("name: %q", m.Name)
	}
	if m.Sim.Scale == nil || *m.Sim.Scale != 0.5 {
		t.Errorf("overlay scale lost: %v", m.Sim.Scale)
	}
	if m.Sim.Seed == nil || *m.Sim.Seed != 2004 {
		t.Errorf("base seed lost: %v", m.Sim.Seed)
	}
	if m.Sim.Days == nil || *m.Sim.Days != 4 {
		t.Errorf("base days lost: %v", m.Sim.Days)
	}
	if m.Sim.Online == nil || !*m.Sim.Online {
		t.Errorf("overlay online lost: %v", m.Sim.Online)
	}
	if len(m.Classes) != 1 || m.Classes[0].Name != "x" {
		t.Errorf("overlay classes lost: %+v", m.Classes)
	}
	// Merge must not mutate its inputs.
	if base.Name != "laptop" || base.Classes != nil {
		t.Errorf("base mutated: %+v", base)
	}
}

func TestCompileDefaults(t *testing.T) {
	c, err := Compile(&Spec{Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Sim.Workload.Seed != DefaultSeed || c.Sim.Workload.Scale != DefaultScale ||
		c.Sim.Workload.Days != DefaultDays || c.Nodes != DefaultNodes {
		t.Errorf("defaults: %+v nodes=%d", c.Sim.Workload, c.Nodes)
	}
	if c.Online {
		t.Errorf("zero-value run shape expected: %+v", c)
	}
}

// TestCompileRejectsBadRunShape: the run-shape range checks live in
// Compile, not the decoder, so specs, presets and command-line flags meet
// one check, and its error names the spec field.
func TestCompileRejectsBadRunShape(t *testing.T) {
	cases := []struct{ name, sim, want string }{
		{"negative scale", "scale: -1", "sim.scale"},
		{"zero scale", "scale: 0", "sim.scale"},
		{"zero days", "days: 0", "sim.days"},
		{"zero nodes", "nodes: 0", "sim.nodes"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp, err := Parse([]byte("version: 1\nsim:\n  " + tc.sim + "\n"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Compile(sp); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Compile error %v does not name %s", err, tc.want)
			}
		})
	}
}

// TestCompileLowersScenario: classes and events land in the attached
// workload.Scenario 1:1, and a preset-extending spec keeps the preset's
// base shape.
func TestCompileLowersScenario(t *testing.T) {
	sp, err := Parse([]byte(`version: 1
name: churny
preset: laptop
classes:
  - name: polluter
    share: 0.2
    query_scale: 2.0
    inject:
      - "planted"
events:
  - churn:
      at: 1d
      fraction: 0.5
      outage: 1h
      recovery: 3h
`))
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(sp)
	if err != nil {
		t.Fatal(err)
	}
	sc := c.Sim.Workload.Scenario
	if sc == nil {
		t.Fatal("no compiled scenario")
	}
	if len(sc.Classes) != 1 || sc.Classes[0].Name != "polluter" || sc.Classes[0].QueryScale != 2 {
		t.Errorf("classes: %+v", sc.Classes)
	}
	if len(sc.Churn) != 1 || sc.Churn[0].Fraction != 0.5 {
		t.Errorf("churn: %+v", sc.Churn)
	}
	// Preset base carried through.
	if c.Sim.Workload.Scale != 0.05 || c.Sim.Workload.Days != 4 || c.Nodes != 4 {
		t.Errorf("laptop base lost: %+v nodes=%d", c.Sim.Workload, c.Nodes)
	}
	if !c.InjectSet()["planted"] {
		t.Error("InjectSet missing injected string")
	}
	if c.FirstChurn() == nil {
		t.Error("FirstChurn nil")
	}
}
