package cliflags

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var testDefaults = Defaults{Seed: 2004, Scale: 0.01, Days: 4, Nodes: 1}

func resolve(t *testing.T, specFile string, args ...string) (*Flags, *scenarioCompiled) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Bind(fs, testDefaults)
	if specFile != "" {
		args = append([]string{"-spec", specFile}, args...)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	c, err := f.Resolve()
	if err != nil {
		t.Fatalf("resolve %v: %v", args, err)
	}
	return f, &scenarioCompiled{c.Sim.Workload.Seed, c.Sim.Workload.Scale, c.Sim.Workload.Days, c.Nodes, c.Online}
}

// scenarioCompiled flattens the resolved knobs for terse comparisons.
type scenarioCompiled struct {
	seed   uint64
	scale  float64
	days   int
	nodes  int
	online bool
}

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.yaml")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestPrecedenceOrder pins the contract: defaults < spec < preset <
// explicitly set flag, field by field.
func TestPrecedenceOrder(t *testing.T) {
	spec := writeSpec(t, `version: 1
name: from-spec
sim:
  scale: 0.3
  days: 9
  nodes: 2
`)

	// Defaults alone: the binary's historical behavior.
	if _, got := resolve(t, ""); *got != (scenarioCompiled{2004, 0.01, 4, 1, false}) {
		t.Errorf("defaults: %+v", got)
	}

	// Spec beats defaults, untouched fields keep defaults.
	if _, got := resolve(t, spec); *got != (scenarioCompiled{2004, 0.3, 9, 2, false}) {
		t.Errorf("spec over defaults: %+v", got)
	}

	// Preset beats spec (laptop pins scale 0.05, days 4, nodes 4).
	if _, got := resolve(t, spec, "-preset", "laptop"); *got != (scenarioCompiled{2004, 0.05, 4, 4, false}) {
		t.Errorf("preset over spec: %+v", got)
	}

	// Explicit flags beat everything; unset flags still lose to the spec.
	if _, got := resolve(t, spec, "-preset", "laptop", "-scale", "0.9", "-seed", "7"); *got != (scenarioCompiled{7, 0.9, 4, 4, false}) {
		t.Errorf("flags over preset: %+v", got)
	}

	// A flag set to its default value still counts as explicit.
	if _, got := resolve(t, spec, "-days", "4"); *got != (scenarioCompiled{2004, 0.3, 4, 2, false}) {
		t.Errorf("explicit default-valued flag: %+v", got)
	}

	// -online follows the same order: tenweek pins it on, a flag turns it off.
	if _, got := resolve(t, "", "-preset", "tenweek"); !got.online {
		t.Errorf("preset online lost: %+v", got)
	}
	if _, got := resolve(t, "", "-preset", "tenweek", "-online=false"); got.online {
		t.Errorf("explicit -online=false lost to the preset: %+v", got)
	}
}

func TestResolveScenarioAndChecksSurvive(t *testing.T) {
	spec := writeSpec(t, `version: 1
name: churny
preset: laptop
events:
  - churn:
      at: 1d
      fraction: 0.5
      outage: 1h
checks:
  - metric: conns
    min: 1
`)
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Bind(fs, testDefaults)
	if err := fs.Parse([]string{"-spec", spec, "-scale", "0.02"}); err != nil {
		t.Fatal(err)
	}
	c, err := f.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !f.Declarative() {
		t.Error("Declarative() false with -spec")
	}
	if c.Name != "churny" {
		t.Errorf("name: %q", c.Name)
	}
	sc := c.Sim.Workload.Scenario
	if sc == nil || len(sc.Churn) != 1 {
		t.Fatalf("scenario lost in resolve: %+v", sc)
	}
	if len(c.Checks) != 1 || c.Checks[0].Metric != "conns" {
		t.Errorf("checks lost: %+v", c.Checks)
	}
	// Explicit -scale overrode the spec's preset base.
	if c.Sim.Workload.Scale != 0.02 {
		t.Errorf("scale: %v", c.Sim.Workload.Scale)
	}
	// The file's preset base (laptop) supplied nodes.
	if c.Nodes != 4 {
		t.Errorf("nodes: %d", c.Nodes)
	}
}

func TestResolveErrors(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Bind(fs, testDefaults)
	if err := fs.Parse([]string{"-preset", "warpdrive"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Resolve(); err == nil {
		t.Error("unknown preset accepted")
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	f = Bind(fs, testDefaults)
	if err := fs.Parse([]string{"-spec", "/nonexistent/x.yaml"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Resolve(); err == nil {
		t.Error("missing spec file accepted")
	}
}
