package scenario

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/capture"
	"repro/internal/workload"
)

// Compile-time defaults for Sim fields no spec, preset or flag pinned:
// the paper's 40-day measurement period at a laptop-friendly scale on a
// single vantage.
const (
	DefaultSeed  = 2004
	DefaultScale = 0.05
	DefaultDays  = 40
	DefaultNodes = 1
)

// presets are the built-in named experiments, written as spec documents
// so they exercise the same parser and decoder as user files (and the
// golden tests re-parse them forever).
var presets = map[string]string{
	// paper40d is the reproduction's reference configuration: the paper's
	// full 40-day, full-volume measurement on a 48-vantage fleet, with the
	// online sketch layer. It must compile to exactly capture.DefaultConfig —
	// the trace SHA-256 equality test against the flag-driven path pins it.
	"paper40d": `version: 1
name: paper40d
description: the paper's 40-day full-scale measurement (trace sha256 4b2f8bcf...efc8c)
sim:
  seed: 2004
  scale: 1.0
  days: 40
  nodes: 48
  online: true
`,
	// laptop finishes in tens of seconds and is enough for every
	// distributional comparison.
	"laptop": `version: 1
name: laptop
description: laptop-scale smoke configuration
sim:
  seed: 2004
  scale: 0.05
  days: 4
  nodes: 4
`,
	// tenweek stresses the streaming memory contract and sketch drift at
	// 2.5x the paper's measurement period (the eDonkey-study horizon),
	// at reduced scale so it stays runnable.
	"tenweek": `version: 1
name: tenweek
description: ten-week long-run at reduced scale (streaming memory + sketch drift)
sim:
  seed: 2004
  scale: 0.02
  days: 70
  nodes: 4
  online: true
`,
}

// PresetNames lists the built-in presets, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Preset returns the named built-in spec.
func Preset(name string) (*Spec, error) {
	src, ok := presets[name]
	if !ok {
		return nil, fmt.Errorf("unknown preset %q (known: %v)", name, PresetNames())
	}
	sp, err := Parse([]byte(src))
	if err != nil {
		// Presets are compiled-in constants; a parse failure is a bug.
		panic(fmt.Sprintf("scenario: built-in preset %s does not parse: %v", name, err))
	}
	return sp, nil
}

// Load reads and parses a spec file, then resolves its preset base (the
// preset is the base; the file's fields overlay it).
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return resolvePreset(sp)
}

func resolvePreset(sp *Spec) (*Spec, error) {
	if sp.Preset == "" {
		return sp, nil
	}
	base, err := Preset(sp.Preset)
	if err != nil {
		return nil, err
	}
	return Merge(base, sp), nil
}

// Merge overlays one spec on another: the overlay's set Sim fields win
// field by field, and its classes/events/checks replace the base's when
// present. Name and description always come from the overlay when set.
// Neither input is modified.
func Merge(base, overlay *Spec) *Spec {
	out := *base
	out.Preset = overlay.Preset
	if overlay.Name != "" {
		out.Name = overlay.Name
	}
	if overlay.Description != "" {
		out.Description = overlay.Description
	}
	out.Sim = mergeSim(base.Sim, overlay.Sim)
	if overlay.Classes != nil {
		out.Classes = overlay.Classes
	}
	if overlay.Events != nil {
		out.Events = overlay.Events
	}
	if overlay.Checks != nil {
		out.Checks = overlay.Checks
	}
	return &out
}

func mergeSim(base, overlay SimSpec) SimSpec {
	out := base
	if overlay.Seed != nil {
		out.Seed = overlay.Seed
	}
	if overlay.Scale != nil {
		out.Scale = overlay.Scale
	}
	if overlay.Days != nil {
		out.Days = overlay.Days
	}
	if overlay.Nodes != nil {
		out.Nodes = overlay.Nodes
	}
	if overlay.Online != nil {
		out.Online = overlay.Online
	}
	return out
}

// Compiled is the runtime form of a spec: the exact configs the engine
// stack already takes, plus the run-shape knobs and the checks to
// evaluate afterwards. A spec with no classes and no events compiles
// with Sim.Workload.Scenario == nil — the workload generator's
// byte-identity contract — which is how the paper40d preset reproduces
// the flag-driven trace hash exactly.
type Compiled struct {
	// Name labels the experiment.
	Name string
	// Sim is the vantage-node configuration, scenario attached.
	Sim capture.Config
	// Nodes is the vantage fleet size.
	Nodes int
	// Online attaches the online sketch layer to the run
	// (p2pquery.RunConfig.Online).
	Online bool
	// Checks are the spec's headline-metric assertions.
	Checks []Check
}

// Compile resolves a spec to runnable configuration, applying defaults
// for unpinned Sim fields and rejecting a run shape the engine cannot
// honour (scale ≤ 0, days < 1, nodes < 1) with an error naming the field.
func Compile(sp *Spec) (*Compiled, error) {
	sp, err := resolvePreset(sp)
	if err != nil {
		return nil, err
	}
	seed := uint64(DefaultSeed)
	if sp.Sim.Seed != nil {
		seed = *sp.Sim.Seed
	}
	scale := DefaultScale
	if sp.Sim.Scale != nil {
		scale = *sp.Sim.Scale
	}
	c := &Compiled{
		Name:  sp.Name,
		Sim:   capture.DefaultConfig(seed, scale),
		Nodes: DefaultNodes,
	}
	c.Sim.Workload.Days = DefaultDays
	if sp.Sim.Days != nil {
		c.Sim.Workload.Days = *sp.Sim.Days
	}
	if sp.Sim.Nodes != nil {
		c.Nodes = *sp.Sim.Nodes
	}
	if sp.Sim.Online != nil {
		c.Online = *sp.Sim.Online
	}
	switch {
	case !(scale > 0): // NaN too
		return nil, fmt.Errorf("sim.scale: must be > 0, got %v", scale)
	case c.Sim.Workload.Days < 1:
		return nil, fmt.Errorf("sim.days: must be ≥ 1, got %d", c.Sim.Workload.Days)
	case c.Nodes < 1:
		return nil, fmt.Errorf("sim.nodes: must be ≥ 1, got %d", c.Nodes)
	}
	c.Checks = sp.Checks
	sc, err := compileScenario(sp)
	if err != nil {
		return nil, err
	}
	c.Sim.Workload.Scenario = sc
	return c, nil
}

// compileScenario lowers classes and events into the workload package's
// runtime Scenario; nil when the spec declares neither.
func compileScenario(sp *Spec) (*workload.Scenario, error) {
	if len(sp.Classes) == 0 && len(sp.Events) == 0 {
		return nil, nil
	}
	sc := &workload.Scenario{}
	for _, cs := range sp.Classes {
		sc.Classes = append(sc.Classes, workload.ClientClass{
			Name:          cs.Name,
			Share:         cs.Share,
			DurationScale: cs.DurationScale,
			QueryScale:    cs.QueryScale,
			Inject:        cs.Inject,
		})
	}
	for i, ev := range sp.Events {
		if ev.Churn == nil {
			return nil, fmt.Errorf("events[%d]: empty event", i)
		}
		sc.Churn = append(sc.Churn, workload.ChurnEvent{
			At:       ev.Churn.At,
			Fraction: ev.Churn.Fraction,
			Outage:   ev.Churn.Outage,
			Recovery: ev.Churn.Recovery,
			Surge:    ev.Churn.Surge,
		})
	}
	return sc, nil
}

// InjectSet collects every injected query string across the compiled
// scenario's classes — the membership set the polluter_share metric
// counts against.
func (c *Compiled) InjectSet() map[string]bool {
	sc := c.Sim.Workload.Scenario
	if sc == nil {
		return nil
	}
	set := map[string]bool{}
	for _, cls := range sc.Classes {
		for _, q := range cls.Inject {
			set[q] = true
		}
	}
	if len(set) == 0 {
		return nil
	}
	return set
}

// FirstChurn returns the compiled scenario's first churn event, or nil —
// the event the churn_* metrics measure.
func (c *Compiled) FirstChurn() *workload.ChurnEvent {
	sc := c.Sim.Workload.Scenario
	if sc == nil || len(sc.Churn) == 0 {
		return nil
	}
	return &sc.Churn[0]
}
