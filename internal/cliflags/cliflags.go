// Package cliflags is the one definition of the run-shape flag block
// (-seed -scale -days -nodes -online) plus the declarative pair (-spec
// -preset) that analyze, vantage and workloadgen bind, and the one
// implementation of their precedence:
//
//	binary defaults  <  -spec file  <  -preset  <  explicitly set flag
//
// Bind registers the flags on a FlagSet with the binary's historical
// defaults; after flag.Parse, Resolve folds spec, preset and explicitly
// set flags into one scenario.Compiled. A run with neither -spec nor
// -preset resolves to exactly the flag values — byte-identical behavior
// to the pre-spec binaries. Flag values meet the spec's range checks
// (scenario.Compile), so -days 0 is an error, not a different run.
package cliflags

import (
	"flag"

	"repro/internal/scenario"
)

// Defaults carries a binary's historical flag defaults.
type Defaults struct {
	Seed  uint64
	Scale float64
	Days  int
	Nodes int
}

// Flags holds the bound flag values; read them only after flag.Parse.
type Flags struct {
	Spec   string
	Preset string
	Seed   uint64
	Scale  float64
	Days   int
	Nodes  int
	Online bool

	fs *flag.FlagSet
	d  Defaults
}

// Bind registers the shared simulation flag block on fs with the given
// defaults and returns the value holder for Resolve.
func Bind(fs *flag.FlagSet, d Defaults) *Flags {
	f := &Flags{fs: fs, d: d}
	fs.StringVar(&f.Spec, "spec", "", "YAML experiment spec (see internal/scenario); explicit flags override it")
	fs.StringVar(&f.Preset, "preset", "", "built-in experiment preset (paper40d, laptop, tenweek); overrides -spec, explicit flags override it")
	fs.Uint64Var(&f.Seed, "seed", d.Seed, "simulation seed (same seed ⇒ identical trace)")
	fs.Float64Var(&f.Scale, "scale", d.Scale, "fraction of the paper's arrival volume; 1.0 = full scale")
	fs.IntVar(&f.Days, "days", d.Days, "measurement period in days; the paper measured 40")
	fs.IntVar(&f.Nodes, "nodes", d.Nodes, "ultrapeer vantage points; >1 shards arrivals across a measurement fleet")
	fs.BoolVar(&f.Online, "online", false, "attach the online sketch layer and print its characterization before the report; the trace is identical either way")
	return f
}

// Resolve folds defaults, spec file, preset and explicitly set flags —
// in that precedence order — into one compiled run configuration.
func (f *Flags) Resolve() (*scenario.Compiled, error) {
	merged := f.defaultsSpec()
	if f.Spec != "" {
		sp, err := scenario.Load(f.Spec)
		if err != nil {
			return nil, err
		}
		merged = scenario.Merge(merged, sp)
	}
	if f.Preset != "" {
		sp, err := scenario.Preset(f.Preset)
		if err != nil {
			return nil, err
		}
		merged = scenario.Merge(merged, sp)
	}
	merged = scenario.Merge(merged, f.explicitSpec())
	return scenario.Compile(merged)
}

// Declarative reports whether the invocation named a spec or preset —
// what -simulate-style mode switches key off.
func (f *Flags) Declarative() bool { return f.Spec != "" || f.Preset != "" }

// defaultsSpec pins every Sim field to the binary's registered default,
// so a flag the user did not set still means what it always meant.
func (f *Flags) defaultsSpec() *scenario.Spec {
	d := f.d
	return &scenario.Spec{
		Version: scenario.SchemaVersion,
		Sim: scenario.SimSpec{
			Seed:  &d.Seed,
			Scale: &d.Scale,
			Days:  &d.Days,
			Nodes: &d.Nodes,
		},
	}
}

// explicitSpec lifts exactly the flags the user set on the command line
// into a spec overlay — the top of the precedence order.
func (f *Flags) explicitSpec() *scenario.Spec {
	sp := &scenario.Spec{Version: scenario.SchemaVersion}
	f.fs.Visit(func(fl *flag.Flag) {
		switch fl.Name {
		case "seed":
			v := f.Seed
			sp.Sim.Seed = &v
		case "scale":
			v := f.Scale
			sp.Sim.Scale = &v
		case "days":
			v := f.Days
			sp.Sim.Days = &v
		case "nodes":
			v := f.Nodes
			sp.Sim.Nodes = &v
		case "online":
			v := f.Online
			sp.Sim.Online = &v
		}
	})
	return sp
}
