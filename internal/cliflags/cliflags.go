// Package cliflags is the one definition of the simulation flag block
// every binary used to duplicate (-seed -scale -days -nodes -stream
// -memlimit) plus the declarative pair (-spec -preset), and the one
// implementation of their precedence:
//
//	binary defaults  <  -spec file  <  -preset  <  explicitly set flag
//
// Bind registers the flags on a FlagSet with the binary's historical
// defaults; after flag.Parse, Resolve folds spec, preset and explicitly
// set flags into one scenario.Compiled. A run with neither -spec nor
// -preset resolves to exactly the flag values — byte-identical behavior
// to the pre-spec binaries.
package cliflags

import (
	"flag"
	"os"
	"runtime/debug"

	"repro/internal/scenario"
)

// Defaults carries a binary's historical flag defaults.
type Defaults struct {
	Seed     uint64
	Scale    float64
	Days     int
	Nodes    int
	Stream   bool
	MemLimit int64
}

// Flags holds the bound flag values; read them only after flag.Parse.
type Flags struct {
	Spec     string
	Preset   string
	Seed     uint64
	Scale    float64
	Days     int
	Nodes    int
	Stream   bool
	MemLimit int64

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
	fs.BoolVar(&f.Stream, "stream", d.Stream, "print the online sketch characterization and apply the auto memory limit; the trace is identical either way")
	fs.Int64Var(&f.MemLimit, "memlimit", d.MemLimit, "soft Go memory limit in bytes (-1 = auto: 2 GiB in stream mode; 0 = runtime default)")
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
			Seed:     &d.Seed,
			Scale:    &d.Scale,
			Days:     &d.Days,
			Nodes:    &d.Nodes,
			Stream:   &d.Stream,
			MemLimit: &d.MemLimit,
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
		case "stream":
			v := f.Stream
			sp.Sim.Stream = &v
		case "memlimit":
			v := f.MemLimit
			sp.Sim.MemLimit = &v
		}
	})
	return sp
}

// ApplyMemLimit enforces the resolved soft memory limit (moved here from
// cmd/analyze): positive sets it, -1 auto-sets 2 GiB in stream mode
// unless GOMEMLIMIT is already set, 0 leaves the runtime default. The
// engine's live state is bounded by design; the limit stops
// the collector's 2x headroom from inflating peak RSS over it. It never
// OOMs — a too-low soft limit degrades to extra GC.
func ApplyMemLimit(limit int64, stream bool) {
	switch {
	case limit > 0:
		debug.SetMemoryLimit(limit)
	case limit < 0 && stream && os.Getenv("GOMEMLIMIT") == "":
		// 2 GiB holds the paper-scale streaming run (live peak ≈ 1.9 GB)
		// with ≈250 MB of GC headroom; see cmd/analyze's docs.
		debug.SetMemoryLimit(2 << 30)
	}
}
