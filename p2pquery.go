package p2pquery

import (
	"errors"
	"io"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Trace is a recorded measurement run; see internal/trace for the record
// layout.
type Trace = trace.Trace

// Characterization is the complete analysis of a trace: every table and
// figure of the paper plus the fitted appendix models.
type Characterization = core.Characterization

// Region identifies a coarse geographic region.
type Region = geo.Region

// The regions the paper characterizes.
const (
	NorthAmerica = geo.NorthAmerica
	Europe       = geo.Europe
	Asia         = geo.Asia
)

// SimulationConfig parameterizes a measurement simulation.
type SimulationConfig = capture.Config

// DefaultSimulation returns the paper-calibrated simulation configuration
// at the given seed and scale (1.0 ≈ the paper's 4.36 M connections over
// 40 days; 0.02–0.05 is comfortable on a laptop).
func DefaultSimulation(seed uint64, scale float64) SimulationConfig {
	return capture.DefaultConfig(seed, scale)
}

// Simulate runs the single-vantage measurement simulation and returns
// the trace: Run(RunConfig{Sim: cfg}). It panics on a configuration Run
// rejects (no connection cap, scale ≤ 0 or days < 1).
func Simulate(cfg SimulationConfig) *Trace {
	res, err := Run(RunConfig{Sim: cfg})
	if err != nil {
		panic(err)
	}
	return res.Trace
}

// FleetStats aggregates a fleet run's arrival accounting and per-node
// peaks; see capture.FleetStats.
type FleetStats = capture.FleetStats

// OnlineMetrics is a snapshot of the streaming characterization layer:
// sketch-based top-K keyword ranking, duration/interarrival quantiles and
// sliding-window rates; see internal/stream for the accuracy contracts.
type OnlineMetrics = stream.Snapshot

// RunConfig is the one description of a fleet simulation run: the
// vantage-node configuration plus every knob that shapes how the fleet
// executes; the zero value of each knob means the engine default.
type RunConfig struct {
	// Sim is the per-vantage measurement configuration (required; start
	// from DefaultSimulation or a compiled scenario).
	Sim SimulationConfig
	// Nodes is the vantage fleet size (0 = 1, the paper's single node).
	Nodes int
	// Stream is ignored: every run is the bounded-memory stream (bounded
	// producer, per-node emission, online k-way merge) drained into a
	// trace.
	//
	// Deprecated: the engine has one execution path; leave Stream unset.
	Stream bool
	// Lookahead bounds the producer's in-flight sessions per node
	// (0 = engine default; the trace is byte-identical for every value).
	Lookahead int
	// MergeWindow bounds the streaming merge's emission barrier
	// (0 = engine default; see engine.Config.MergeWindow).
	MergeWindow time.Duration
	// Online attaches the sketch-based online characterization layer to
	// the merged stream.
	Online bool
	// OnlineTopK sizes the online snapshot's keyword ranking (0 = 10).
	OnlineTopK int
	// Obs attaches the observability layer (internal/obs): phase spans on
	// its journal, engine/merge metrics on its registry. nil runs
	// uninstrumented at effectively zero cost; instrumentation never
	// perturbs the trace (byte-identical either way).
	Obs *obs.Observer
}

// Result is everything a fleet run produces: the merged trace, arrival
// accounting, the engine's perf counters, and — when requested — the
// online characterization snapshot.
type Result struct {
	// Trace is the merged full-volume trace.
	Trace *Trace
	// Stats is the fleet's arrival accounting and per-node peaks.
	Stats FleetStats
	// Online is the streaming characterization snapshot; nil unless
	// RunConfig.Online was set.
	Online *OnlineMetrics
	// PeakPending and SpilledSessions are the k-way merge's high-water
	// mark and emission-window outlier count.
	PeakPending     int
	SpilledSessions int
	// DeadInputs and LostSessions are the merge's degradation ledger
	// (always 0 in-process; meaningful under the distributed collector).
	DeadInputs   int
	LostSessions uint64
	// ScheduledPerNode is the engine's per-node scheduled-event counts.
	ScheduledPerNode []uint64
}

// Run executes a fleet simulation described by cfg: the engine's one
// pipeline, drained into the merged trace, with the online sketch layer
// riding the merge when requested. The merged trace is byte-identical
// for every knob but Sim and Nodes — the engine's determinism contract
// (see internal/engine).
func Run(cfg RunConfig) (*Result, error) {
	switch {
	case cfg.Sim.MaxConns < 1:
		return nil, errors.New("p2pquery.Run: Sim.MaxConns < 1; build Sim with DefaultSimulation or LoadScenario")
	case !(cfg.Sim.Workload.Scale > 0):
		return nil, errors.New("p2pquery.Run: Sim.Workload.Scale ≤ 0")
	case cfg.Sim.Workload.Days < 1:
		return nil, errors.New("p2pquery.Run: Sim.Workload.Days < 1")
	}
	if cfg.Lookahead < 0 {
		return nil, errors.New("p2pquery.Run: negative Lookahead")
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = 1
	}
	if nodes < 0 {
		return nil, errors.New("p2pquery.Run: negative Nodes")
	}
	eng := engine.New(engine.Config{
		Fleet:       capture.FleetConfig{Node: cfg.Sim, Nodes: nodes},
		Lookahead:   cfg.Lookahead,
		MergeWindow: cfg.MergeWindow,
		Obs:         cfg.Obs,
	})
	res := &Result{}
	var online *stream.Online
	var sink stream.Sink
	if cfg.Online {
		online = stream.NewOnline(stream.OnlineConfig{})
		online.Register(cfg.Obs.Reg())
		sink = online
	}
	res.Trace = eng.Run(sink)
	if online != nil {
		k := cfg.OnlineTopK
		if k == 0 {
			k = 10
		}
		snap := online.Snapshot(k)
		res.Online = &snap
	}
	res.Stats = eng.Stats()
	res.PeakPending = eng.PeakPending()
	res.SpilledSessions = eng.SpilledSessions()
	res.DeadInputs = eng.DeadInputs()
	res.LostSessions = eng.LostSessions()
	res.ScheduledPerNode = eng.ScheduledPerNode()
	return res, nil
}

// Scenario is a compiled declarative experiment: the YAML spec subsystem's
// runtime form (see internal/scenario for the schema reference).
type Scenario = scenario.Compiled

// ScenarioCheck is one evaluated headline-metric assertion.
type ScenarioCheck = scenario.CheckResult

// LoadScenario reads, parses and compiles a YAML experiment spec.
func LoadScenario(path string) (*Scenario, error) {
	sp, err := scenario.Load(path)
	if err != nil {
		return nil, err
	}
	return scenario.Compile(sp)
}

// ScenarioPreset compiles a built-in preset (paper40d, laptop, tenweek).
func ScenarioPreset(name string) (*Scenario, error) {
	sp, err := scenario.Preset(name)
	if err != nil {
		return nil, err
	}
	return scenario.Compile(sp)
}

// RunScenario executes a compiled scenario through Run.
func RunScenario(c *Scenario) (*Result, error) {
	return Run(RunConfig{Sim: c.Sim, Nodes: c.Nodes, Online: c.Online})
}

// EvaluateScenario measures the scenario's headline metrics on a trace
// and applies its checks, returning every result and whether all passed.
func EvaluateScenario(tr *Trace, c *Scenario) ([]ScenarioCheck, bool) {
	return scenario.EvaluateChecks(tr, c)
}

// Characterize applies the filter pipeline, all analyses and the appendix
// fits to a trace, parallelized across the machine's cores.
func Characterize(tr *Trace) *Characterization {
	return core.Characterize(tr)
}

// CharacterizeOptions tunes the pipeline's execution; see core.Options.
type CharacterizeOptions = core.Options

// CharacterizeWithOptions is Characterize with an explicit worker-pool
// size. Output is byte-identical for every setting of Workers.
func CharacterizeWithOptions(tr *Trace, opts CharacterizeOptions) *Characterization {
	return core.CharacterizeOpts(tr, opts)
}

// WriteReport renders the full paper-style report for a characterization.
func WriteReport(w io.Writer, c *Characterization) error {
	return report.RenderAll(w, c)
}

// ReadTrace loads a trace written by (*Trace).WriteFile.
func ReadTrace(path string) (*Trace, error) {
	return trace.ReadFile(path)
}

// WorkloadConfig parameterizes the synthetic workload generator.
type WorkloadConfig = workload.Config

// Workload is the Figure 12 synthetic session generator.
type Workload = workload.Generator

// WorkloadSession is one generated peer session.
type WorkloadSession = workload.Session

// DefaultWorkload returns the paper-scale workload configuration.
func DefaultWorkload(seed uint64, scale float64) WorkloadConfig {
	return workload.DefaultConfig(seed, scale)
}

// NewWorkload builds a synthetic workload generator.
func NewWorkload(cfg WorkloadConfig) *Workload {
	return workload.NewGenerator(cfg)
}
