package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	p2pquery "repro"
	"repro/internal/behavior"
	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
)

// outDir is where a run leaves its files, relative to the benchmark's
// directory (the working directory under `go run -C bench .`).
const outDir = "out"

// size fixes one workload's input volume.
type size struct {
	Scale float64 `json:"scale"`
	Days  int     `json:"days"`
	Nodes int     `json:"nodes"`
	// Passes is how often the timed region repeats its body; the two
	// replay workloads sum several short passes because one pass alone
	// does not repeat (0.69–1.25 s pass to pass on the wire at the issue's
	// size).
	Passes int `json:"passes"`
}

// inputs is what set-up hands the timed region: configurations and
// recorded data generated from the seed, plus what the checks compare
// the outputs against.
type inputs struct {
	seed uint64
	sz   size
	sim  capture.Config
	// expected is how many sessions the timed region's output must hold.
	expected int
	// items is how many input items the timed region consumes, which the
	// allocation metrics are divided by: arrivals for the two simulations,
	// recorded stream events for wire-replay, trace records (sessions and
	// queries) for reanalyze-boot. Sessions would not do for the replays:
	// their allocations follow the queries, and queries per session differ
	// from 1.2 to 1.9 between seeds at these sizes.
	items int
	// batches is each vantage's recorded event stream and directHash the
	// hash of their in-process merge (wire-replay).
	batches    [][]stream.Batch
	directHash [32]byte
	// tracePath is the trace file the timed region reads (reanalyze-boot).
	tracePath string
}

// outputs is what the timed region produced, kept for the checks that
// run after the clock stops.
type outputs struct {
	// sessions counts the sessions present in the output, lost those the
	// program itself reported missing (LostSessions).
	sessions int
	lost     uint64
	// problems lists broken invariants; any entry fails the whole pass.
	problems []string
	// trace and report are the first pass's, which golden.json pins.
	trace  *trace.Trace
	report []byte
}

// workload is one closed-loop batch job: set-up, a timed region, checks,
// and the staged replay of that region for the traced run.
type workload struct {
	name  string
	sizes map[string]size
	setup func(seed uint64, sz size) (*inputs, error)
	// timed is the timed region; it may pause m for a check too costly
	// to time that it cannot put off to the end.
	timed func(in *inputs, m *meter) (*outputs, error)
	// stages replays the timed region one layer at a time under spans.
	stages func(t *tracer, in *inputs) error
}

// smoke is what bench_test.go runs, std what the command and BENCHMARK.json
// measure: the issue's workloads cut in days and passes until a timed
// region takes 2-4 s here, so that a run's five cold passes, set-up,
// probes and checks included, fit the driver's budget of about 35 s a run.
// BENCHMARK.json and README.md say why each workload is here.
const (
	smokeSize = "smoke"
	stdSize   = "std"
)

var workloads = []*workload{
	{
		name: "fleet-stream",
		sizes: map[string]size{
			smokeSize: {Scale: 0.02, Days: 1, Nodes: 8, Passes: 1},
			stdSize:   {Scale: 0.25, Days: 3, Nodes: 8, Passes: 1},
		},
		setup: setupSimulate,
		timed: func(in *inputs, _ *meter) (*outputs, error) {
			return timedSimulate(p2pquery.RunConfig{Sim: in.sim, Nodes: in.sz.Nodes, Stream: true, Online: true})
		},
		stages: func(t *tracer, in *inputs) error { return stagesSimulate(t, in, true) },
	},
	{
		name: "single-vantage",
		sizes: map[string]size{
			smokeSize: {Scale: 0.02, Days: 1, Nodes: 1, Passes: 1},
			stdSize:   {Scale: 1.0, Days: 3, Nodes: 1, Passes: 1},
		},
		setup: setupSimulate,
		timed: func(in *inputs, _ *meter) (*outputs, error) {
			return timedSimulate(p2pquery.RunConfig{Sim: in.sim, Nodes: in.sz.Nodes})
		},
		stages: func(t *tracer, in *inputs) error { return stagesSimulate(t, in, false) },
	},
	{
		name: "wire-replay",
		sizes: map[string]size{
			smokeSize: {Scale: 0.02, Days: 1, Nodes: 2, Passes: 2},
			stdSize:   {Scale: 0.04, Days: 3, Nodes: 2, Passes: 12},
		},
		setup:  setupWire,
		timed:  timedWire,
		stages: stagesWire,
	},
	{
		name: "reanalyze-boot",
		sizes: map[string]size{
			smokeSize: {Scale: 0.02, Days: 1, Nodes: 8, Passes: 2},
			stdSize:   {Scale: 0.25, Days: 2, Nodes: 8, Passes: 3},
		},
		setup:  setupReanalyze,
		timed:  timedReanalyze,
		stages: stagesReanalyze,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func simConfig(seed uint64, sz size) capture.Config {
	cfg := p2pquery.DefaultSimulation(seed, sz.Scale)
	cfg.Workload.Days = sz.Days
	return cfg
}

func engineConfig(in *inputs) engine.Config {
	return engine.Config{Fleet: capture.FleetConfig{Node: in.sim, Nodes: in.sz.Nodes}}
}

// countArrivals runs the arrival process to exhaustion. It is how set-up
// learns, independently of the engine, how many sessions the seed holds.
func countArrivals(cfg capture.Config) int {
	gen := behavior.NewGenerator(cfg.Workload)
	n := 0
	for gen.Next() != nil {
		n++
	}
	return n
}

// --- fleet-stream and single-vantage ---

func setupSimulate(seed uint64, sz size) (*inputs, error) {
	in := &inputs{seed: seed, sz: sz, sim: simConfig(seed, sz)}
	in.expected = countArrivals(in.sim)
	in.items = in.expected
	return in, nil
}

func timedSimulate(rc p2pquery.RunConfig) (*outputs, error) {
	res, err := p2pquery.Run(rc)
	if err != nil {
		return nil, err
	}
	c := p2pquery.Characterize(res.Trace)
	var rep bytes.Buffer
	if err := p2pquery.WriteReport(&rep, c); err != nil {
		return nil, err
	}
	out := &outputs{
		sessions: len(res.Trace.Conns) + int(res.Stats.Rejected),
		lost:     res.LostSessions,
		trace:    res.Trace,
		report:   rep.Bytes(),
	}
	if res.Stats.Arrivals != uint64(out.sessions) {
		out.problems = append(out.problems, fmt.Sprintf("Arrivals %d != conns + rejected %d", res.Stats.Arrivals, out.sessions))
	}
	if res.DeadInputs != 0 {
		out.problems = append(out.problems, fmt.Sprintf("DeadInputs %d, want 0", res.DeadInputs))
	}
	return out, nil
}

// --- wire-replay ---

// recordStreams runs each vantage of the fleet alone, one at a time, and
// keeps the batches it emits. around is handed each vantage's run to
// call, so the traced run can put a span about it.
func recordStreams(cfg engine.Config, around func(i int, run func())) ([][]stream.Batch, error) {
	out := make([][]stream.Batch, cfg.Fleet.Nodes)
	for i := range out {
		var err error
		run := func() {
			ch := make(chan stream.Batch)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for b := range ch {
					out[i] = append(out[i], b)
				}
			}()
			_, err = engine.NodeStream(cfg, i, stream.NewProducer(i, ch))
			close(ch)
			<-done
		}
		around(i, run)
		if err != nil {
			return nil, fmt.Errorf("record vantage %d: %w", i, err)
		}
	}
	return out, nil
}

// feed sends one recorded stream into an intake channel.
func feed(ch chan<- stream.Batch, batches []stream.Batch) {
	for _, b := range batches {
		ch <- b
	}
}

// directMerge replays recorded streams through an in-process merger, one
// feeder goroutine per input: the wire's reference and the merge stage of
// the staged replay.
func directMerge(batches [][]stream.Batch, sink stream.Sink) (*trace.Trace, *stream.Merger) {
	m := stream.NewMerger(len(batches), sink)
	m.SetWindow(engine.DefaultMergeWindow)
	var wg sync.WaitGroup
	for _, bs := range batches {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed(m.Intake(), bs)
		}()
	}
	tr := m.Run()
	wg.Wait()
	return tr, m
}

func countEvents(batches [][]stream.Batch) int {
	events := 0
	for _, bs := range batches {
		for _, b := range bs {
			events += len(b.Events)
		}
	}
	return events
}

func setupWire(seed uint64, sz size) (*inputs, error) {
	in := &inputs{seed: seed, sz: sz, sim: simConfig(seed, sz)}
	var err error
	if in.batches, err = recordStreams(engineConfig(in), func(_ int, run func()) { run() }); err != nil {
		return nil, err
	}
	tr, _ := directMerge(in.batches, nil)
	if in.directHash, err = tr.Hash(); err != nil {
		return nil, err
	}
	// The merge drops a session two vantages both recorded, so the
	// reference merge, not the raw EvClose count, says what to expect.
	in.expected = sz.Passes * len(tr.Conns)
	in.items = sz.Passes * countEvents(in.batches)
	return in, nil
}

// wireCounts tallies bytes and Write calls on each side of the wire; the
// protocol writes one frame per Write.
type wireCounts struct {
	emitBytes, emitWrites atomic.Int64 // emitter → collector: hello, data
	ackBytes, ackWrites   atomic.Int64 // collector → emitter: welcome, acks
}

type countingConn struct {
	net.Conn
	bytes, writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	c.writes.Add(1)
	return n, err
}

type countingListener struct {
	net.Listener
	c *wireCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, &l.c.ackBytes, &l.c.ackWrites}, nil
}

// wirePass drains the recorded streams through a fresh collector fed by
// one emitter per input over loopback TCP. o and counts are nil on timed
// passes.
func wirePass(batches [][]stream.Batch, o *obs.Observer, counts *wireCounts) (*trace.Trace, *ingest.Collector, error) {
	ccfg := ingest.CollectorConfig{Inputs: len(batches), Window: engine.DefaultMergeWindow, Obs: o}
	if counts != nil {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		ccfg.Listener = countingListener{ln, counts}
	}
	col, err := ingest.NewCollector(ccfg)
	if err != nil {
		if ccfg.Listener != nil {
			ccfg.Listener.Close()
		}
		return nil, nil, err
	}
	errs := make([]error, len(batches))
	emitters := make([]*ingest.Emitter, len(batches))
	var wg sync.WaitGroup
	for i, bs := range batches {
		ecfg := ingest.EmitterConfig{Addr: col.Addr(), Input: i, Obs: o}
		if counts != nil {
			ecfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", addr, timeout)
				if err != nil {
					return nil, err
				}
				return countingConn{conn, &counts.emitBytes, &counts.emitWrites}, nil
			}
		}
		em := ingest.NewEmitter(ecfg)
		emitters[i] = em
		wg.Add(2)
		go func() {
			defer wg.Done()
			errs[i] = em.Run()
		}()
		go func() {
			defer wg.Done()
			feed(em.Intake(), bs)
			close(em.Intake())
		}()
	}
	tr, err := col.Run()
	// The pass is over once the collector has drained every input. Its
	// shutdown can close a connection before the last ack is written, and
	// the emitter would then spend its retry budget dialing a listener
	// that is gone; an emitter that failed earlier still reports below,
	// and one that never delivered shows as a dead input.
	for _, em := range emitters {
		em.Stop()
	}
	wg.Wait()
	if err != nil {
		return nil, nil, fmt.Errorf("collector: %w", err)
	}
	for i, e := range errs {
		if e != nil {
			return nil, nil, fmt.Errorf("emitter %d: %w", i, e)
		}
	}
	return tr, col, nil
}

// timedWire hashes each pass's trace off the clock and lets it go before
// the next pass, so that peak RSS is one pass's and not the traces of all
// of them; only the first is kept, for golden.json.
func timedWire(in *inputs, m *meter) (*outputs, error) {
	out := &outputs{}
	for p := 0; p < in.sz.Passes; p++ {
		tr, col, err := wirePass(in.batches, nil, nil)
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		m.pause()
		out.sessions += len(tr.Conns)
		out.lost += col.LostSessions()
		if col.DeadInputs() != 0 {
			out.problems = append(out.problems, fmt.Sprintf("pass %d: DeadInputs %d, want 0", p, col.DeadInputs()))
		}
		if h, err := tr.Hash(); err != nil || h != in.directHash {
			out.problems = append(out.problems, fmt.Sprintf("pass %d: wire trace hash != direct-merge hash (%v)", p, err))
		}
		if p == 0 {
			out.trace = tr
		}
		m.resume()
	}
	return out, nil
}

// --- reanalyze-boot ---

// bootReplicates is the issue's KSBootstrap setting for this workload.
const bootReplicates = 99

func setupReanalyze(seed uint64, sz size) (*inputs, error) {
	in := &inputs{seed: seed, sz: sz, sim: simConfig(seed, sz)}
	res, err := p2pquery.Run(p2pquery.RunConfig{Sim: in.sim, Nodes: sz.Nodes, Stream: true})
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	in.tracePath = filepath.Join(outDir, fmt.Sprintf("reanalyze-%d.trace", seed))
	if err := res.Trace.WriteFile(in.tracePath); err != nil {
		return nil, err
	}
	in.expected = sz.Passes * len(res.Trace.Conns)
	in.items = sz.Passes * (len(res.Trace.Conns) + len(res.Trace.Queries))
	return in, nil
}

func timedReanalyze(in *inputs, _ *meter) (*outputs, error) {
	out := &outputs{}
	for p := 0; p < in.sz.Passes; p++ {
		tr, err := p2pquery.ReadTrace(in.tracePath)
		if err != nil {
			return nil, err
		}
		c := p2pquery.CharacterizeWithOptions(tr, p2pquery.CharacterizeOptions{KSBootstrap: bootReplicates})
		var rep bytes.Buffer
		if err := p2pquery.WriteReport(&rep, c); err != nil {
			return nil, err
		}
		out.sessions += int(c.Table2.TotalSessions)
		if p == 0 {
			out.trace, out.report = tr, rep.Bytes()
		} else if !bytes.Equal(rep.Bytes(), out.report) {
			out.problems = append(out.problems, fmt.Sprintf("pass %d: report differs from pass 0", p))
		}
	}
	return out, nil
}
