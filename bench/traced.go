package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	p2pquery "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/filter"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
)

// metricDef declares one metric: BENCHMARK.json lists the same names,
// units and directions, and bench_test.go pins the two against each other.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// perLayer is every per-layer metric a traced run reports, on every
// workload; a layer the workload's timed region never enters reports 0.
var perLayer = []metricDef{
	{"behavior.arrivals", "count", "lower"},
	{"behavior.arrival_ns", "ns", "lower"},
	{"engine.run_s", "s", "lower"},
	{"engine.sched_events", "count", "lower"},
	{"engine.sched_events_per_session", "count", "lower"},
	{"engine.sched_events_max_node_share", "share", "lower"},
	{"engine.rejected_share", "share", "lower"},
	{"engine.node_stream_s_sum", "s", "lower"},
	{"engine.node_stream_s_max", "s", "lower"},
	{"capture.event_loop_us_per_session", "us", "lower"},
	{"capture.stream_events_per_session", "count", "lower"},
	{"simtime.calendar_hold_ns_p1k", "ns", "lower"},
	{"simtime.heap_hold_ns_p1k", "ns", "lower"},
	{"simtime.calendar_hold_ns_p32k", "ns", "lower"},
	{"simtime.heap_hold_ns_p32k", "ns", "lower"},
	{"stream.merge_s", "s", "lower"},
	{"stream.merge_ns_per_event", "ns", "lower"},
	{"stream.merge_peak_pending", "count", "lower"},
	{"stream.merge_spilled", "count", "lower"},
	{"stream.online_ns_per_session", "ns", "lower"},
	{"ingest.wire_pass_s", "s", "lower"},
	{"ingest.wire_us_per_event", "us", "lower"},
	{"ingest.overhead_us_per_event", "us", "lower"},
	{"ingest.bytes_per_event", "B", "lower"},
	{"ingest.data_frames", "count", "lower"},
	{"ingest.ack_frames", "count", "lower"},
	{"ingest.encode_us_per_frame", "us", "lower"},
	{"ingest.decode_us_per_frame", "us", "lower"},
	{"ingest.ack_rtt_ms_mean", "ms", "lower"},
	{"ingest.reconnects", "count", "lower"},
	{"ingest.reordered_events", "count", "lower"},
	{"trace.read_s", "s", "lower"},
	{"trace.read_mb_per_s", "MB/s", "higher"},
	{"trace.write_s", "s", "lower"},
	{"trace.hash_s", "s", "lower"},
	{"trace.bytes_per_conn", "B", "lower"},
	{"filter.apply_s", "s", "lower"},
	{"filter.ns_per_conn", "ns", "lower"},
	{"filter.retained_share", "share", "higher"},
	{"analysis.enrich_s", "s", "lower"},
	{"analysis.figures_s", "s", "lower"},
	{"report.render_s", "s", "lower"},
	{"report.bytes", "B", "lower"},
	{"core.characterize_s", "s", "lower"},
	{"core.characterize_boot_s", "s", "lower"},
	{"core.fits_boot_s", "s", "lower"},
	{"dist.fit_lognormal_pareto_ms_n100k", "ms", "lower"},
	{"dist.ks_ms_n100k", "ms", "lower"},
	{"scenario.compile_us", "us", "lower"},
	{"obs.overhead_pct", "%", "lower"},
	{"obs.counter_inc_ns", "ns", "lower"},
	{"obs.nil_counter_inc_ns", "ns", "lower"},
	{"obs.journal_event_ns", "ns", "lower"},
	{"runtime.gc_cpu_fraction", "share", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"budget.coverage", "ratio", "higher"},
	{"failed_share", "share", "lower"},
}

// budgetLine is one stage's share of the end-to-end CPU: the staged
// replay's answer to "where did cpu_s go".
type budgetLine struct {
	Stage string  `json:"stage"`
	CPUS  float64 `json:"cpu_s"`
}

// tracer collects a traced run's spans, per-layer metrics and budget.
type tracer struct {
	rec     *recorder
	metrics map[string]float64
	budget  []budgetLine
}

func newTracer() *tracer {
	t := &tracer{rec: newRecorder(), metrics: make(map[string]float64, len(perLayer))}
	for _, d := range perLayer {
		t.metrics[d.Name] = 0
	}
	return t
}

// set records a per-layer metric; the name must be one perLayer declares.
func (t *tracer) set(name string, v float64) {
	if _, ok := t.metrics[name]; !ok {
		panic("bench: per-layer metric " + name + " is not declared in perLayer")
	}
	t.metrics[name] = v
}

func (t *tracer) addBudget(stage string, cpuS float64) {
	t.budget = append(t.budget, budgetLine{stage, cpuS})
}

// tracedResult is a traced run's whole report.
type tracedResult struct {
	Seed      uint64             `json:"seed"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	EndToEnd  measurement        `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	Budget    []budgetLine       `json:"budget"`
	SpanFile  string             `json:"span_file"`
}

// gcCPU reads the runtime's GC accounting: total GC CPU seconds and
// completed cycles.
func gcCPU() (cpuS float64, cycles uint64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

// runTraced is the traced run: one untraced end-to-end pass for the CPU
// the budget must add up to, then the workload's timed region replayed
// stage by stage under spans, then the layer probes that need no
// workload. Only calls into the layers' public functions are wrapped; no
// program file knows it is being traced.
func runTraced(w *workload, sizeName string, seed uint64) (*tracedResult, error) {
	in, err := w.setup(seed, w.sizes[sizeName])
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if in.tracePath != "" {
		defer os.Remove(in.tracePath)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	t := newTracer()
	var out *outputs
	var pr passResult
	t.rec.do("traced-run", func() {
		t.rec.do("end-to-end", func() {
			gc0, cyc0 := gcCPU()
			out, pr, err = verified(w, sizeName, in, false)
			if err != nil {
				return
			}
			gc1, cyc1 := gcCPU()
			t.set("runtime.gc_cpu_fraction", (gc1-gc0)/pr.CPUS)
			t.set("runtime.gc_cycles", float64(cyc1-cyc0))
			t.set("failed_share", float64(pr.Failed)/float64(pr.Attempted))
		})
		if err != nil {
			return
		}
		t.rec.do("stages", func() { err = w.stages(t, in) })
		if err != nil {
			return
		}
		t.rec.do("probes", func() { err = probes(t, w.name, seed, out.trace) })
	})
	if err != nil {
		return nil, err
	}
	var staged float64
	for _, b := range t.budget {
		staged += b.CPUS
	}
	t.set("budget.coverage", staged/pr.CPUS)

	res := &tracedResult{
		Seed: seed, Attempted: pr.Attempted, Failed: pr.Failed, Problems: pr.Problems,
		EndToEnd: pr.measurement, PerLayer: t.metrics, Budget: t.budget,
		SpanFile: filepath.Join(outDir, w.name+".spans.json"),
	}
	return res, t.rec.write(res.SpanFile, w.name, seed, sizeName)
}

// --- staged replays ---

// timedSink times each MergedSession call into the sink it wraps.
type timedSink struct {
	next  stream.Sink
	total time.Duration
	n     int
}

func (s *timedSink) MergedSession(c *trace.Conn, qs []trace.Query) {
	t0 := time.Now()
	s.next.MergedSession(c, qs)
	s.total += time.Since(t0)
	s.n++
}

// histMean is sum/count over every series of a wall-histogram family.
func histMean(reg *obs.Registry, family string) float64 {
	var sum, count float64
	for _, s := range reg.WallSamples() {
		switch {
		case strings.HasPrefix(s.Name, family+"_sum"):
			sum += s.Value
		case strings.HasPrefix(s.Name, family+"_count"):
			count += s.Value
		}
	}
	if count == 0 {
		return 0
	}
	return sum / count
}

// stagesSimulate replays fleet-stream or single-vantage: the whole engine
// bare and observed, three times each, then arrival generation, each vantage's event loop
// alone, the merge of the recorded streams, characterize and render.
func stagesSimulate(t *tracer, in *inputs, streaming bool) error {
	sessions := float64(in.expected)
	k := float64(in.sz.Nodes)
	rc := p2pquery.RunConfig{Sim: in.sim, Nodes: in.sz.Nodes, Stream: streaming, Online: streaming}

	// Bare and observed runs alternate, three of each, and the faster of each
	// kind is compared: a single pair would measure which of the two ran
	// first, and this machine's drift, before the observer's cost.
	var err error
	var reg *obs.Registry
	bare, observed := math.Inf(1), math.Inf(1)
	for round := 0; round < 3; round++ {
		b := t.rec.do("engine.run.bare", func() { _, err = p2pquery.Run(rc) })
		if err != nil {
			return err
		}
		reg = obs.NewRegistry() // the counts below are one run's
		orc := rc
		orc.Obs = &obs.Observer{Metrics: reg, Journal: obs.NewJournal(io.Discard)}
		o := t.rec.do("engine.run", func() { _, err = p2pquery.Run(orc) })
		if err != nil {
			return err
		}
		bare, observed = min(bare, b.seconds()), min(observed, o.seconds())
	}
	sched := reg.Value("engine_sched_events_total", 0)
	t.set("engine.run_s", observed)
	t.set("obs.overhead_pct", 100*(observed/bare-1))
	t.set("engine.sched_events", sched)
	t.set("engine.sched_events_per_session", sched/sessions)
	t.set("engine.sched_events_max_node_share", reg.Value("engine_sched_events_max_node", 0)/sched)
	t.set("engine.rejected_share", reg.Value("engine_rejected_arrivals", 0)/sessions)

	var arrivals int
	arr := t.rec.do("behavior.arrivals", func() { arrivals = countArrivals(in.sim) })
	t.set("behavior.arrivals", float64(arrivals))
	t.set("behavior.arrival_ns", arr.seconds()*1e9/float64(arrivals))
	t.addBudget("behavior: arrival generation", arr.cpuSeconds())

	var batches [][]stream.Batch
	var sum, longest, cpu float64
	t.rec.do("engine.node_streams", func() {
		batches, err = recordStreams(engineConfig(in), func(i int, run func()) {
			s := t.rec.do(fmt.Sprintf("engine.NodeStream[%d]", i), run)
			sum += s.seconds()
			longest = max(longest, s.seconds())
			cpu += s.cpuSeconds()
		})
	})
	if err != nil {
		return err
	}
	// Every NodeStream regenerates the whole arrival chain beside its own
	// event loop, on a second goroutine, so the loop's share is what is
	// left of the CPU (not the wall) after k arrival generations.
	loopCPU := cpu - k*arr.cpuSeconds()
	events := countEvents(batches)
	t.set("engine.node_stream_s_sum", sum)
	t.set("engine.node_stream_s_max", longest)
	t.set("capture.event_loop_us_per_session", loopCPU*1e6/sessions)
	t.set("capture.stream_events_per_session", float64(events)/sessions)
	t.addBudget("capture+overlay+simtime+vocab: node event loops", loopCPU)

	var sink stream.Sink
	online := &timedSink{next: stream.NewOnline(stream.OnlineConfig{})}
	if streaming {
		sink = online
	}
	var tr *trace.Trace
	var m *stream.Merger
	mg := t.rec.do("stream.merge", func() { tr, m = directMerge(batches, sink) })
	setMerge(t, mg, events, m)
	if online.n > 0 {
		t.set("stream.online_ns_per_session", float64(online.total.Nanoseconds())/float64(online.n))
	}
	t.addBudget("stream: merge and online sketches", mg.cpuSeconds())

	c, charCPU := stagesCharacterize(t, tr, false)
	t.addBudget("filter+analysis+core+dist: characterize", charCPU)
	return stageRender(t, c, 1)
}

// setMerge records the stream.merge_* metrics of one direct merge.
func setMerge(t *tracer, merge span, events int, m *stream.Merger) {
	t.set("stream.merge_s", merge.seconds())
	t.set("stream.merge_ns_per_event", merge.seconds()*1e9/float64(events))
	t.set("stream.merge_peak_pending", float64(m.PeakPending()))
	t.set("stream.merge_spilled", float64(m.Spilled()))
}

// stagesCharacterize replays the characterization layer by layer — filter,
// enrich, the 14 figure computations one after another — and then times
// the real call, without bootstrap and (boot) with it. It returns the
// characterization and the CPU of the variant the workload's timed region
// runs.
func stagesCharacterize(t *tracer, tr *trace.Trace, boot bool) (*core.Characterization, float64) {
	t.rec.do("core.layers", func() {
		var res *filter.Result
		f := t.rec.do("filter.ApplyOpts", func() { res = filter.ApplyOpts(tr, filter.Options{}) })
		t.set("filter.apply_s", f.seconds())
		t.set("filter.ns_per_conn", f.seconds()*1e9/float64(len(tr.Conns)))
		t.set("filter.retained_share", float64(res.FinalSessions)/float64(res.TotalSessions))

		var sessions []analysis.Session
		e := t.rec.do("analysis.EnrichWorkers", func() { sessions = analysis.EnrichWorkers(res, 0) })
		t.set("analysis.enrich_s", e.seconds())

		figures := []struct {
			name string
			fn   func()
		}{
			{"ComputeTable1", func() { analysis.ComputeTable1(tr) }},
			{"ComputeFigure1", func() { analysis.ComputeFigure1(tr) }},
			{"ComputeFigure2", func() { analysis.ComputeFigure2(tr) }},
			{"ComputeFigure3", func() { analysis.ComputeFigure3(sessions) }},
			{"ComputeFigure4", func() { analysis.ComputeFigure4(sessions) }},
			{"ComputeFigure5", func() { analysis.ComputeFigure5(sessions) }},
			{"ComputeFigure6", func() { analysis.ComputeFigure6(sessions) }},
			{"ComputeFigure7", func() { analysis.ComputeFigure7(sessions) }},
			{"ComputeFigure8", func() { analysis.ComputeFigure8(sessions) }},
			{"ComputeFigure9", func() { analysis.ComputeFigure9(sessions) }},
			{"ComputeFigure10", func() { analysis.ComputeFigure10(sessions, tr.Days, geo.NorthAmerica) }},
			{"ComputeFigure11", func() { _, _ = analysis.ComputeFigure11(sessions, tr.Days) }}, // fit errors on a starved class are the report's to print
			{"ComputeTable3", func() { analysis.ComputeTable3(sessions, tr.Days) }},
			{"ComputeHitRates", func() { analysis.ComputeHitRates(tr) }},
		}
		g := t.rec.do("analysis.figures", func() {
			for _, fig := range figures {
				t.rec.do("analysis."+fig.name, fig.fn)
			}
		})
		t.set("analysis.figures_s", g.seconds())
	})

	var c *core.Characterization
	plain := t.rec.do("core.CharacterizeOpts", func() { c = core.CharacterizeOpts(tr, core.Options{}) })
	t.set("core.characterize_s", plain.seconds())
	if !boot {
		return c, plain.cpuSeconds()
	}
	booted := t.rec.do("core.CharacterizeOpts+boot", func() {
		c = core.CharacterizeOpts(tr, core.Options{KSBootstrap: bootReplicates})
	})
	t.set("core.characterize_boot_s", booted.seconds())
	t.set("core.fits_boot_s", booted.seconds()-plain.seconds())
	return c, booted.cpuSeconds()
}

// stageRender times the report; passes is how often the timed region
// renders it.
func stageRender(t *tracer, c *core.Characterization, passes int) error {
	var rep bytes.Buffer
	var err error
	r := t.rec.do("report.RenderAll", func() { err = report.RenderAll(&rep, c) })
	t.set("report.render_s", r.seconds())
	t.set("report.bytes", float64(rep.Len()))
	t.addBudget("report: render", float64(passes)*r.cpuSeconds())
	return err
}

// stagesWire replays wire-replay: the timed region's passes once more,
// uninstrumented, for the budget; then one observed, byte-counted pass
// against one direct merge of the same streams for the ingest metrics.
func stagesWire(t *tracer, in *inputs) error {
	var err error
	plain := t.rec.do("ingest.wire_passes", func() {
		for p := 0; p < in.sz.Passes && err == nil; p++ {
			t.rec.do(fmt.Sprintf("ingest.wire_pass[%d]", p), func() { _, _, err = wirePass(in.batches, nil, nil) })
		}
	})
	if err != nil {
		return err
	}
	t.addBudget("ingest+stream: wire passes", plain.cpuSeconds())

	events := countEvents(in.batches)
	reg := obs.NewRegistry()
	o := &obs.Observer{Metrics: reg, Journal: obs.NewJournal(io.Discard)}
	var counts wireCounts
	var health struct{ reconnects, reordered int }
	t.rec.do("ingest.wire_pass.observed", func() {
		_, col, e := wirePass(in.batches, o, &counts)
		if err = e; e != nil {
			return
		}
		for _, ih := range col.Health().Inputs {
			health.reconnects += ih.Conns - 1
			health.reordered += ih.Reordered
		}
	})
	if err != nil {
		return err
	}
	var m *stream.Merger
	dm := t.rec.do("stream.merge", func() { _, m = directMerge(in.batches, nil) })

	// Wire time is a plain pass's, so that the observer and the byte
	// counting are not in it.
	wireS := plain.seconds() / float64(in.sz.Passes)
	ev, inputs := float64(events), int64(len(in.batches))
	t.set("ingest.wire_pass_s", wireS)
	t.set("ingest.wire_us_per_event", wireS*1e6/ev)
	t.set("ingest.overhead_us_per_event", (wireS-dm.seconds())*1e6/ev)
	t.set("ingest.bytes_per_event", float64(counts.emitBytes.Load()+counts.ackBytes.Load())/ev)
	// One hello and one welcome per connection are not data or acks.
	t.set("ingest.data_frames", float64(counts.emitWrites.Load()-inputs))
	t.set("ingest.ack_frames", float64(counts.ackWrites.Load()-inputs))
	t.set("ingest.encode_us_per_frame", histMean(reg, "ingest_frame_encode_seconds")*1e6)
	t.set("ingest.decode_us_per_frame", histMean(reg, "ingest_frame_decode_seconds")*1e6)
	t.set("ingest.ack_rtt_ms_mean", histMean(reg, "ingest_ack_rtt_seconds")*1e3)
	t.set("ingest.reconnects", float64(health.reconnects))
	t.set("ingest.reordered_events", float64(health.reordered))
	setMerge(t, dm, events, m)
	return nil
}

// stagesReanalyze replays reanalyze-boot: read, characterize, render.
func stagesReanalyze(t *tracer, in *inputs) error {
	passes := float64(in.sz.Passes)
	tr, err := stageRead(t, in.tracePath)
	if err != nil {
		return err
	}
	t.addBudget("trace: read", passes*t.rec.byName("trace.ReadFile").cpuSeconds())
	c, charCPU := stagesCharacterize(t, tr, true)
	t.addBudget("filter+analysis+core+dist: characterize with bootstrap", passes*charCPU)
	return stageRender(t, c, in.sz.Passes)
}

func stageRead(t *tracer, path string) (*trace.Trace, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	var tr *trace.Trace
	r := t.rec.do("trace.ReadFile", func() { tr, err = trace.ReadFile(path) })
	t.set("trace.read_s", r.seconds())
	t.set("trace.read_mb_per_s", float64(info.Size())/1e6/r.seconds())
	return tr, err
}

// --- layer probes: the same on every workload ---

type nopEvent struct{}

func (nopEvent) Fire(simtime.Time) {}

// holdNS is the classic hold model: at a steady pending population, fire
// the earliest event and schedule a replacement an exponential step later.
func holdNS(s simtime.Scheduler, pending int, rng *rand.Rand) float64 {
	const ops = 100_000
	mean := float64(30 * time.Second) // the capture workload's spacing: tens of seconds between a connection's events
	for i := 0; i < pending; i++ {
		s.Schedule(simtime.Time(rng.ExpFloat64()*mean), nopEvent{})
	}
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		s.Step()
		s.Schedule(s.Now()+simtime.Time(rng.ExpFloat64()*mean), nopEvent{})
	}
	return float64(time.Since(t0).Nanoseconds()) / ops
}

// perOpNS times n calls of fn.
func perOpNS(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func probes(t *tracer, workload string, seed uint64, tr *trace.Trace) error {
	// trace: write, read back (unless the staged replay already read), hash.
	path := filepath.Join(outDir, workload+".probe.trace")
	defer os.Remove(path)
	var err error
	wr := t.rec.do("trace.WriteFile", func() { err = tr.WriteFile(path) })
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	t.set("trace.write_s", wr.seconds())
	t.set("trace.bytes_per_conn", float64(info.Size())/float64(len(tr.Conns)))
	if t.rec.byName("trace.ReadFile").Name == "" {
		if _, err := stageRead(t, path); err != nil {
			return err
		}
	}
	h := t.rec.do("trace.Hash", func() { _, err = tr.Hash() })
	if err != nil {
		return err
	}
	t.set("trace.hash_s", h.seconds())

	// simtime: both schedulers under the hold model, at the pending
	// population of a busy node (1 k) and far beyond it (32 k).
	rng := rand.New(rand.NewPCG(seed, 0x51371e))
	for _, p := range []struct {
		metric  string
		sched   func() simtime.Scheduler
		pending int
	}{
		{"simtime.calendar_hold_ns_p1k", func() simtime.Scheduler { return simtime.NewCalendarScheduler() }, 1 << 10},
		{"simtime.heap_hold_ns_p1k", func() simtime.Scheduler { return simtime.NewScheduler() }, 1 << 10},
		{"simtime.calendar_hold_ns_p32k", func() simtime.Scheduler { return simtime.NewCalendarScheduler() }, 1 << 15},
		{"simtime.heap_hold_ns_p32k", func() simtime.Scheduler { return simtime.NewScheduler() }, 1 << 15},
	} {
		t.rec.do(p.metric, func() { t.set(p.metric, holdNS(p.sched(), p.pending, rng)) })
	}

	// dist: one body/tail fit and one KS distance at n = 100 k, on a
	// lognormal(µ=4, σ=1.5) sample, the shape of the paper's durations.
	xs := make([]float64, 100_000)
	for i := range xs {
		xs[i] = math.Exp(4 + 1.5*rng.NormFloat64())
	}
	var fit dist.BodyTailFit
	f := t.rec.do("dist.FitLognormalPareto", func() { fit, err = dist.FitLognormalPareto(xs, 1, 300) })
	if err != nil {
		return err
	}
	t.set("dist.fit_lognormal_pareto_ms_n100k", f.seconds()*1e3)
	ks := t.rec.do("dist.KS", func() { dist.KS(xs, fit.Mixture()) })
	t.set("dist.ks_ms_n100k", ks.seconds()*1e3)

	// scenario: load and compile the four committed specs.
	specs, err := filepath.Glob(filepath.Join("..", "scenarios", "*.yaml"))
	if err != nil || len(specs) == 0 {
		return fmt.Errorf("no scenario specs under ../scenarios (%v)", err)
	}
	sc := t.rec.do("scenario.Load+Compile", func() {
		for _, path := range specs {
			var sp *scenario.Spec
			if sp, err = scenario.Load(path); err == nil {
				_, err = scenario.Compile(sp)
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", path, err)
				return
			}
		}
	})
	if err != nil {
		return err
	}
	t.set("scenario.compile_us", sc.seconds()*1e6)

	// obs: a live counter, the nil handle an unobserved run pays, and one
	// journal line.
	t.rec.do("obs.handles", func() {
		live := obs.NewRegistry().Counter("bench_probe_total", "probe")
		var none *obs.Counter
		journal := obs.NewJournal(io.Discard)
		t.set("obs.counter_inc_ns", perOpNS(1_000_000, live.Inc))
		t.set("obs.nil_counter_inc_ns", perOpNS(1_000_000, none.Inc))
		t.set("obs.journal_event_ns", perOpNS(20_000, func() { journal.Event("probe", obs.A("k", 1)) }))
	})
	return nil
}
