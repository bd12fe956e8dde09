// Command analyze is the reproduction's one front door: it simulates the
// measurement (or reads a saved trace), characterizes the trace, and
// prints the selected sections of the paper reproduction report with the
// published values alongside.
//
// Usage:
//
//	analyze [-only SECTION] trace-file
//	analyze [-only SECTION] -simulate [-seed N] [-scale F] [-days D] [-nodes N] [-online]
//	analyze [-only SECTION] -spec FILE | -preset NAME [overriding flags]
//
// SECTION is one of: summary, table1, table2, table3, fig1..fig11, fits,
// all (default).
//
// With -simulate the trace is produced in-process by the measurement
// simulation instead of being read from a file; -scale 1.0 -days 40 is
// the paper-scale configuration (≈4.36 M connections), and
// `-simulate -scale 0.05 -days 40` the laptop-sized full report. -nodes N
// runs a fleet of N ultrapeer vantage points sharding the arrival stream
// and characterizes the merged trace — with N sized so the per-node
// 200-connection caps don't bind, the fleet records the *entire* arrival
// stream where a single node is cap-limited to ≈197 k connections.
// -scale must be > 0 and -days and -nodes ≥ 1; anything else exits 2.
//
// -o FILE writes the trace — simulated or read — in the binary format
// this command reads back, and -jsonl FILE writes its connection and
// query records as JSON lines (trace.ExportJSONL) for external tooling.
// The trace is still characterized and reported; at full scale that adds
// ≈11 s to ≈250 s of simulation.
//
// -spec FILE runs a declarative experiment spec and -preset NAME a
// built-in one (paper40d, laptop, tenweek); both imply -simulate. The
// precedence is spec < preset < explicitly set flag (internal/cliflags),
// so `-preset paper40d -scale 0.02` is the paper configuration at smoke
// scale. -checks evaluates the spec's headline-metric assertions against
// the drained trace, prints one line per check to stderr, and exits 1 if
// any fail — the scenario suite's CI gate.
//
// The simulation runs every vantage node's event loop on its own
// goroutine (internal/engine); -workers bounds the characterization
// worker pool (0 = GOMAXPROCS, 1 = sequential). -ksboot N
// replaces the Lilliefors-biased asymptotic KS p-values of the appendix
// fits with parametric-bootstrap p-values from N replicates. -perf appends
// a one-line JSON wall-clock / peak-RSS accounting to stderr — simulate
// and characterize phases separately, plus the engine's scheduling cost
// (sched_events_max_node / sched_events_total) and the k-way merge's
// high-water mark and outlier spill (merge_peak_pending /
// spilled_sessions), all read from the run's obs registry. It is the
// on-demand report of the simulate phase's peak RSS at full scale
// (`make fullscale`), which the journal leaves out by design.
//
// -journal FILE appends the run's observability journal — one JSON line
// per phase span (simulate/characterize), heartbeat and
// final metrics snapshot; see internal/obs for the schema. -heartbeat D
// (requires -journal) emits a liveness line every D while the run
// progresses. -pprof ADDR serves net/http/pprof plus the Prometheus
// metric registry on ADDR for live profiling of full-scale runs.
//
// -timeline FILE renders a journal — a single-process one, or the
// merged fleet journal a distfleet collector writes — as a
// human-readable per-lane timeline (span durations, stall/evict flags,
// gap annotations, metrics rollups) and exits:
//
//	analyze -timeline fleet.jsonl
//
// Every simulation is the bounded-memory stream: the bounded
// arrival producer feeds per-node event loops, each vantage emits
// records into the streaming k-way merge as they finalize, and the merge
// drains into the trace — no per-node trace is ever held in memory.
// -online (with -simulate) additionally attaches the online sketch layer
// (internal/stream), which prints its live characterization before the
// standard report. The trace is byte-identical either way — -tracehash
// prints its canonical SHA-256.
//
// A simulation runs under a 2 GiB soft memory limit unless GOMEMLIMIT is
// set: GOMEMLIMIT=N sets the limit to N bytes (any Go size suffix), and
// GOMEMLIMIT=off runs with none.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	p2pquery "repro"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/trace"
)

var sections = map[string]func(io.Writer, *core.Characterization) error{
	"summary": report.RenderSummary,
	"table1":  report.RenderTable1,
	"table2":  report.RenderTable2,
	"table3":  report.RenderTable3,
	"fig1":    report.RenderFigure1,
	"fig2":    report.RenderFigure2,
	"fig3":    report.RenderFigure3,
	"fig4":    report.RenderFigure4,
	"fig5":    report.RenderFigure5,
	"fig6":    report.RenderFigure6,
	"fig7":    report.RenderFigure7,
	"fig8":    report.RenderFigure8,
	"fig9":    report.RenderFigure9,
	"fig10":   report.RenderFigure10,
	"fig11":   report.RenderFigure11,
	"fits":    report.RenderFits,
	"all":     report.RenderAll,
}

func main() {
	only := flag.String("only", "all", "section to print (summary, table1..3, fig1..fig11, fits, all)")
	csvDir := flag.String("csv", "", "optional directory for CSV exports of the distribution figures")
	simulate := flag.Bool("simulate", false, "simulate the trace in-process instead of reading a file")
	sim := cliflags.Bind(flag.CommandLine, cliflags.Defaults{Seed: 2004, Scale: 0.01, Days: 4, Nodes: 1})
	out := flag.String("o", "", "write the trace (simulated or read) to this file")
	jsonl := flag.String("jsonl", "", "write the trace's connection and query records to this file as JSON lines")
	workers := flag.Int("workers", 0, "characterization worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	ksboot := flag.Int("ksboot", 0, "parametric-bootstrap replicates for the appendix-fit KS p-values (0 = asymptotic Lilliefors-biased p-values)")
	perf := flag.Bool("perf", false, "print a wall-clock/peak-RSS accounting line to stderr, simulate and characterize phases separately")
	checks := flag.Bool("checks", false, "with -spec/-preset: evaluate the spec's headline-metric checks and exit 1 on any failure")
	traceHash := flag.Bool("tracehash", false, "print the trace's canonical SHA-256 to stderr (comparable across runs, node processes and -online)")
	journalPath := flag.String("journal", "", "write the run's observability journal (JSON lines; see internal/obs) to this file")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and the Prometheus metric registry on this address")
	heartbeat := flag.Duration("heartbeat", 0, "emit a journal heartbeat line at this interval (requires -journal)")
	timeline := flag.String("timeline", "", "render a journal (single-process or merged fleet) as a per-lane timeline and exit")
	flag.Parse()
	if *timeline != "" {
		f, err := os.Open(*timeline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening journal: %v\n", err)
			os.Exit(2)
		}
		err = obs.WriteTimeline(os.Stdout, f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "rendering timeline: %v\n", err)
			os.Exit(1)
		}
		return
	}
	render, ok := sections[*only]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown section %q\n", *only)
		os.Exit(2)
	}

	// A spec or preset describes a simulation, so naming one implies
	// -simulate.
	doSim := *simulate || sim.Declarative()
	if sim.Online && !doSim {
		fmt.Fprintln(os.Stderr, "-online requires -simulate (the sketch layer rides the simulation's merged stream)")
		os.Exit(2)
	}
	if *checks && !sim.Declarative() {
		fmt.Fprintln(os.Stderr, "-checks requires -spec or -preset (checks live in the spec)")
		os.Exit(2)
	}
	if *heartbeat != 0 && *journalPath == "" {
		fmt.Fprintln(os.Stderr, "-heartbeat requires -journal (heartbeats are journal lines)")
		os.Exit(2)
	}

	// The observability layer: the registry is always live (it is what
	// -perf and -pprof read), the journal only with -journal.
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)
	ob := &obs.Observer{Metrics: reg}
	var journalFile *os.File
	if *journalPath != "" {
		f, err := os.Create(*journalPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "opening journal: %v\n", err)
			os.Exit(2)
		}
		journalFile = f
		ob.Journal = obs.NewJournal(f)
	}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pprof listen: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "observability endpoint on http://%s (/metrics, /debug/pprof/)\n", ln.Addr())
		srv := &http.Server{Handler: obs.NewHTTPHandler(obs.HTTPConfig{Registry: reg, Pprof: true})}
		go func() { _ = srv.Serve(ln) }()
	}
	stopHeartbeat := obs.StartHeartbeat(ob.Journal, *heartbeat, func() []obs.Attr {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return []obs.Attr{
			obs.A("heap_live_bytes", ms.HeapAlloc),
			obs.A("peak_rss_bytes", obs.PeakRSSBytes()),
			obs.A("goroutines", runtime.NumGoroutine()),
			obs.A("arrivals", reg.Value("engine_arrivals_total", 0)),
			obs.A("merge_pending", reg.Value("merge_pending_sessions", 0)),
			obs.A("merge_barrier_s", reg.Value("merge_barrier_seconds", 0)),
		}
	})
	// flushObs ends the deterministic journal record: heartbeats stop,
	// then one final metrics snapshot. Call before every normal exit.
	flushObs := func() {
		stopHeartbeat()
		ob.SnapshotMetrics()
		if journalFile != nil {
			if err := journalFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "closing journal: %v\n", err)
			}
		}
	}

	var tr *trace.Trace
	start := time.Now()
	var simulated time.Duration
	var simulatePeakRSS, simulateHeapLive int64
	checksFailed := false
	switch {
	case doSim:
		if flag.NArg() != 0 {
			fmt.Fprintln(os.Stderr, "usage: analyze -simulate [-seed N] [-scale F] [-days D] [-nodes N] [-online] | -spec FILE | -preset NAME")
			os.Exit(2)
		}
		sc, err := sim.Resolve()
		if err != nil {
			fmt.Fprintf(os.Stderr, "resolving run configuration: %v\n", err)
			os.Exit(2)
		}
		setDefaultMemoryLimit()
		res, err := p2pquery.Run(p2pquery.RunConfig{
			Sim:    sc.Sim,
			Nodes:  sc.Nodes,
			Online: sc.Online,
			Obs:    ob,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "simulating: %v\n", err)
			os.Exit(1)
		}
		tr = res.Trace
		if res.Online != nil {
			// -online prints the online sketch characterization before
			// the standard report.
			if err := res.Online.WriteText(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "rendering online snapshot: %v\n", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stdout)
		}
		simulated = time.Since(start)
		// VmHWM is monotone, so the value right after the simulate phase is
		// that phase's own peak; the end-of-process value is the overall
		// peak, which at full volume the characterize phase sets.
		simulatePeakRSS = obs.PeakRSSBytes()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		simulateHeapLive = int64(ms.HeapAlloc)

		if *checks {
			results, ok := p2pquery.EvaluateScenario(tr, sc)
			if len(results) == 0 {
				fmt.Fprintf(os.Stderr, "checks: spec %s declares none\n", sc.Name)
			}
			scenario.RecordChecks(ob, results)
			if err := scenario.WriteChecks(os.Stderr, results); err != nil {
				fmt.Fprintf(os.Stderr, "writing checks: %v\n", err)
				os.Exit(1)
			}
			checksFailed = !ok
		}
	case flag.NArg() == 1:
		var err error
		tr, err = trace.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "reading trace: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: analyze [-only SECTION] trace-file")
		os.Exit(2)
	}

	if *traceHash {
		h, err := tr.Hash()
		if err != nil {
			fmt.Fprintf(os.Stderr, "trace hash: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace sha256 %x\n", h)
	}
	if err := writeTrace(tr, *out, *jsonl); err != nil {
		fmt.Fprintf(os.Stderr, "writing trace: %v\n", err)
		os.Exit(1)
	}

	charStart := time.Now()
	csp := ob.Begin("characterize", obs.A("workers", *workers), obs.A("conns", len(tr.Conns)))
	c := core.CharacterizeOpts(tr, core.Options{Workers: *workers, KSBootstrap: *ksboot})
	csp.End(obs.A("queries", len(tr.Queries)))
	characterized := time.Since(charStart)
	if err := render(os.Stdout, c); err != nil {
		fmt.Fprintf(os.Stderr, "rendering: %v\n", err)
		os.Exit(1)
	}
	if *perf {
		// The vantage count comes from the trace itself (Merge records
		// it), so file-loaded fleet traces report their true fleet size;
		// traces written before the field existed mean a single node.
		trNodes := tr.Nodes
		if trNodes == 0 {
			trNodes = 1
		}
		line := &perfLine{
			Conns:         len(tr.Conns),
			Nodes:         trNodes,
			Hop1Queries:   len(tr.Queries),
			CharacterizeS: characterized.Seconds(),
			TotalS:        time.Since(start).Seconds(),
			PeakRSSBytes:  obs.PeakRSSBytes(),
			Workers:       *workers,
			Scale:         tr.Scale,
			Days:          tr.Days,
		}
		// Arrival accounting, per-node peaks and the simulate phase's own
		// wall-clock / peak RSS are measurements of the simulation run, not
		// properties a saved trace records — they are only emitted on the
		// simulation path, never as misleading zeros. The counters come
		// from the obs registry: the engine and merge publish them there
		// from their authoritative post-run fields.
		if doSim {
			regInt := func(name string) uint64 { return uint64(reg.Value(name, 0)) }
			// merge_peak_pending / spilled_sessions report the k-way
			// merge's high-water mark and emission-window outlier count;
			// the sched_events pair records the keyed engine's per-node
			// scheduling cost — the max node stays O(own sessions), where
			// the old chain replay paid O(global arrivals) at every node.
			// dead_inputs / lost_sessions are the merge's degradation
			// ledger. In-process runs are always 0/0 (no input can die);
			// the fields exist so the same perf line covers the
			// distributed collector (internal/ingest), where they count
			// evicted vantages and their still-open sessions.
			line.perfSim = &perfSim{
				Arrivals:           regInt("engine_arrivals_total"),
				RejectedArrivals:   regInt("engine_rejected_arrivals"),
				MaxPeakConns:       int(regInt("engine_max_peak_conns")),
				MergePeakPending:   int(regInt("merge_peak_pending")),
				SpilledSessions:    int(regInt("merge_spilled_total")),
				DeadInputs:         int(regInt("merge_dead_inputs")),
				LostSessions:       regInt("merge_lost_sessions"),
				SchedEventsMaxNode: regInt("engine_sched_events_max_node"),
				SchedEventsTotal:   regInt("engine_sched_events_total"),
				SimulateS:          simulated.Seconds(),
				SimulatePeakRSS:    simulatePeakRSS,
				SimulateHeapLive:   simulateHeapLive,
			}
		}
		if err := writePerf(os.Stderr, line); err != nil {
			fmt.Fprintf(os.Stderr, "writing perf line: %v\n", err)
			os.Exit(1)
		}
	}
	if *csvDir != "" {
		if err := exportCSV(*csvDir, c); err != nil {
			fmt.Fprintf(os.Stderr, "csv export: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "CSV series written to %s\n", *csvDir)
	}
	flushObs()
	if checksFailed {
		fmt.Fprintln(os.Stderr, "scenario checks FAILED")
		os.Exit(1)
	}
}

// setDefaultMemoryLimit sets a 2 GiB soft memory limit unless GOMEMLIMIT
// chose one ("off" means none). The engine's live state is bounded, but
// the default GC target lets the heap float to ~2x it; 2 GiB holds the
// paper-scale fleet run (live peak ≈ 1.9 GB) with GC headroom, does
// nothing to a smaller run, and never OOMs — a low limit only costs GC.
func setDefaultMemoryLimit() {
	if os.Getenv("GOMEMLIMIT") == "" {
		debug.SetMemoryLimit(2 << 30)
	}
}

// writeTrace writes tr to path in the binary trace format and to jsonl as
// JSON lines; an empty name skips that form.
func writeTrace(tr *trace.Trace, path, jsonl string) error {
	if path != "" {
		if err := tr.WriteFile(path); err != nil {
			return err
		}
	}
	if jsonl == "" {
		return nil
	}
	f, err := os.Create(jsonl)
	if err != nil {
		return err
	}
	if err := tr.ExportJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// exportCSV writes the per-region CCDF series of Figures 5–9 and the
// Figure 11 popularity pmf as long-format CSV files for external plotting.
func exportCSV(dir string, c *core.Characterization) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	regionSeries := func(samples map[geo.Region]*stats.Sample, grid []float64) []report.Series {
		var out []report.Series
		for _, r := range []geo.Region{geo.NorthAmerica, geo.Europe, geo.Asia} {
			sample := samples[r]
			if sample == nil || sample.Len() == 0 {
				continue
			}
			pts := sample.CCDFSeries(grid)
			s := report.Series{Name: r.Short()}
			for _, p := range pts {
				s.X = append(s.X, p.X)
				s.Y = append(s.Y, p.Y)
			}
			out = append(out, s)
		}
		return out
	}
	files := map[string][]report.Series{
		"fig5_passive_duration_ccdf.csv":    regionSeries(c.Figure5.ByRegion, stats.LogSpace(60, 600000, 120)),
		"fig6_queries_per_session_ccdf.csv": regionSeries(c.Figure6.ByRegion, stats.LogSpace(1, 1000, 80)),
		"fig7_first_query_ccdf.csv":         regionSeries(c.Figure7.ByRegion, stats.LogSpace(1, 100000, 120)),
		"fig8_interarrival_ccdf.csv":        regionSeries(c.Figure8.ByRegion, stats.LogSpace(1, 10000, 100)),
		"fig9_after_last_ccdf.csv":          regionSeries(c.Figure9.ByRegion, stats.LogSpace(1, 100000, 120)),
	}
	var pop []report.Series
	for _, cl := range report.PopularityClassLabels() {
		s := report.Series{Name: cl.CSVName}
		for i, f := range c.Figure11.Freq[cl.Class] {
			if f > 0 {
				s.X = append(s.X, float64(i+1))
				s.Y = append(s.Y, f)
			}
		}
		pop = append(pop, s)
	}
	files["fig11_popularity_pmf.csv"] = pop
	for name, series := range files {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := report.CSV(f, series); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
