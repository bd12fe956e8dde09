// Command vantage runs exactly one vantage of a simulated capture fleet
// as an emitter process: it regenerates the deterministic arrival
// process locally, simulates only its own shard (engine.NodeStream), and
// ships the resulting event stream to an ingest collector with
// sequence-numbered frames, ack-based resume, and reconnect backoff.
//
// N vantage processes pointed at one collector drain to a trace
// byte-identical to a single-process engine.Run with the same
// seed/scale/days/nodes — cmd/distfleet asserts exactly that, including
// under injected faults and a mid-run SIGKILL+restart.
//
// The -fault-* flags wrap the emitter's dialer in faultnet, so the
// process can sabotage its own connections deterministically; this is
// how the smoke harness exercises drops, duplication, reordering, and
// delays without any external tooling.
//
// With -journal FILE the process writes its obs run journal (spans,
// events, heartbeats, final metrics/latency snapshots) as JSONL; with
// -ship-journal the same lines are additionally shipped to the collector
// in-band on the ingest connection, where they are merged — clock-rebased
// onto the collector's time axis — into the fleet journal under this
// process's "vantage<N>" lane. -heartbeat adds a periodic liveness line.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/capture"
	"repro/internal/cliflags"
	"repro/internal/engine"
	"repro/internal/faultnet"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/transport"
)

func main() {
	log.SetFlags(0)
	collector := flag.String("collector", "", "collector address to emit to (required)")
	input := flag.Int("input", 0, "vantage index, also the collector input this process feeds")

	// The shared block supplies -seed -scale -days -nodes and the
	// declarative -spec/-preset pair (all of which must match the
	// fleet's); -online is accepted but inert here — an emitter is one
	// streaming node with no online sketch layer.
	sim := cliflags.Bind(flag.CommandLine, cliflags.Defaults{Seed: 2004, Scale: 0.01, Days: 4, Nodes: 1})
	lookahead := flag.Int("lookahead", 0, "bounded-producer lookahead (0 = engine default)")

	retryMax := flag.Int("retry-max", 10, "reconnect attempts per outage")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "reconnect backoff base")
	retryCap := flag.Duration("retry-cap", 5*time.Second, "reconnect backoff cap")
	ackTimeout := flag.Duration("ack-timeout", 15*time.Second, "reconnect when unacked events see no ack progress for this long")
	welcomeTimeout := flag.Duration("welcome-timeout", 10*time.Second, "hello/welcome exchange deadline")
	writeTimeout := flag.Duration("write-timeout", 10*time.Second, "per-frame write deadline")
	keepAlive := flag.Duration("keepalive", 2*time.Second, "idle keepalive period (keep well under the collector's evict timeout)")

	faultSeed := flag.Uint64("fault-seed", 0, "faultnet seed for self-injected connection faults (0 with all probs 0 = no injection)")
	faultDrop := flag.Float64("fault-drop", 0, "probability a write is torn and the connection killed")
	faultDup := flag.Float64("fault-dup", 0, "probability a write is duplicated")
	faultReorder := flag.Float64("fault-reorder", 0, "probability a write is held and swapped with the next")
	faultDelay := flag.Float64("fault-delay", 0, "probability a write is delayed")
	faultDelayMax := flag.Duration("fault-delay-max", 50*time.Millisecond, "max injected write delay")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof and the process metric registry on this address")
	journalPath := flag.String("journal", "", "write this process's run journal (JSONL) to this file")
	shipJournal := flag.Bool("ship-journal", false, "ship journal lines to the collector in-band, merging them into its fleet journal")
	heartbeat := flag.Duration("heartbeat", 0, "journal heartbeat period (0 = none)")
	flag.Parse()

	if *collector == "" {
		log.Fatal("vantage: -collector is required")
	}
	sc, err := sim.Resolve()
	if err != nil {
		log.Printf("vantage: resolving run configuration: %v", err)
		os.Exit(2)
	}

	// The vantage's observability surface: arrival counter plus emitter
	// reconnect/ack/backlog gauges, live on -pprof for a stuck fleet.
	reg := obs.NewRegistry()
	obs.RegisterProcessMetrics(reg)

	// The journal tees into a local file and/or the in-band ship; either
	// alone works, both together give a local copy of exactly what the
	// collector's fleet journal will hold in this vantage's lane.
	var (
		jws   []io.Writer
		jfile *os.File
		ship  *ingest.JournalShip
	)
	if *journalPath != "" {
		f, err := os.Create(*journalPath)
		if err != nil {
			log.Fatalf("vantage: journal: %v", err)
		}
		jfile = f
		jws = append(jws, f)
	}
	if *shipJournal {
		ship = ingest.NewJournalShip()
		jws = append(jws, ship)
	}
	var jl *obs.Journal
	if len(jws) > 0 {
		jl = obs.NewJournal(io.MultiWriter(jws...))
	}
	ob := &obs.Observer{Metrics: reg, Journal: jl}
	if *pprofAddr != "" {
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("vantage: pprof listen: %v", err)
		}
		log.Printf("vantage %d: observability endpoint on http://%s (/metrics, /debug/pprof/)", *input, ln.Addr())
		srv := &http.Server{Handler: obs.NewHTTPHandler(obs.HTTPConfig{Registry: reg, Pprof: true})}
		go func() { _ = srv.Serve(ln) }()
	}

	cfg := sc.Sim
	seed := cfg.Workload.Seed

	ecfg := ingest.EmitterConfig{
		Addr:           *collector,
		Input:          *input,
		Obs:            ob,
		Ship:           ship,
		Source:         fmt.Sprintf("vantage%d", *input),
		Retry:          transport.Retry{Max: *retryMax, Base: *retryBase, Cap: *retryCap, Seed: seed + uint64(*input) + 1},
		AckTimeout:     *ackTimeout,
		WelcomeTimeout: *welcomeTimeout,
		WriteTimeout:   *writeTimeout,
		KeepAlive:      *keepAlive,
	}
	if *faultSeed != 0 || *faultDrop > 0 || *faultDup > 0 || *faultReorder > 0 || *faultDelay > 0 {
		inj := faultnet.New(faultnet.Config{
			Seed:        *faultSeed,
			DropProb:    *faultDrop,
			DupProb:     *faultDup,
			ReorderProb: *faultReorder,
			DelayProb:   *faultDelay,
			DelayMax:    *faultDelayMax,
		})
		ecfg.Dial = inj.Dial(func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		})
	}

	em := ingest.NewEmitter(ecfg)
	runErr := make(chan error, 1)
	go func() { runErr <- em.Run() }()

	start := time.Now()
	// Begin before the heartbeat starts: the span_start is then always
	// this process's first journal line, which is what lets the smoke
	// harness reason about a killed vantage's lane from its JournalSeq.
	sp := jl.Begin("simulate",
		obs.A("input", *input),
		obs.A("seed", seed),
		obs.A("scale", cfg.Workload.Scale),
		obs.A("nodes", sc.Nodes))
	stopHB := obs.StartHeartbeat(jl, *heartbeat, nil)
	st, err := engine.NodeStream(
		engine.Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: sc.Nodes}, Lookahead: *lookahead, Obs: ob},
		*input,
		stream.NewProducer(*input, em.Intake()),
	)
	if err != nil {
		em.Stop()
		log.Fatalf("vantage %d: simulate: %v", *input, err)
	}
	sp.End(obs.A("conns", st.Conns), obs.A("rejected", st.Rejected), obs.A("peak_conns", st.PeakConns))
	close(em.Intake())

	// EventsDrained is the deterministic point for the final journal
	// lines: every event is acked, the emitter gauges hold their final
	// values, and Run is still pumping so the trailing lines ship too.
	// A Run error (retry budget dead, eviction) fires runErr instead.
	var emitErr error
	gotErr := false
	select {
	case emitErr = <-runErr:
		gotErr = true
	case <-em.EventsDrained():
	}
	stopHB()
	ob.SnapshotMetrics()
	ob.SnapshotLatency()
	if ship != nil {
		_ = ship.Close()
	}
	if !gotErr {
		emitErr = <-runErr
	}
	if emitErr != nil {
		log.Fatalf("vantage %d: emit: %v", *input, emitErr)
	}
	if err := jl.Err(); err != nil {
		log.Fatalf("vantage %d: journal: %v", *input, err)
	}
	if jfile != nil {
		if err := jfile.Close(); err != nil {
			log.Fatalf("vantage %d: journal: %v", *input, err)
		}
	}
	fmt.Fprintf(os.Stderr, "vantage %d done: conns=%d rejected=%d peak=%d in %.2fs\n",
		*input, st.Conns, st.Rejected, st.PeakConns, time.Since(start).Seconds())
}
