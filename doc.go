// Package p2pquery reproduces Klemm, Lindemann, Vernon and Waldhorst,
// "Characterizing the Query Behavior in Peer-to-Peer File Sharing
// Systems" (IMC 2004), as a complete, runnable system.
//
// The paper measured the Gnutella network for 40 days from a passive
// ultrapeer, filtered out client-software automation, and characterized
// user query behavior as conditional distributions for synthetic workload
// generation. This module rebuilds the entire apparatus:
//
//   - a Gnutella v0.6 protocol stack (wire codec, handshake, overlay
//     routing) that runs over real TCP, beside a discrete-event simulator
//     of the measurement node that records what the stack would receive;
//   - a synthetic peer population driven by the paper's published model
//     (the generative ground truth);
//   - the measurement node with the paper's exact observation rules —
//     one policy, capture.Recorder, that the simulated vantage and the
//     live daemon cmd/gnutellad both record through — and beyond it a multi-vantage measurement fabric: N cooperating
//     ultrapeer nodes (capture.Node) on one simulated network, sharding
//     arrivals consistently by session GUID (guid.Shard) so that — with N
//     sized so no per-node 200-connection cap binds — the merged trace
//     records the paper's entire ≈4.36 M-connection arrival stream
//     instead of the ≈197 k a single capped vantage admits;
//   - the Section 3.3 filter pipeline and the full Section 4 analysis,
//     regenerating every table and figure;
//   - the Figure 12 synthetic workload generator for evaluating new P2P
//     designs.
//
// The statistical layer underneath all of this lives in internal/dist:
// the appendix distribution families (lognormal, Weibull, Pareto), the
// body/tail composite of Tables A.1–A.4, Zipf and two-segment Zipf rank
// laws for query popularity (Figure 11), maximum-likelihood fitters that
// recover each family from measured samples, and the Kolmogorov–Smirnov
// distance — with asymptotic p-values (dist.KSPValue) that let the report
// auto-reject fits — used to score the recovered fits. Because the
// asymptotic p-values are computed on the fitting sample itself, their
// acceptances are Lilliefors-biased; core.Options.KSBootstrap switches the
// verdicts to parametric-bootstrap p-values (dist.KSPValueBootstrap, fixed
// per-slot seeds) whose acceptances are trustworthy too, and the report
// tags every verdict with its source.
//
// The conditioning cells the appendix tables and Figures 3–9 share are
// defined once, in internal/model: the peak/off-peak model.Period of
// Figure 3's hours (model.PeriodOf), the key one-hour periods
// (model.KeyPeriods, model.KeyPeriodIndex) and the query-count buckets
// (model.QueryBucketA3/A5/IAT). Tables A.1–A.5 are one type,
// model.Params, whose exported [region][period][bucket] tables hold
// dist.BodyTail and dist.Lognormal cells: model.Default fills it for the
// generator, and the characterization fills it from its fits
// (core.Fits.Model, with one core.Diag per fit beside it). Every per-cell
// figure container is likewise a fixed-size array indexed by geo.Region
// (the continental regions are Regions 0–2), period, key-period index,
// bucket or popularity class. The measurement side takes these
// definitions and the Params type from internal/model, never the
// generator's parameter values; TestMeasurementSeesNoGroundTruth
// (internal/core) holds that boundary.
//
// # Simulation engine
//
// internal/engine is the one way a vantage runs: a bounded producer
// replays the arrival process and its GUID stream once, in generation
// order, and hands each session to its owner's bounded queue
// (guid.Shard); every vantage node runs its event loop on its own
// goroutine with its own virtual clock, random streams and calendar-queue
// scheduler, scheduling only its own sessions and emitting each record
// the moment it is final; the streaming k-way merge joins the per-node
// streams. A batch run is that stream drained into a trace, the paper's
// single vantage is one node, and a distributed vantage (cmd/vantage) is
// the same loop with an ownership filter on the producer.
//
// The determinism contract is exact, not statistical. The reference
// order is one global FIFO scheduler dispatching the arrival chain, in
// which events with equal timestamps fire in schedule order of one
// global sequence. The engine reproduces that order without any node
// seeing a foreign arrival, through a keyed tie-break: every scheduler
// orders events by (timestamp, simtime.SeqKey{Epoch, Pos}, insertion);
// an own arrival is planted at the explicit key {its global chain
// position, 0} (ScheduleKeyed), and a pre-fire hook counts — by a
// forward-only galloping search over the published arrival instants —
// how many global arrivals precede the event about to fire, reseeding
// the scheduler's implicit key to {count, 1} when the count moved. Every
// event a node schedules thus carries the tag it would have carried in
// the global sequence, per-node cost is O(own sessions × events per
// session), and the merged trace is byte-identical however the
// goroutines interleave, in one process or many (pinned against a
// chain-replay oracle kept in the engine's tests, by fuzzing and by the
// golden hashes of bench/golden.json).
//
// simtime.Scheduler has two order-equivalent implementations, one core
// (clock, keys, counters, fire hook, item pool and every method) around
// one of two queues: the container/heap HeapScheduler and a Brown
// calendar queue (CalendarScheduler) whose buckets hold pointer-free
// (instant, item id) entries and whose cancellations remove their entry
// at once, property- and fuzz-tested to pop identical sequences — ties,
// explicit keys, cancellations, stale handles and far-future gaps
// included. The engine's nodes run the calendar queue: bench/'s
// simtime.*_hold_ns layer metrics, medians of five traced fleet-stream
// runs on a 2-core x86-64 host, measured a hold at 82 ns against the
// heap's 234 ns at 10^3 pending events, and 199 against 527 ns at
// 32·10^3.
// HeapScheduler is the order oracle for tests (the chain-replay oracle
// and ad-hoc test schedulers run it), nothing more.
//
// The node event loop is nearly all of a simulation's CPU, and nearly
// every event in it is per-connection background traffic, so the loop is
// held to four allocation rules. Under them it allocates in proportion
// to the connections it holds at once, not to the sessions it sees
// (TestEventLoopAllocationBudget: 0.010 allocations per scheduled event
// against a budget of 0.04, nearly all of it each session's query list
// and each day's first sighting of a keyword set in the hit model). The
// three recycled kinds below share one free list type, simtime.Pool,
// refilled 256 values at a time when it runs dry:
//
//   - Scheduler items are recycled. Each scheduler keeps a Pool of
//     items; an item returns to it when its event fires or is
//     cancelled. A simtime.Handle carries the item's generation, so
//     Cancel and Cancelled on a handle whose event is spent stay inert
//     however often the item has been reused — the probe re-arm in
//     internal/capture cancels such a handle on every delivered message.
//     The calendar's bucket arrays are kept too: a size change hands the
//     old arrays to the new buckets, so the pending count's swings across
//     the resize thresholds do not regrow every bucket.
//   - Events are typed records, not closures: a capture.EventKind, the
//     connection and at most one scalar, dispatched by one Fire. A record
//     without an argument is immutable and lives inside its connection;
//     one with an argument (a probe deadline's probe instant, a query
//     index) comes from a per-vantage Pool and returns to it on fire.
//     The kinds double as the engine_sched_events_by_kind metric.
//   - Connections are recycled. A connection counts its queued events;
//     once it is closed and none is left, nothing can reach it any more,
//     so it goes back to its vantage's Pool and a later arrival reuses
//     it. The session record it emits at close comes from its stream
//     producer's 256-record slab, and the record is never reused.
//   - A delivery is a record, not a message. The vantage routes nothing
//     (the paper's logger did not), so a received message is a typed
//     capture.Recorder call that bumps its counter and keeps just the
//     fields the trace stores: no GUID, envelope or payload is built, and a
//     forwarded query's text is never resolved — vocab.SkipSample
//     advances the random stream past the draw instead.
//
// The arrival producer that feeds the loops is held to the same
// discipline. The generator refills one scratch user session per arrival
// (workload.Generator.NextInto), the shaper collects each client query
// stream in a reused buffer, orders it by a key sort and copies it out
// once at exact size, and the engine hands each session to its vantage by
// value. An arrival thus costs about one allocation, its query stream
// (TestGeneratorAllocationBudget: at most 0.4 per arrival), and one the
// vantage rejects at its connection cap costs nothing more.
//
// # Streaming pipeline
//
// internal/stream turns the batch reproducer into a system that can
// characterize traffic as it arrives, with bounded state — the mode a
// production deployment serving a live overlay needs, and the mode the
// paper's own 40-day capture actually ran in. Three layers compose:
//
//   - A typed, backpressured event stream: every vantage node
//     (capture.NewNode) emits session open / close, query, pong and hit
//     records into a bounded channel the moment each record is final,
//     and keeps no per-node trace; its Recorder's Finish censors the
//     sessions still open at the horizon, in connection-id order, and
//     ships the trailer. The
//     engine's bounded producer publishes the arrival chain
//     incrementally through a conservative time-window synchronizer and
//     caps each node's undelivered sessions at engine.DefaultLookahead
//     (1024), so the in-flight session set is nodes × 1024 instead of
//     the whole measurement period.
//   - A streaming k-way merge (stream.Merger): per-node streams are
//     unioned into the global deduplicated, time-ordered, densely
//     re-identified order incrementally — a completed session retires the
//     moment no still-open or future session can precede it (the emission
//     barrier) — and draining to completion yields a trace byte-identical
//     to batch trace.Merge (pinned by test; trace.Merge is kept as the
//     reference oracle).
//   - An online characterization layer (stream.Online): Space-Saving
//     top-K keyword ranking (exact while distinct keys fit capacity,
//     ≤ N/m overestimation beyond), Greenwald–Khanna quantile summaries
//     for session duration and query interarrival (rank error ≤ ε·n,
//     default ε = 0.001), sliding-window arrival/query rates, and exact
//     streaming counters (the under-64 s share among them). Because it
//     rides the merge sink, its snapshots are deterministic — a pure
//     function of the merged stream, independent of goroutine
//     interleaving — and pinned against batch-exact oracles by test.
//
// Entry points: engine.Run(sink) / p2pquery.Run with Online run the
// whole pipeline with the sketch layer on the merge sink;
// `analyze -simulate -online` prints the online characterization above
// the standard report and `-tracehash` the canonical SHA-256, identical
// with or without it;
// cmd/gnutellad -metrics serves the live snapshot of wire-ingested
// traffic (Prometheus text at /metrics, the JSON snapshot with its top-K
// keywords at /online.json).
//
// # Declarative scenarios and the run facade
//
// Run(RunConfig) is the one entry point every fleet simulation goes
// through, with the online sketch layer optionally attached; Simulate is
// its single-vantage shorthand.
//
// internal/scenario makes whole experiments declarative: a strict,
// versioned YAML spec (parsed by a dependency-free reader that rejects
// unknown fields with line numbers and dotted paths) pins the base
// simulation shape, layers named presets (paper40d, laptop, tenweek),
// declares workload client classes (arrival share, session/query
// scaling, injected query vocabulary — the polluter scenario) and a
// timeline of churn transients (mass disconnect, outage, linear
// recovery surge), and attaches headline-metric checks evaluated
// against the recorded trace. Specs compile into the same
// capture/engine/workload configs the flags produce — the paper40d
// preset compiles to exactly the historical default run, SHA-256-equal
// trace and all — and every command that runs or regenerates a fleet
// (analyze, vantage, workloadgen) takes -spec/-preset through the shared
// internal/cliflags block with precedence spec < preset < explicitly set
// flag, and one range check in scenario.Compile for all three layers. LoadScenario, ScenarioPreset,
// RunScenario and EvaluateScenario are the library faces of the same
// path; the committed specs under scenarios/ run in CI with their
// checks gating the build (make scenario-suite).
//
// # Concurrency model
//
// The characterization pipeline is parallel by default, end to end. The
// Section 3.3 filter runs data-parallel over connections (filter
// .ApplyOpts chunks the per-connection rule passes over the shared
// internal/par worker pool — at merged full-trace volume this pass
// dominates characterization); session enrichment follows; then every
// per-figure computation and each of the 51 per-(table, region, period,
// bucket) appendix fits runs as an independent task on the same bounded
// pool (core.Options.Workers; 1 forces sequential). Tasks share only the
// immutable trace and enriched-session slice and write to disjoint
// fields or cells of core.Fits, so for a fixed seed the rendered report is byte-identical for
// every worker count — a property pinned by tests, and demonstrated (not
// just promised) by CI's multi-core job, which fails unless the parallel
// pipeline beats sequential by ≥ 2× at 4 vCPUs.
//
// On the generator side, vocab.Vocabulary shards its per-day popularity
// rankings by query class: each (class, day) ranking is built lazily
// exactly once behind its own sync.Once, via top-K partial selection over
// per-(seed, class, day) PCG score streams. Steady-state query draws are
// lock-free map hits, so concurrent workload or capture generators no
// longer serialize behind one vocabulary mutex, and the ranking result is
// independent of which goroutine builds it. Measured on one 2.1 GHz core,
// building a day ranking for all seven classes dropped from 6.1 ms /
// 588 KB to 1.5 ms / 19 KB, and a cold single-class draw from 6.0 ms to
// 0.6 ms; cached draws stay at ~120 ns with zero allocations.
//
// # Observability
//
// internal/obs is the shared, dependency-free observability layer the
// whole pipeline reports through. An obs.Registry holds counters, gauges
// and fixed-bucket histograms with atomic hot paths; every handle is
// nil-receiver safe, so instrumented code pays one nil check when no
// observer is installed, and its handle operations allocate nothing
// (pinned by test); attrs on per-phase spans and events still box their
// values at the call site. An
// obs.Observer couples a registry with a JSONL run journal: engine,
// stream and ingest record phase spans (simulate, characterize),
// discrete events (input_stalled, input_evicted, scenario_check) and a
// final metrics snapshot. Journals are deterministic by construction —
// values that depend on the wall clock or on goroutine interleaving (the
// merge's pending high-water mark, its barrier position) ride
// exposition-only GaugeFuncs, excluded from snapshots — so two runs of
// the same spec are identical after obs.Canonical strips timestamps
// (pinned by test). The long-running commands share one HTTP surface
// (obs.NewHTTPHandler): Prometheus text exposition at /metrics, the one
// metrics surface, and net/http/pprof behind a -pprof flag; a daemon
// mounts its own endpoints beside them (gnutellad's /online.json);
// `analyze -journal run.jsonl -heartbeat 5s` records a
// run's full story to disk.
//
// # Quickstart
//
// Simulate a scaled-down 40-day measurement, characterize it, and print
// the paper's tables and figures:
//
//	cfg := p2pquery.DefaultSimulation(42, 0.02) // 2% of paper scale
//	tr := p2pquery.Simulate(cfg)
//	c := p2pquery.Characterize(tr)
//	p2pquery.WriteReport(os.Stdout, c)
//
// Generate a synthetic workload (the paper's Figure 12 algorithm) to
// drive a P2P system evaluation:
//
//	gen := p2pquery.NewWorkload(p2pquery.DefaultWorkload(7, 0.1))
//	for s := gen.Next(); s != nil; s = gen.Next() {
//		feed(s) // region, passive/active, query schedule, query strings
//	}
//
// cmd/analyze is the one command that simulates: `analyze -simulate`
// prints every table and figure with the paper's published values
// alongside, `-o FILE` saves the trace it characterized, and
// `analyze FILE` re-analyzes a saved trace.
package p2pquery
