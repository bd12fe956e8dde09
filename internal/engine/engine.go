// Package engine is the execution layer of the measurement simulation:
// one pipeline that runs every vantage node of a capture fleet on its own
// goroutine — its own virtual clock, its own calendar-queue event
// scheduler, its own random streams — and joins their event streams in
// the streaming k-way merge. A batch run is that stream drained into a
// trace; the paper's single vantage is Nodes: 1; a distributed vantage
// (NodeStream, cmd/vantage) is the same per-node loop with an ownership
// filter on the producer.
//
// # The pipeline
//
//  1. The bounded producer (produceArrivals, one goroutine) replays the
//     arrival process once, drawing the session GUIDs that shard it in
//     generation order, publishes every arrival instant to the shared
//     chain, and hands each session — with its global chain position, the
//     precomputed tie-break key that makes a node independent of foreign
//     arrivals — to its owner's queue, at most DefaultLookahead sessions
//     deep. The in-flight session set is therefore nodes × DefaultLookahead,
//     not the measurement period.
//  2. One keyed event loop per vantage (keyedBoundedRun, one goroutine
//     each) schedules only its own sessions and emits each record into
//     its stream.Producer the moment it is final. Per-node cost is O(own
//     sessions × events per session); the global arrival count appears
//     only through O(log) amortized searches of the published chain.
//  3. stream.Merger unions the per-node streams into the global
//     deduplicated, time-ordered, densely re-identified trace, feeding an
//     optional stream.Sink in merged order as sessions retire.
//
// # Determinism contract (keyed tie-break, merge order-independent)
//
// The reference order is one global FIFO scheduler that dispatches the
// arrival chain in generation order — scheduling arrival k+1 before it
// delivers arrival k — with every vantage's events on the same queue.
// Events with equal timestamps fire in schedule order of one global
// sequence counter, which is equivalent to a lexicographic tag (P, c): P =
// how many arrivals have been dispatched when the event is scheduled, c =
// the schedule call's rank within that interval, arrival k itself always
// carrying exactly (k, 0). The engine reproduces those tags without
// replaying foreign arrivals:
//
//   - Each own arrival k is scheduled with the explicit simtime.SeqKey
//     {Epoch: k, Pos: 0} at its published timestamp — exactly the tag it
//     has in the reference order.
//   - A pre-fire hook (simtime.Scheduler.SetFireHook) maintains the
//     node's virtual chain cursor: before an implicit event with key
//     (t, E, p≥1) fires, the hook counts — by a forward-only galloping
//     search over the published chain, blocking until the producer has
//     published far enough to answer exactly — how many global arrivals
//     precede it in the total order (start < t, or start == t with index
//     ≤ E), and reseeds the scheduler's implicit key to (count, 1) when
//     the count advanced. Every event the node schedules therefore gets
//     the same (P, c) tag it would get in the reference order, Pos 0 of
//     each epoch staying reserved for the arrival itself.
//
// The restriction of the global fire order to one node's events then
// equals the node's solo fire order — equal-timestamp ties included, which
// do occur at full volume — so each vantage's stream is independent of
// goroutine interleaving, and the merge is order-independent by total
// order: the drained trace is byte-identical for every producer window
// (this package's tests vary it), either scheduler implementation, with
// or without a sink or an observer, and whether the vantages run in one
// process or many. The oracles are the
// committed hashes (bench/golden.json, the overlapping-probes hash in
// internal/capture's tests, the full-scale SHA in ROADMAP.md), the
// chain-replay engine kept in this package's tests — every node replays
// the whole chain on the implicit FIFO order alone — and batch
// trace.Merge, at node counts up to 256 and by fuzzing.
package engine

import (
	"repro/internal/behavior"
	"repro/internal/capture"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Config parameterizes a fleet simulation.
type Config struct {
	// Fleet is the deployment: the per-vantage configuration and the
	// vantage count.
	Fleet capture.FleetConfig
	// Obs attaches the observability layer: the simulate span on the
	// journal, the arrival-throughput counter, the merge's metrics and
	// post-run scheduler gauges on the registry. Instrumentation never
	// touches RNG streams or scheduling order — the merged trace is
	// byte-identical with or without it — and a nil observer runs at the
	// uninstrumented cost (nil-handle no-ops).
	Obs *obs.Observer

	// lookahead overrides DefaultLookahead when positive. It is a test
	// seam: the tests that narrow the producer window prove the trace
	// does not depend on it.
	lookahead int
}

// DefaultMergeWindow is the streaming merge's emission window: how long
// one open session may hold the merge's emission barrier before it takes
// the merge's spill-to-final-sort path instead of freezing retirement
// (see stream.Merger.SetWindow — the drained trace is byte-identical
// either way). It is a generous max-duration quantile of the paper's
// session-duration model. The duration fits are seconds-to-hours
// scale — sessions outlasting a full day are deep in the Pareto tail —
// so the window virtually never spills while capping the pending buffer
// at one day's worth of completed sessions even when a session spans the
// whole trace.
const DefaultMergeWindow = simtime.Day

// queueDepth is each node's producer queue depth.
func (c *Config) queueDepth() int {
	if c.lookahead > 0 {
		return c.lookahead
	}
	return DefaultLookahead
}

// Engine is a sharded fleet simulation. Create with New, execute with
// Run; a second Run returns the memoized trace.
type Engine struct {
	cfg Config
	// newSched builds each node's scheduler, Run's and NodeStream's alike.
	// The calendar queue is the production choice on its measured cost
	// inside this loop, not on a microbenchmark alone: Engine.Run at seed
	// 2004, 3 days, medians of two sets of five runs on a 2-core x86-64
	// container, calendar vs heap, 0.88–0.92 vs 1.30–1.39 s at scale 0.25
	// with 8 nodes and 0.78–0.80 vs 1.05–1.17 s at scale 1.0 with one
	// node. Tests swap in the heap to pin that the engine's output does
	// not depend on the implementation.
	newSched func() simtime.Scheduler

	ran    bool
	merged *trace.Trace
	stats  capture.FleetStats
	// peakPending is the streaming merge's high-water mark of completed
	// sessions held behind the emission barrier.
	peakPending int
	// spilled is the merge's outlier count: sessions longer than the
	// emission window, folded in at finish instead of held pending.
	spilled int
	// schedPerNode is each node's lifetime scheduled-event count — the
	// O(own sessions) scaling metric the keyed tie-break buys, versus the
	// O(global arrivals) every node pays under chain replay.
	schedPerNode []uint64
	// kindsPerNode breaks each node's schedPerNode down by event kind.
	kindsPerNode []capture.EventCounts
}

// New builds an engine.
func New(cfg Config) *Engine {
	if cfg.Fleet.Nodes < 1 {
		cfg.Fleet.Nodes = 1
	}
	return &Engine{
		cfg:      cfg,
		newSched: func() simtime.Scheduler { return simtime.NewCalendarScheduler() },
	}
}

// Run executes the measurement period once and returns the drained merged
// trace; sink (which may be nil) observes every merged session in the
// global merged order as it retires — except sessions longer than the
// merge window, which the sink observes last (see DefaultMergeWindow).
// Per-node traces are never materialized. Subsequent calls return the
// memoized trace and feed no sink.
func (e *Engine) Run(sink stream.Sink) *trace.Trace {
	if e.ran {
		return e.merged
	}
	nodes := e.cfg.Fleet.Nodes
	// Schedulers are built here, before any pipeline goroutine starts: a
	// panicking constructor must surface on the caller's goroutine, where
	// a recover leaves the engine retryable, instead of killing the
	// process from a node goroutine.
	scheds := make([]simtime.Scheduler, nodes)
	for i := range scheds {
		scheds[i] = e.newSched()
	}
	// One span covers the overlapped simulate+merge pipeline, emitted from
	// this goroutine only so journal line order stays deterministic
	// (producer and node goroutines touch atomic metric handles, never the
	// journal).
	sp := e.cfg.Obs.Begin("simulate", obs.A("nodes", nodes), obs.A("lookahead", e.cfg.queueDepth()))
	merger := stream.NewMerger(nodes, sink)
	merger.SetObserver(e.cfg.Obs)
	merger.SetWindow(DefaultMergeWindow)
	sinks := make([]*stream.Producer, nodes)
	for i := range sinks {
		sinks[i] = stream.NewProducer(i, merger.Intake())
	}
	arrCounter := e.cfg.Obs.Counter("engine_arrivals_total", "arrival events fired across all vantage nodes")
	done := make(chan struct{})
	go func() {
		// Accounted here, so the nodes and their schedulers are garbage
		// while the merge finishes.
		arrivals, ran := runFleet(e.cfg, scheds, sinks, arrCounter)
		e.account(arrivals, scheds, ran)
		close(done)
	}()
	e.merged = merger.Run()
	<-done
	e.peakPending = merger.PeakPending()
	e.spilled = merger.Spilled()
	// The merge's pending high-water mark is left off the span: it depends
	// on goroutine interleaving, and the journal is deterministic.
	sp.End(obs.A("arrivals", e.stats.Arrivals), obs.A("conns", len(e.merged.Conns)), obs.A("spilled", e.spilled))
	e.publishRunMetrics()
	// Mark the memo only after the run completed: a panic recovered by
	// the caller must leave the engine retryable, not poisoned into
	// returning a nil trace and zero stats forever.
	e.ran = true
	return e.merged
}

// account keeps the fleet's accounting and each node's event counts.
func (e *Engine) account(arrivals uint64, scheds []simtime.Scheduler, nodes []*capture.Node) {
	e.stats = capture.FleetStats{Arrivals: arrivals, PerNode: make([]capture.NodeStats, len(nodes))}
	e.schedPerNode = make([]uint64, len(nodes))
	e.kindsPerNode = make([]capture.EventCounts, len(nodes))
	for i, node := range nodes {
		e.stats.PerNode[i] = node.Stats()
		e.stats.Rejected += e.stats.PerNode[i].Rejected
		e.stats.DroppedQueryEvents += e.stats.PerNode[i].DroppedQueryEvents
		e.schedPerNode[i] = scheds[i].Scheduled()
		e.kindsPerNode[i] = node.EventCounts()
	}
}

// Stats reports the fleet accounting, running the simulation first if
// needed. The accounting identity Arrivals == Σ Conns + Σ Rejected holds
// over the per-node rows.
func (e *Engine) Stats() capture.FleetStats {
	e.Run(nil)
	return e.stats
}

// publishRunMetrics writes the engine's post-run summary gauges from its
// authoritative fields, so a registry scrape (or the final journal
// metrics snapshot) reports exactly the values the Stats/accessor API
// returns. No-op without a registry.
func (e *Engine) publishRunMetrics() {
	reg := e.cfg.Obs.Reg()
	if reg == nil {
		return
	}
	var total, maxNode uint64
	for _, n := range e.schedPerNode {
		total += n
		if n > maxNode {
			maxNode = n
		}
	}
	maxPeak := 0
	for i := range e.stats.PerNode {
		if p := e.stats.PerNode[i].PeakConns; p > maxPeak {
			maxPeak = p
		}
	}
	reg.Gauge("engine_sched_events_total", "scheduler events fired across all nodes").SetInt(int64(total))
	for k := capture.EventKind(0); k < capture.NumEventKinds; k++ {
		var n uint64
		for i := range e.kindsPerNode {
			n += e.kindsPerNode[i][k]
		}
		reg.Gauge("engine_sched_events_by_kind", "scheduled events across all nodes, by event kind", obs.L("kind", k.String())).SetInt(int64(n))
	}
	reg.Gauge("engine_sched_events_max_node", "busiest node's scheduled-event count").SetInt(int64(maxNode))
	reg.Gauge("engine_rejected_arrivals", "arrivals rejected by per-node connection caps").SetInt(int64(e.stats.Rejected))
	reg.Gauge("engine_max_peak_conns", "largest per-node concurrent-connection peak").SetInt(int64(maxPeak))
	reg.Gauge("engine_nodes", "vantage nodes in the fleet").SetInt(int64(e.cfg.Fleet.Nodes))
}

// PeakPending reports the streaming merge's high-water mark of completed
// sessions held behind the emission barrier (after the run). It depends
// on how the node goroutines interleave, so unlike the trace it varies
// from run to run.
func (e *Engine) PeakPending() int { return e.peakPending }

// SpilledSessions reports how many merged sessions exceeded the emission
// window and took the merge's spill-to-final-sort path (see
// DefaultMergeWindow); 0 when the window never bound.
func (e *Engine) SpilledSessions() int { return e.spilled }

// ScheduledPerNode returns each node's lifetime scheduled-event count in
// node order, running the simulation first if needed. With the keyed
// tie-break this is O(own sessions × events per session) per node; under
// chain replay every node also paid one event per *global* arrival, which
// is the superlinearity the high-node-count benchmark guards against.
func (e *Engine) ScheduledPerNode() []uint64 {
	e.Run(nil)
	return e.schedPerNode
}

// ownedSession is one node-owned arrival: the session plus its global
// chain position, which is the Epoch of its precomputed tie-break key. The
// session travels by value — the producer fills one local per arrival and
// copies it into the batch, and the queues hold the values themselves — so
// handing an arrival to its vantage allocates nothing beyond the query
// stream the generator already gave it; the copies share that stream,
// which no one mutates once generated.
type ownedSession struct {
	sess behavior.Session
	gidx uint64
}

// chainBoundary returns the first position in [from, n] at which the
// monotone predicate fires turns false (n if it never does), by galloping
// then binary search — O(log jump) evaluations, which is what keeps the
// cursor's amortized cost independent of the global arrival count.
func chainBoundary(n, from uint64, fires func(uint64) bool) uint64 {
	if from >= n || !fires(from) {
		return from
	}
	// fires(from) holds; gallop for an upper bound. Monotonicity makes
	// the skipped indices safe: fires(hi) implies fires of everything
	// below hi.
	lo, hi := from+1, from+1
	for step := uint64(1); hi < n && fires(hi); step *= 2 {
		lo = hi + 1
		hi += step
	}
	if hi > n {
		hi = n
	}
	// The boundary is in [lo, hi].
	for lo < hi {
		mid := lo + (hi-lo)/2
		if fires(mid) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
