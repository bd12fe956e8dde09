// Package engine is the parallel execution layer of the measurement
// simulation: a sharded discrete-event engine that runs every vantage node
// of a capture fleet on its own goroutine — its own virtual clock, its own
// calendar-queue event scheduler, its own random streams — and joins the
// per-node traces with trace.Merge into a result byte-identical to the
// sequential capture.Fleet at every worker count.
//
// # Why this is possible
//
// The fleet's vantage nodes are independent given the arrival shard: a
// node's event stream is generated entirely by its own arrivals and its
// own per-node random streams, and the only cross-node state — the arrival
// process, the session-GUID stream that shards it, and the read-only
// SharedModel — is consumed in arrival order regardless of sharding. The
// engine therefore runs in two phases:
//
//  1. Partition (sequential): replay the arrival process once, drawing the
//     session GUIDs in the exact order the sequential fleet draws them,
//     split the sessions by guid.Shard into per-node lists, and record
//     each arrival's (timestamp, global chain position) — the precomputed
//     tie-break key that makes phase 2 independent of foreign arrivals.
//  2. Execute (parallel): each node simulates on its own scheduler,
//     scheduling only its own sessions. Per-node cost is O(own sessions ×
//     events per session); the global arrival count appears only through
//     O(log) amortized reads of the shared, immutable starts array.
//
// # Determinism contract (keyed tie-break, merge order-independent)
//
// In the sequential fleet, events with equal timestamps fire in schedule
// (FIFO) order of one global sequence counter. That counter is equivalent
// to a lexicographic tag (P, c): P = how many arrivals have been
// dispatched when the event is scheduled, c = the schedule call's rank
// within that interval — arrival k itself always carrying exactly (k, 0),
// because the fleet's dispatcher schedules arrival k as the first call
// while dispatching arrival k-1. The engine reproduces those tags without
// replaying foreign arrivals:
//
//   - Each own arrival k is scheduled with the explicit simtime.SeqKey
//     {Epoch: k, Pos: 0} at its precomputed timestamp — exactly the tag it
//     has in the sequential order.
//   - A pre-fire hook (simtime.Scheduler.SetFireHook) maintains the
//     node's virtual chain cursor: before an implicit event with key
//     (t, E, p≥1) fires, the hook counts — by a forward-only galloping
//     search over the shared starts array — how many global arrivals
//     precede it in the total order (start < t, or start == t with index
//     ≤ E), and reseeds the scheduler's implicit key to (count, 1) when
//     the count advanced. Every event the node schedules therefore gets
//     the same (P, c) tag it would get in the sequential fleet, Pos 0 of
//     each epoch staying reserved for the arrival itself.
//
// The restriction of the global fire order to one node's events then
// equals the node's solo fire order — equal-timestamp ties included, which
// do occur at full volume — so each per-node trace is byte-identical to
// its sequential counterpart. trace.Merge is order-independent by total
// order, so the merged trace is byte-identical too, for every Workers
// value and for Workers == 1, and a one-node engine run reproduces the
// historical single-vantage Sim byte for byte. All of this is pinned by
// test against the sequential fleet and against a full-chain-replay
// oracle (the engine's previous mechanism, kept in the test suite), at
// node counts up to 256 and by fuzzing.
//
// The engine holds the full partitioned session set in memory (the
// sequential fleet generates lazily); at paper scale this is a few GB on
// top of the trace itself, released progressively as nodes consume their
// shards.
package engine

import (
	"repro/internal/behavior"
	"repro/internal/capture"
	"repro/internal/guid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
)

// Config parameterizes a parallel fleet simulation.
type Config struct {
	// Fleet is the deployment exactly as capture.NewFleet takes it.
	Fleet capture.FleetConfig
	// Workers bounds the goroutines executing node event loops in the
	// eager mode, following the shared par.Workers convention: 0 means
	// GOMAXPROCS, values below 1 mean 1. The trace is byte-identical for
	// every setting. In bounded mode (Lookahead > 0, and always under
	// RunStream) every node runs its own goroutine and throttling comes
	// from the producer window instead — a blocked node parks, so the OS
	// scheduler sizes the effective parallelism.
	Workers int
	// Lookahead > 0 replaces the eager pre-partition with the bounded
	// producer: the arrival chain is published incrementally through a
	// conservative time-window synchronizer and each node's undelivered
	// sessions are capped at Lookahead, so the in-flight session set is
	// nodes × Lookahead instead of the whole measurement period (the few
	// GB the eager partition holds at paper scale). 0 keeps the eager
	// path. The trace is byte-identical either way (pinned by test).
	Lookahead int
	// MergeWindow bounds how long one open session may hold the streaming
	// merge's emission barrier in RunStream: sessions longer than the
	// window take the merge's spill-to-final-sort path instead of freezing
	// retirement (see stream.Merger.SetWindow — the drained trace is
	// byte-identical either way). 0 means DefaultMergeWindow; negative
	// disables the window (the pending buffer is then bounded only by the
	// oldest open session, the pre-window behavior).
	MergeWindow simtime.Time
	// Obs attaches the observability layer: phase spans
	// (partition/simulate/merge) on the journal, the arrival-throughput
	// counter and post-run scheduler/merge gauges on the registry.
	// Instrumentation never touches RNG streams or scheduling order — the
	// merged trace is byte-identical with or without it — and a nil
	// observer runs at the uninstrumented cost (nil-handle no-ops).
	Obs *obs.Observer
}

// DefaultMergeWindow is the emission window RunStream uses when
// Config.MergeWindow is 0: a generous max-duration quantile of the
// paper's session-duration model. The duration fits are seconds-to-hours
// scale — sessions outlasting a full day are deep in the Pareto tail —
// so the window virtually never spills while capping the pending buffer
// at one day's worth of completed sessions even when a session spans the
// whole trace.
const DefaultMergeWindow = simtime.Day

// mergeWindow resolves Config.MergeWindow to the effective window.
func (e *Engine) mergeWindow() simtime.Time {
	switch {
	case e.cfg.MergeWindow > 0:
		return e.cfg.MergeWindow
	case e.cfg.MergeWindow < 0:
		return 0
	default:
		return DefaultMergeWindow
	}
}

// Engine is a parallel sharded fleet simulation. Create with New, execute
// with Run; like capture.Fleet, a second Run returns the memoized trace.
type Engine struct {
	cfg Config
	// newSched builds each node's scheduler. The calendar queue is the
	// production choice — at the full-volume run's pending-event counts it
	// beats the binary heap (see simtime's BenchmarkSchedulerHold and the
	// committed BENCH_pr4.json) — while tests swap in the heap to pin that
	// the engine's output does not depend on the implementation.
	newSched func() simtime.Scheduler

	ran        bool
	merged     *trace.Trace
	stats      capture.FleetStats
	nodeTraces []*trace.Trace
	// peakPending is the streaming merge's high-water mark of completed
	// sessions held behind the emission barrier; every mode sets it (Run
	// feeds the materialized traces through the same streaming merge).
	peakPending int
	// spilled is the merge's outlier count: sessions longer than the
	// emission window, folded in at finish instead of held pending.
	spilled int
	// deadInputs and lostSessions mirror the merge's degradation ledger
	// (stream.Merger): always zero for in-process runs, where no input
	// can die — populated so the perf accounting row is uniform with the
	// distributed collector's, whose inputs can.
	deadInputs   int
	lostSessions uint64
	// schedPerNode is each node's lifetime scheduled-event count — the
	// O(own sessions) scaling metric the keyed tie-break buys, versus the
	// O(global arrivals) every node paid under chain replay.
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

// NodeCount returns the number of vantage points.
func (e *Engine) NodeCount() int { return e.cfg.Fleet.Nodes }

// Run executes the full measurement period once and returns the merged
// trace; subsequent calls return the same trace.
func (e *Engine) Run() *trace.Trace {
	e.run()
	return e.merged
}

// Stats reports the fleet accounting, running the simulation first if
// needed. The same identity as capture.FleetStats holds: Arrivals ==
// Σ Conns + Σ Rejected over the per-node rows.
func (e *Engine) Stats() capture.FleetStats {
	e.run()
	return e.stats
}

// NodeTraces returns each vantage's own trace in node order, running the
// simulation first if needed. The slices alias the engine's records; treat
// them as read-only.
func (e *Engine) NodeTraces() []*trace.Trace {
	e.run()
	return e.nodeTraces
}

func (e *Engine) run() {
	if e.ran {
		return
	}

	if e.cfg.Lookahead > 0 {
		sp := e.cfg.Obs.Begin("simulate",
			obs.A("mode", "bounded"), obs.A("nodes", e.cfg.Fleet.Nodes), obs.A("lookahead", e.cfg.Lookahead))
		e.runBounded(nil)
		sp.End(obs.A("arrivals", e.stats.Arrivals))
	} else {
		e.runEager()
	}
	// The production merge is the streaming k-way merge (fed the
	// materialized per-node traces here); batch trace.Merge remains the
	// reference oracle the equivalence tests compare against.
	msp := e.cfg.Obs.Begin("merge", obs.A("inputs", len(e.nodeTraces)))
	var ms stream.MergeStats
	e.merged, ms = stream.MergeTracesObs(e.cfg.Obs, e.nodeTraces...)
	e.peakPending = ms.PeakPending
	e.spilled = ms.Spilled
	e.deadInputs = ms.DeadInputs
	e.lostSessions = ms.LostSessions
	msp.End(obs.A("conns", len(e.merged.Conns)), obs.A("peak_pending", ms.PeakPending), obs.A("spilled", ms.Spilled))
	e.publishRunMetrics()
	// Mark the memo only after the run completed: a panic recovered by
	// the caller must leave the engine retryable, not poisoned into
	// returning a nil trace and zero stats forever.
	e.ran = true
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

func (e *Engine) runEager() {
	nodeCfg := e.cfg.Fleet.Node
	nodes := e.cfg.Fleet.Nodes
	psp := e.cfg.Obs.Begin("partition", obs.A("nodes", nodes))
	part, shared := partitionArrivals(e.cfg.Fleet)
	psp.End(obs.A("arrivals", len(part.starts)))
	horizon := simtime.Time(nodeCfg.Workload.Days) * simtime.Day

	e.nodeTraces = make([]*trace.Trace, nodes)
	e.schedPerNode = make([]uint64, nodes)
	e.kindsPerNode = make([]capture.EventCounts, nodes)
	perNode := make([]capture.NodeStats, nodes)
	// Schedulers are built on the caller's goroutine (a panicking
	// constructor must surface here, where run()'s memo guard applies,
	// not on a pool worker).
	scheds := make([]simtime.Scheduler, nodes)
	for i := range scheds {
		scheds[i] = e.newSched()
	}
	arrivals := e.cfg.Obs.Counter("engine_arrivals_total", "arrival events fired across all vantage nodes")
	ssp := e.cfg.Obs.Begin("simulate",
		obs.A("mode", "eager"), obs.A("nodes", nodes), obs.A("workers", par.Workers(e.Workers())))
	tasks := make([]func(), nodes)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			node := runNode(nodeCfg, i, scheds[i], shared, part, horizon, arrivals)
			e.nodeTraces[i], perNode[i] = node.Trace(), node.Stats()
			e.schedPerNode[i] = scheds[i].Scheduled()
			e.kindsPerNode[i] = node.EventCounts()
		}
	}
	par.Run(par.Workers(e.Workers()), tasks)
	ssp.End(obs.A("arrivals", len(part.starts)))

	e.stats = capture.FleetStats{
		Arrivals: uint64(len(part.starts)),
		PerNode:  perNode,
	}
	for i := range perNode {
		e.stats.Rejected += perNode[i].Rejected
		e.stats.DroppedQueryEvents += perNode[i].DroppedQueryEvents
	}
}

// PeakPending reports the streaming merge's high-water mark of completed
// sessions held behind the emission barrier. Every execution mode drives
// the streaming merge — RunStream over live producers, Run over the
// materialized per-node traces — so the diagnostic is populated (after
// the run) in every mode.
func (e *Engine) PeakPending() int { return e.peakPending }

// SpilledSessions reports how many merged sessions exceeded the emission
// window and took the merge's spill-to-final-sort path (see
// Config.MergeWindow); 0 when the window never bound.
func (e *Engine) SpilledSessions() int { return e.spilled }

// DeadInputs reports how many merge inputs were evicted instead of
// delivering their trailer. Always 0 for in-process runs (no input can
// die); the accessor exists so the perf accounting row carries the same
// degradation ledger the distributed ingest collector reports.
func (e *Engine) DeadInputs() int { return e.deadInputs }

// LostSessions reports how many sessions evicted inputs left open —
// sessions known lost to input death. Always 0 in-process.
func (e *Engine) LostSessions() uint64 { return e.lostSessions }

// ScheduledPerNode returns each node's lifetime scheduled-event count in
// node order, running the simulation first if needed. With the keyed
// tie-break this is O(own sessions × events per session) per node; under
// the old chain replay every node also paid one event per *global*
// arrival, which is the superlinearity the high-node-count benchmark
// guards against.
func (e *Engine) ScheduledPerNode() []uint64 {
	e.run()
	return e.schedPerNode
}

// Workers returns the configured worker bound (unresolved; 0 means
// machine-sized).
func (e *Engine) Workers() int { return e.cfg.Workers }

// ownedSession is one node-owned arrival: the session object plus its
// global chain position, which is the Epoch of its precomputed tie-break
// key.
type ownedSession struct {
	sess *behavior.Session
	gidx uint64
}

// partition is the pre-sharded arrival stream: every arrival instant in
// chain order (shared, read-only — the keyed runs' chain cursors search
// it), and the session objects split per node in the same chain order
// with their global positions, so a node consumes its list front to back.
type partition struct {
	starts  []simtime.Time
	perNode [][]ownedSession
}

// partitionArrivals replays the arrival process to the horizon. The
// generator and the session-GUID source are consumed in exactly the order
// the sequential fleet consumes them — the fleet draws both inside the
// arrival-chain events, which fire in generation order — so the sharding
// is bit-equal to the fleet's.
func partitionArrivals(cfg capture.FleetConfig) (*partition, *capture.SharedModel) {
	gen := behavior.NewGenerator(cfg.Node.Workload)
	shared := capture.NewSharedModel(gen)
	guids := guid.NewSource(cfg.Node.Workload.Seed, capture.SessionGUIDSalt)
	p := &partition{perNode: make([][]ownedSession, cfg.Nodes)}
	var k uint64
	for sess := gen.Next(); sess != nil; sess = gen.Next() {
		g := guids.Next()
		n := g.Shard(cfg.Nodes)
		p.starts = append(p.starts, sess.Start)
		p.perNode[n] = append(p.perNode[n], ownedSession{sess: sess, gidx: k})
		k++
	}
	return p, shared
}

// chainCount returns the first chain position ≥ from that does NOT fire
// before an implicit event with key (at, epoch, pos ≥ 1) — equivalently,
// how many global arrivals precede that event in the total order. A chain
// entry j (key (starts[j], j, 0)) precedes the event iff starts[j] < at,
// or starts[j] == at and j ≤ epoch. The predicate is monotone in j
// (starts are nondecreasing) and fired keys are nondecreasing, so callers
// pass a forward-only cursor as from; galloping plus binary search makes
// the amortized cost O(log jump) per fired event, independent of the
// global arrival count.
func chainCount(starts []simtime.Time, from uint64, at simtime.Time, epoch uint64) uint64 {
	return chainBoundary(uint64(len(starts)), from, func(j uint64) bool {
		return starts[j] < at || (starts[j] == at && j <= epoch)
	})
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

// keyedRun is one vantage's event loop under the keyed tie-break: it
// schedules only the node's own arrivals (each with its precomputed
// explicit key) and, as the scheduler's pre-fire hook, maintains the
// virtual chain cursor that keeps every implicit key bit-equal to the
// sequential fleet's FIFO counter. One reusable object serves as the
// arrival event for every own session, so arrivals cost no per-event
// closure allocations.
type keyedRun struct {
	sched    simtime.Scheduler
	node     *capture.Node
	starts   []simtime.Time
	mine     []ownedSession
	cursor   int    // next own session
	chainPos uint64 // global arrivals counted as dispatched so far
	// arrivals is the fleet-wide throughput counter (atomic; nil when no
	// registry is installed — the Inc is then a nil-check no-op).
	arrivals *obs.Counter
}

// beforeFire is the scheduler's pre-fire hook. Own arrivals carry Pos 0
// (Pos ≥ 1 is reserved for implicit keys by the Reseed below), so the
// Epoch is the arrival's own chain position and the cursor jumps past it
// directly. For implicit events the cursor advances by searching the
// shared starts array; when it moved, the implicit key is reseeded to
// (cursor, 1) — Pos 0 of the new epoch stays reserved for the arrival
// holding that chain position, exactly as the sequential fleet's
// dispatcher orders it.
func (r *keyedRun) beforeFire(at simtime.Time, key simtime.SeqKey) {
	if key.Pos == 0 {
		r.chainPos = key.Epoch + 1
		r.sched.Reseed(simtime.SeqKey{Epoch: r.chainPos, Pos: 1})
		return
	}
	if p := chainCount(r.starts, r.chainPos, at, key.Epoch); p > r.chainPos {
		r.chainPos = p
		r.sched.Reseed(simtime.SeqKey{Epoch: p, Pos: 1})
	}
}

// Fire dispatches the node's next own session: schedule the following own
// arrival at its precomputed key, then deliver this one — mirroring the
// fleet dispatcher's schedule-next-then-dispatch order.
func (r *keyedRun) Fire(now simtime.Time) {
	i := r.cursor
	r.cursor++
	if r.cursor < len(r.mine) {
		next := r.mine[r.cursor]
		r.node.ScheduleArrival(next.sess.Start, simtime.SeqKey{Epoch: next.gidx}, r)
	}
	sess := r.mine[i].sess
	// Release consumed sessions as the run progresses; at full volume
	// the partitioned session set is the engine's main memory cost.
	r.mine[i].sess = nil
	r.arrivals.Inc()
	r.node.Arrive(now, sess)
}

// runNode simulates one vantage to the horizon on its own scheduler.
func runNode(cfg capture.Config, idx int, sched simtime.Scheduler, shared *capture.SharedModel, part *partition, horizon simtime.Time, arrivals *obs.Counter) *capture.Node {
	// Reserve Pos 0 of epoch 0 for the virtual chain head before anything
	// is scheduled, keeping the epoch/Pos split an invariant from the
	// first event on.
	sched.Reseed(simtime.SeqKey{Epoch: 0, Pos: 1})
	node := capture.NewNode(cfg, idx, sched, shared)
	r := &keyedRun{sched: sched, node: node, starts: part.starts, mine: part.perNode[idx], arrivals: arrivals}
	sched.SetFireHook(r.beforeFire)
	if len(r.mine) > 0 {
		node.ScheduleArrival(r.mine[0].sess.Start, simtime.SeqKey{Epoch: r.mine[0].gidx}, r)
	}
	sched.RunUntil(horizon)
	node.FinalizeOpen(horizon)
	return node
}
