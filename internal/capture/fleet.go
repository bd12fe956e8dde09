package capture

import (
	"repro/internal/behavior"
	"repro/internal/guid"
	"repro/internal/simtime"
	"repro/internal/trace"
)

// FleetConfig parameterizes a multi-vantage measurement deployment.
type FleetConfig struct {
	// Node is the per-vantage configuration; every node runs the paper's
	// methodology (200-connection cap, probe liveness rule) against its
	// shard of the arrival stream.
	Node Config
	// Nodes is the number of cooperating ultrapeer vantage points. Values
	// below 1 mean 1. Sized so the per-node caps don't bind, the fleet
	// records the entire arrival stream — ≈4.36 M connections over the
	// paper's 40 days at scale 1.0 — where the single node's cap limits
	// it to ≈197 k.
	Nodes int
}

// NodeStats summarizes one vantage node's run.
type NodeStats struct {
	// Node is the vantage index.
	Node int
	// Conns is the number of arrivals the node accepted and recorded.
	Conns int
	// Rejected counts arrivals assigned to this node that found all
	// MaxConns slots busy.
	Rejected uint64
	// PeakConns is the maximum simultaneous connection count — the
	// cap-sizing diagnostic: a fleet records the full arrival stream iff
	// every node's peak stays below MaxConns.
	PeakConns int
	// DroppedQueryEvents counts client query events that found their
	// connection already closed (diagnostic).
	DroppedQueryEvents uint64
}

// FleetStats aggregates a fleet run. The accounting identity
// Arrivals == Σ Conns + Σ Rejected over the per-node rows is pinned by
// test: every generated arrival is either recorded by exactly one vantage
// or rejected by exactly one vantage.
type FleetStats struct {
	// Arrivals is the total number of session arrivals the workload
	// generated over the measurement period.
	Arrivals uint64
	// Rejected sums the per-node rejections.
	Rejected uint64
	// DroppedQueryEvents sums the per-node diagnostic counters.
	DroppedQueryEvents uint64
	// PerNode holds one row per vantage, in node order.
	PerNode []NodeStats
}

// Fleet is a multi-vantage measurement simulation: N ultrapeer nodes
// observing one simulated Gnutella network. All nodes share the discrete-
// event clock and the arrival stream; each arriving session is assigned a
// GUID and consistently sharded onto one vantage (guid.Shard), which
// accepts it subject to its own MaxConns cap and records it in its own
// trace. Run returns the merged full-volume trace (trace.Merge).
//
// Determinism: the arrival stream, the GUID sharding and every per-node
// random stream are seeded functions of the configuration, so a fleet run
// is byte-for-byte reproducible, and the merged trace is independent of
// the order in which per-node traces are merged (pinned by test).
type Fleet struct {
	cfg       FleetConfig
	sched     simtime.Scheduler
	gen       *behavior.Generator
	shared    *SharedModel
	sessGUIDs *guid.Source
	nodes     []*vantage
	// next is the generated session whose arrival event is pending.
	next     *behavior.Session
	arrivals uint64
	ran      bool
	merged   *trace.Trace
}

// NewFleet builds a fleet.
func NewFleet(cfg FleetConfig) *Fleet {
	if cfg.Nodes < 1 {
		cfg.Nodes = 1
	}
	gen := behavior.NewGenerator(cfg.Node.Workload)
	f := &Fleet{
		cfg:    cfg,
		sched:  simtime.NewScheduler(),
		gen:    gen,
		shared: NewSharedModel(gen),
		// The session-GUID stream is its own source so that sharding
		// never perturbs the per-node streams: a one-node fleet draws
		// exactly the historical single-node trace.
		sessGUIDs: guid.NewSource(cfg.Node.Workload.Seed, SessionGUIDSalt),
	}
	f.nodes = make([]*vantage, cfg.Nodes)
	for i := range f.nodes {
		f.nodes[i] = newVantage(cfg.Node, i, f.sched, f.shared)
	}
	return f
}

// NodeCount returns the number of vantage points.
func (f *Fleet) NodeCount() int { return len(f.nodes) }

// Run executes the full measurement period once and returns the merged
// trace; subsequent calls return the same trace. The measurement stops at
// the configured horizon: sessions still connected are right-censored
// there on every node, exactly as a real trace collection ends with
// connections still open.
func (f *Fleet) Run() *trace.Trace {
	f.run()
	return f.merged
}

func (f *Fleet) run() {
	if f.ran {
		return
	}
	f.ran = true
	horizon := simtime.Time(f.cfg.Node.Workload.Days) * simtime.Day
	// Prime the arrival chain.
	if f.next = f.gen.Next(); f.next != nil {
		f.sched.Schedule(f.next.Start, fleetArrival{f})
	}
	f.sched.RunUntil(horizon)
	for _, n := range f.nodes {
		for _, c := range n.conns {
			if !c.closed {
				n.finalize(c, horizon, false)
			}
		}
	}
	f.merged = trace.Merge(f.NodeTraces()...)
}

// fleetArrival is the arrival chain's event: one pointer-sized value
// serves every arrival, the pending session living in Fleet.next.
type fleetArrival struct{ f *Fleet }

// Fire schedules the next arrival, then dispatches this one to its
// vantage. The session is tagged with a GUID — the measurement fabric's
// session identity — and the GUID's consistent hash picks the node, so
// growing the fleet moves only ≈1/(N+1) of the sessions (guid.Shard).
func (a fleetArrival) Fire(now simtime.Time) {
	f := a.f
	sess := f.next
	if f.next = f.gen.Next(); f.next != nil {
		f.sched.Schedule(f.next.Start, a)
	}
	f.arrivals++
	g := f.sessGUIDs.Next()
	f.nodes[g.Shard(len(f.nodes))].arrive(now, sess)
}

// NodeTraces returns each vantage's own trace, in node order, running the
// simulation first if needed. The slices alias the fleet's records; treat
// them as read-only.
func (f *Fleet) NodeTraces() []*trace.Trace {
	if !f.ran {
		f.run()
	}
	out := make([]*trace.Trace, len(f.nodes))
	for i, n := range f.nodes {
		out[i] = n.out
	}
	return out
}

// Stats reports the fleet's accounting, running the simulation first if
// needed.
func (f *Fleet) Stats() FleetStats {
	if !f.ran {
		f.run()
	}
	st := FleetStats{Arrivals: f.arrivals, PerNode: make([]NodeStats, len(f.nodes))}
	for i, n := range f.nodes {
		st.PerNode[i] = NodeStats{
			Node:               i,
			Conns:              n.nextID,
			Rejected:           n.rejected,
			PeakConns:          n.peak,
			DroppedQueryEvents: n.droppedQueryEvents,
		}
		st.Rejected += n.rejected
		st.DroppedQueryEvents += n.droppedQueryEvents
	}
	return st
}
