package capture

import (
	"repro/internal/behavior"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/vocab"
)

// SessionGUIDSalt seeds the fleet's session-GUID stream — the identity
// every arriving session is tagged with before guid.Shard assigns it to a
// vantage. It is exported so every driver of a fleet (internal/engine's
// producer and its test oracle) draws the one GUID sequence the sharding
// is defined by.
const SessionGUIDSalt = 0x5e5510b

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

// SharedModel bundles the immutable model state every vantage of one
// deployment shares: the conditional session model, the geographic address
// registry, and the query vocabulary. All three are safe for concurrent
// readers (the vocabulary's lazy per-(class, day) rankings are built behind
// sync.Once), which is what lets internal/engine run vantage event loops
// on separate goroutines against one SharedModel.
type SharedModel struct {
	params *model.Params
	geoReg *geo.Registry
	vocab  *vocab.Vocabulary
}

// NewSharedModel extracts the shared state from the arrival generator —
// required for byte-identity, since vocabulary draws depend on the
// ranking state's seed.
func NewSharedModel(gen *behavior.Generator) *SharedModel {
	return &SharedModel{
		params: gen.Workload().Params(),
		geoReg: geo.Default(),
		vocab:  gen.Workload().Vocabulary(),
	}
}

// Node is one measurement vantage, the unit internal/engine drives,
// constructed around a caller-owned scheduler so its event loop can live
// on its own goroutine with its own clock. All methods must be called
// from that one goroutine (the vantage shares no mutable state with other
// nodes — only the SharedModel, which is read-only).
type Node struct {
	v *vantage
}

// NewNode builds vantage idx of an N-node deployment around the given
// scheduler in retained mode: every record accumulates in the node's own
// trace (Trace). The node's random streams are salted by idx, so the
// trace depends only on the arrivals delivered and the order the
// scheduler fires them.
func NewNode(cfg Config, idx int, sched simtime.Scheduler, sh *SharedModel) *Node {
	return &Node{v: newVantage(cfg, idx, sched, sh)}
}

// NewNodeStream builds the same vantage in streaming-sink mode: records
// are emitted into the producer as they finalize — session records at
// close, pong/hit records at receipt — and released, instead of
// accumulating in the node's trace. The simulation's event and random
// streams are bit-identical to the retained mode; only record storage
// differs, so draining the emitted stream reproduces the retained trace
// (pinned by internal/engine's oracle tests). Trace() on a streaming node
// returns an empty record set (aggregate counters only).
func NewNodeStream(cfg Config, idx int, sched simtime.Scheduler, sh *SharedModel, sink *stream.Producer) *Node {
	n := &Node{v: newVantage(cfg, idx, sched, sh)}
	n.v.sink = sink
	return n
}

// Arrive delivers one session arrival assigned to this vantage: the node
// accepts it subject to its MaxConns cap and schedules the session's
// message events on its scheduler.
func (n *Node) Arrive(now simtime.Time, sess *behavior.Session) {
	n.v.arrive(now, sess)
}

// ScheduleArrival queues the driver's arrival event on the node's
// scheduler at the explicit tie-break key, counting it under KindArrival
// so EventCounts covers everything the scheduler was given.
func (n *Node) ScheduleArrival(at simtime.Time, key simtime.SeqKey, e simtime.Event) {
	n.v.counts[KindArrival]++
	n.v.sched.ScheduleKeyed(at, key, e)
}

// EventCounts returns how many events the node has scheduled, by kind.
func (n *Node) EventCounts() EventCounts { return n.v.counts }

// FinalizeOpen right-censors every still-open connection at the horizon —
// the collection end of a measurement run, exactly as a real trace
// collection ends with connections still open. Call it after the
// scheduler has run to the horizon.
func (n *Node) FinalizeOpen(horizon simtime.Time) {
	for _, c := range n.v.conns {
		if !c.closed {
			n.v.finalize(c, horizon, false)
		}
	}
}

// FinishStream emits the streaming trailer — the aggregate message
// counters plus the trace metadata the merge folds into the merged trace
// — and flushes the producer. Call it once, after FinalizeOpen, on a node
// built with NewNodeStream.
func (n *Node) FinishStream(horizon simtime.Time) {
	v := n.v
	v.sink.Done(horizon, &stream.End{
		Counts:         v.out.Counts,
		Seed:           v.out.Seed,
		Scale:          v.out.Scale,
		Days:           v.out.Days,
		Nodes:          1,
		PongSampleRate: v.out.PongSampleRate,
		HitSampleRate:  v.out.HitSampleRate,
	})
}

// Trace returns the node's own recorded trace.
func (n *Node) Trace() *trace.Trace { return n.v.out }

// Stats returns the node's accounting row. nextID counts accepted
// arrivals, so the row is identical in retained and streaming modes.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Node:               n.v.nodeIdx,
		Conns:              n.v.nextID,
		Rejected:           n.v.rejected,
		PeakConns:          n.v.peak,
		DroppedQueryEvents: n.v.droppedQueryEvents,
	}
}
