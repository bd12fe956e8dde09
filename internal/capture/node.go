package capture

import (
	"repro/internal/behavior"
	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/simtime"
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
// deployment shares: the conditional session model and the geographic
// address registry. Both are read-only, which is what lets internal/engine
// run vantage event loops on separate goroutines against one SharedModel.
// No vantage reads the query vocabulary: client queries arrive with their
// text, and forwarded queries are counted, never resolved.
type SharedModel struct {
	params *model.Params
	geoReg *geo.Registry
}

// NewSharedModel extracts the shared state from the arrival generator, so
// the vantages draw from the same session model the arrivals came from.
func NewSharedModel(gen *behavior.Generator) *SharedModel {
	return &SharedModel{
		params: gen.Workload().Params(),
		geoReg: geo.Default(),
	}
}

// ScheduleArrival queues the driver's arrival event on the node's
// scheduler at the explicit tie-break key, counting it under KindArrival
// so EventCounts covers everything the scheduler was given.
func (s *Node) ScheduleArrival(at simtime.Time, key simtime.SeqKey, e simtime.Event) {
	s.counts[KindArrival]++
	s.sched.ScheduleKeyed(at, key, e)
}

// EventCounts returns how many events the node has scheduled, by kind.
func (s *Node) EventCounts() EventCounts { return s.counts }

// Finish ends the run at the horizon (Recorder.Finish: the open sessions
// are censored there, then the trailer is emitted). Call it once, after
// the scheduler has run to the horizon.
func (s *Node) Finish(horizon simtime.Time) { s.rec.Finish(horizon) }

// Stats returns the node's accounting row.
func (s *Node) Stats() NodeStats {
	return NodeStats{
		Node:               s.nodeIdx,
		Conns:              int(s.rec.nextID),
		Rejected:           s.rec.rejected,
		PeakConns:          s.rec.peak,
		DroppedQueryEvents: s.droppedQueryEvents,
	}
}
