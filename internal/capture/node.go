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
// vantage. It is exported so internal/engine's arrival pre-partitioning
// draws the exact GUID sequence the sequential Fleet draws.
const SessionGUIDSalt = 0x5e5510b

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

// NewSharedModel extracts the shared state from the arrival generator, the
// same instances the sequential Fleet hands its vantages — required for
// byte-identity, since vocabulary draws depend on the ranking state's seed.
func NewSharedModel(gen *behavior.Generator) *SharedModel {
	return &SharedModel{
		params: gen.Workload().Params(),
		geoReg: geo.Default(),
		vocab:  gen.Workload().Vocabulary(),
	}
}

// Node is one exported measurement vantage, the unit internal/engine
// drives: the same vantage type the Fleet runs, constructed around a
// caller-owned scheduler so its event loop can live on its own goroutine
// with its own clock. All methods must be called from that one goroutine
// (the vantage shares no mutable state with other nodes — only the
// SharedModel, which is read-only).
type Node struct {
	v *vantage
}

// NewNode builds vantage idx of an N-node deployment around the given
// scheduler. The node's random streams are salted exactly as the Fleet
// salts them, so a Node-driven simulation reproduces the Fleet's per-node
// traces byte for byte (pinned by internal/engine's equivalence tests).
func NewNode(cfg Config, idx int, sched simtime.Scheduler, sh *SharedModel) *Node {
	return &Node{v: newVantage(cfg, idx, sched, sh)}
}

// NewNodeStream builds the same vantage in streaming-sink mode: records
// are emitted into the producer as they finalize — session records at
// close, pong/hit records at receipt — and released, instead of
// accumulating in the node's trace. The simulation's event and random
// streams are bit-identical to the retained mode; only record storage
// differs, so draining the emitted stream reproduces the batch trace
// (pinned by internal/engine's streaming equivalence tests). Trace() on a
// streaming node returns an empty record set (aggregate counters only).
func NewNodeStream(cfg Config, idx int, sched simtime.Scheduler, sh *SharedModel, sink *stream.Producer) *Node {
	n := &Node{v: newVantage(cfg, idx, sched, sh)}
	n.v.sink = sink
	return n
}

// Arrive delivers one session arrival assigned to this vantage, exactly as
// the Fleet's dispatcher does: the node accepts it subject to its MaxConns
// cap and schedules the session's message events on its scheduler.
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
// the collection end of a measurement run, identical to the Fleet's
// end-of-run pass. Call it after the scheduler has run to the horizon.
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

// Stats returns the node's accounting row, shaped exactly like the
// Fleet's per-node stats. nextID counts accepted arrivals, so the row is
// identical in retained and streaming modes.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Node:               n.v.nodeIdx,
		Conns:              n.v.nextID,
		Rejected:           n.v.rejected,
		PeakConns:          n.v.peak,
		DroppedQueryEvents: n.v.droppedQueryEvents,
	}
}
