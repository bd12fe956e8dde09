package capture

import (
	"runtime"
	"testing"

	"repro/internal/behavior"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
)

// arrivalFeed delivers pre-generated sessions to one node, one reused
// event for the whole chain: it schedules the next arrival before it
// delivers this one, on the scheduler's implicit FIFO order — the paper's
// single-vantage deployment exactly.
type arrivalFeed struct {
	node  *Node
	sched simtime.Scheduler
	sess  []*behavior.Session
}

func (a *arrivalFeed) Fire(now simtime.Time) {
	s := a.sess[0]
	a.sess = a.sess[1:]
	if len(a.sess) > 0 {
		a.sched.Schedule(a.sess[0].Start, a)
	}
	a.node.Arrive(now, s)
}

// simulateVantage runs the single-vantage measurement to the horizon in
// retained mode and returns the node's trace and accounting row.
func simulateVantage(cfg Config) (*trace.Trace, NodeStats) {
	gen := behavior.NewGenerator(cfg.Workload)
	shared := NewSharedModel(gen)
	var sessions []*behavior.Session
	for s := gen.Next(); s != nil; s = gen.Next() {
		sessions = append(sessions, s)
	}
	sched := simtime.NewScheduler()
	node := NewNode(cfg, 0, sched, shared)
	if len(sessions) > 0 {
		sched.Schedule(sessions[0].Start, &arrivalFeed{node: node, sched: sched, sess: sessions})
	}
	horizon := simtime.Time(cfg.Workload.Days) * simtime.Day
	sched.RunUntil(horizon)
	node.FinalizeOpen(horizon)
	return node.Trace(), node.Stats()
}

// TestEventLoopAllocationBudget holds the event loop to its allocation
// rules: recycled scheduler items, typed event records and scratch
// payloads leave the per-connection set-up (the connection, its overlay
// state, its trace record, map growth) as the only allocations, well
// under one per two scheduled events. The closure-based loop paid ≈ 3.1.
func TestEventLoopAllocationBudget(t *testing.T) {
	cfg := DefaultConfig(2004, 0.02)
	cfg.Workload.Days = 1
	gen := behavior.NewGenerator(cfg.Workload)
	shared := NewSharedModel(gen)
	var sessions []*behavior.Session
	for s := gen.Next(); s != nil; s = gen.Next() {
		sessions = append(sessions, s)
	}

	intake := make(chan stream.Batch, 16)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range intake {
		}
	}()
	sched := simtime.NewCalendarScheduler()
	node := NewNodeStream(cfg, 0, sched, shared, stream.NewProducer(0, intake))
	feed := &arrivalFeed{node: node, sched: sched, sess: sessions}
	sched.Schedule(sessions[0].Start, feed)
	horizon := simtime.Time(cfg.Workload.Days) * simtime.Day

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sched.RunUntil(horizon)
	runtime.ReadMemStats(&after)

	node.FinalizeOpen(horizon)
	node.FinishStream(horizon)
	close(intake)
	<-drained

	events := sched.Scheduled()
	if events < 100_000 {
		t.Fatalf("only %d events scheduled; the run is too small to mean anything", events)
	}
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d allocations over %d scheduled events = %.3f per event", after.Mallocs-before.Mallocs, events, perEvent)
	if perEvent > 0.5 {
		t.Errorf("%.3f allocations per scheduled event, budget 0.5", perEvent)
	}
}
