package capture

import (
	"runtime"
	"testing"
	"unsafe"

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

// simulateVantage runs the single-vantage measurement to the horizon,
// drains the node's stream through a one-input merge and returns the
// drained trace and the node's accounting row.
func simulateVantage(cfg Config) (*trace.Trace, NodeStats) {
	gen := behavior.NewGenerator(cfg.Workload)
	shared := NewSharedModel(gen)
	var sessions []*behavior.Session
	for s := gen.Next(); s != nil; s = gen.Next() {
		sessions = append(sessions, s)
	}
	m := stream.NewMerger(1, nil)
	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()
	sched := simtime.NewScheduler()
	node := NewNode(cfg, 0, sched, shared, stream.NewProducer(0, m.Intake()))
	if len(sessions) > 0 {
		sched.Schedule(sessions[0].Start, &arrivalFeed{node: node, sched: sched, sess: sessions})
	}
	horizon := simtime.Time(cfg.Workload.Days) * simtime.Day
	sched.RunUntil(horizon)
	node.Finish(horizon)
	return <-done, node.Stats()
}

// TestEventLoopAllocationBudget holds the event loop to its allocation
// rules: recycled scheduler items, typed event records, direct recording,
// calendar buckets that keep their arrays across size changes and
// keyword keys counted from a reused buffer leave the per-connection
// set-up (the connection, its trace record, map growth) and each day's
// first sighting of a keyword set as nearly the only allocations: 0.087
// per scheduled event, under a budget of 0.10. The closure-based loop paid
// ≈ 3.1.
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
	node := NewNode(cfg, 0, sched, shared, stream.NewProducer(0, intake))
	feed := &arrivalFeed{node: node, sched: sched, sess: sessions}
	sched.Schedule(sessions[0].Start, feed)
	horizon := simtime.Time(cfg.Workload.Days) * simtime.Day

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sched.RunUntil(horizon)
	runtime.ReadMemStats(&after)

	node.Finish(horizon)
	close(intake)
	<-drained

	events := sched.Scheduled()
	if events < 100_000 {
		t.Fatalf("only %d events scheduled; the run is too small to mean anything", events)
	}
	perEvent := float64(after.Mallocs-before.Mallocs) / float64(events)
	t.Logf("%d allocations over %d scheduled events = %.3f per event", after.Mallocs-before.Mallocs, events, perEvent)
	if perEvent > 0.10 {
		t.Errorf("%.3f allocations per scheduled event, budget 0.10", perEvent)
	}
}

// TestSimConnSizeClass pins the accepted connection, allocated once per
// admitted session, to the runtime's 320-byte size class.
func TestSimConnSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(simConn{}); n > 320 {
		t.Errorf("simConn is %d bytes, budget 320", n)
	}
}
