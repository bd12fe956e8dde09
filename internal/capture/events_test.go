package capture

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/simtime"
	"repro/internal/stream"
)

// TestOverlappingProbesGoldenHash pins a trace in which probe machinery
// events of one connection overlap: with ProbeIdle and ProbeRearmIdle at
// 5 s and ProbeTimeout at 15 s, an answered probe is followed by the next
// one while up to three earlier deadlines are still pending, each holding
// a different probe instant. An event loop that kept one deadline record
// per connection would close live connections (or keep dead ones) and
// change the hash, which was recorded with the closure-based loop that
// preceded the typed events.
func TestOverlappingProbesGoldenHash(t *testing.T) {
	cfg := DefaultConfig(2004, 0.02)
	cfg.Workload.Days = 1
	cfg.ProbeIdle = 5 * time.Second
	cfg.ProbeTimeout = 15 * time.Second
	cfg.ProbeRearmIdle = 5 * time.Second
	tr := NewFleet(FleetConfig{Node: cfg, Nodes: 2}).Run()
	h, err := tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	const want = "8664419e58da76d80ccb836aec8e74871c4ac432312620d12414ff7a50d5ec7d"
	if got := fmt.Sprintf("%x", h); got != want {
		t.Fatalf("trace hash %s, want %s", got, want)
	}
}

// arrivalFeed delivers pre-generated sessions to one node, one reused
// event for the whole chain.
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
