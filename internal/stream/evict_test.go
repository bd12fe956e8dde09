package stream_test

import (
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/trace"
)

// sessRec builds a query-less session record for barrier tests.
func sessRec(start, end trace.Time) *stream.SessionRecord {
	return &stream.SessionRecord{Conn: trace.Conn{Start: start, End: end}}
}

// TestMergerEvictionResumesStalledBarrier is the liveness contract: an
// input whose watermark stops advancing stalls the emission barrier at
// its last watermark; evicting it releases the barrier, the merge drains,
// and the loss is accounted exactly — its closed sessions stay in the
// trace, its still-open sessions are counted in LostSessions, and the
// input itself in DeadInputs.
func TestMergerEvictionResumesStalledBarrier(t *testing.T) {
	var order []trace.Time
	sink := sinkFunc(func(c *trace.Conn, _ []trace.Query) { order = append(order, c.Start) })
	m := stream.NewMerger(2, sink)
	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()

	// Input 0 is healthy: two sessions, trailer at the horizon.
	p0 := stream.NewProducer(0, m.Intake())
	p0.Open(1, 1*time.Second)
	p0.Close(1, 2*time.Second, sessRec(1*time.Second, 2*time.Second))
	p0.Open(2, 3*time.Second)
	p0.Close(2, 4*time.Second, sessRec(3*time.Second, 4*time.Second))
	p0.Done(10*time.Second, &stream.End{Days: 1, Nodes: 1})

	// Input 1 opens two sessions, closes one, then goes silent forever —
	// without eviction the barrier would hold at its watermark and Run
	// would never return.
	p1 := stream.NewProducer(1, m.Intake())
	p1.Open(7, 500*time.Millisecond)
	p1.Open(8, 6*time.Second)
	p1.Close(8, 7*time.Second, sessRec(6*time.Second, 7*time.Second))
	p1.Flush()

	// The liveness layer declares input 1 dead, with a partial trailer
	// synthesized from what was actually applied.
	m.Intake() <- stream.Batch{Input: 1, Events: []stream.Event{{
		Kind: stream.EvEvict,
		Done: &stream.End{Nodes: 1},
	}}}

	tr := <-done
	if len(tr.Conns) != 3 {
		t.Fatalf("merged %d conns, want 3 (two healthy + one closed before death)", len(tr.Conns))
	}
	if m.DeadInputs() != 1 {
		t.Fatalf("DeadInputs = %d, want 1", m.DeadInputs())
	}
	if m.LostSessions() != 1 {
		t.Fatalf("LostSessions = %d, want 1 (session 7 was open at eviction)", m.LostSessions())
	}
	if tr.Nodes != 2 {
		t.Fatalf("Nodes = %d, want 2 (the dead vantage still existed)", tr.Nodes)
	}
	// The drained order is still the merged total order over what arrived.
	for i := 1; i < len(order); i++ {
		if order[i-1] > order[i] {
			t.Fatalf("post-eviction emission out of order: %v", order)
		}
	}
}

// TestMergerEvictAfterDoneIgnored: an eviction racing a completed input
// must be a no-op — remain must not go negative, nothing is counted lost.
func TestMergerEvictAfterDoneIgnored(t *testing.T) {
	m := stream.NewMerger(2, nil)
	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()

	p1 := stream.NewProducer(1, m.Intake())
	p1.Open(1, 1*time.Second)
	p1.Close(1, 2*time.Second, sessRec(1*time.Second, 2*time.Second))
	p1.Done(5*time.Second, &stream.End{Days: 1, Nodes: 1})

	// Late eviction for the already-finished input: dropped on the floor.
	m.Intake() <- stream.Batch{Input: 1, Events: []stream.Event{{Kind: stream.EvEvict}}}

	p0 := stream.NewProducer(0, m.Intake())
	p0.Open(1, 1*time.Second)
	p0.Close(1, 3*time.Second, sessRec(1*time.Second, 3*time.Second))
	p0.Done(5*time.Second, &stream.End{Days: 1, Nodes: 1})

	tr := <-done
	if m.DeadInputs() != 0 || m.LostSessions() != 0 {
		t.Fatalf("eviction after EvDone counted: dead=%d lost=%d", m.DeadInputs(), m.LostSessions())
	}
	if len(tr.Conns) != 2 || tr.Nodes != 2 {
		t.Fatalf("merged %d conns / %d nodes, want 2 / 2", len(tr.Conns), tr.Nodes)
	}
}

// TestMergeTracesStatsNoDeadInputs: an in-process merge of live streams
// can never lose an input, so the merger must report a clean ledger.
func TestMergeTracesStatsNoDeadInputs(t *testing.T) {
	traces := fleetTraces(t, 17, 1, 2)
	m := stream.NewMerger(len(traces), nil)
	drain(m, traces...)
	if m.DeadInputs() != 0 || m.LostSessions() != 0 {
		t.Fatalf("in-process merge reported losses: dead=%d lost=%d", m.DeadInputs(), m.LostSessions())
	}
}
