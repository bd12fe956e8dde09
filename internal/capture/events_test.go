package capture

import (
	"runtime"
	"testing"
	"time"
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
// rules: scheduler items, event records and connections recycled through
// pools grown a block at a time (a connection once nothing queued names
// it), session records handed out of slabs, direct recording, calendar
// buckets that keep their arrays across size changes and keyword keys
// counted from a reused buffer leave each session's query list, map
// growth and each day's first sighting of a keyword set as nearly the
// only allocations: 0.010 per scheduled event, under a budget of 0.04.
// The closure-based loop paid ≈ 3.1.
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
	if perEvent > 0.04 {
		t.Errorf("%.3f allocations per scheduled event, budget 0.04", perEvent)
	}
}

// TestReusedConnHoldsOnlyItsOwnTraffic closes a connection while events
// of its are still queued (a routed-back hit, the remote chains) and
// checks the vantage reuses it only once the last of them has fired: a
// session arriving in between gets a connection of its own, the next one
// gets the released connection, and each record holds only its own
// traffic. Both sessions' queries have no keywords, so nothing answers
// them and a hit on either record could only be the closed session's.
func TestReusedConnHoldsOnlyItsOwnTraffic(t *testing.T) {
	cfg := DefaultConfig(2004, 0.01)
	sched := simtime.NewScheduler()
	intake := make(chan stream.Batch, 1)
	recs := make(chan map[uint64]stream.SessionRecord)
	go func() {
		got := make(map[uint64]stream.SessionRecord)
		for b := range intake {
			for _, ev := range b.Events {
				if ev.Kind == stream.EvClose {
					got[ev.ID] = *ev.Sess
				}
			}
		}
		recs <- got
	}()
	v := NewNode(cfg, 0, sched, NewSharedModel(behavior.NewGenerator(cfg.Workload)), stream.NewProducer(0, intake))
	session := func(start time.Duration, agent string) *behavior.Session {
		return &behavior.Session{Start: start, Duration: time.Hour, UserAgent: agent,
			Queries: []behavior.TimedQuery{{Offset: time.Second, Text: " "}}}
	}

	// Session A takes the connection the test peeks at (the pool hands
	// back the value put last), queries, and closes at 5 s with a
	// routed-back hit for its query still due at 20 s.
	id := v.conns.Get()
	a := v.conns.At(id)
	v.conns.Put(id)
	v.Arrive(0, session(0, "A"))
	sched.RunUntil(5 * time.Second)
	v.scheduleArg(20*time.Second, a, KindResponseHit, 0)
	v.finalize(a, sched.Now(), false)

	// Session B arrives while A's events are queued.
	sched.RunUntil(6 * time.Second)
	if v.rec.open[0] != nil || a.pending == 0 {
		t.Fatalf("connection A not closed with events pending (%d pending)", a.pending)
	}
	v.Arrive(sched.Now(), session(sched.Now(), "B"))
	if v.rec.open[1] == &a.Record {
		t.Fatal("session B reuses a connection with events still queued")
	}

	// Once A's last event has fired, session C gets its connection.
	for a.pending > 0 && sched.Step() {
	}
	start := sched.Now()
	v.Arrive(start, session(start, "C"))
	if v.rec.open[2] != &a.Record {
		t.Fatal("session C did not reuse the released connection")
	}
	horizon := start + 2*time.Hour
	sched.RunUntil(horizon)
	v.rec.Finish(horizon)
	close(intake)

	got := <-recs
	for id, agent := range []string{"A", "B", "C"} {
		r, ok := got[uint64(id)]
		if !ok {
			t.Fatalf("no record for session %s", agent)
		}
		if r.Conn.ID != uint64(id) || r.Conn.UserAgent != agent {
			t.Errorf("record %d is %+v, want session %s's", id, r.Conn, agent)
		}
		if len(r.Queries) != 1 || r.Queries[0].ConnID != uint64(id) || r.Queries[0].Hits != 0 {
			t.Errorf("session %s's record holds queries %+v, want its one unanswered query", agent, r.Queries)
		}
	}
	if got[2].Conn.Start != start {
		t.Errorf("session C starts at %v, want %v", got[2].Conn.Start, start)
	}
}

// TestSimConnSizeClass pins the accepted connection, one per connection
// the vantage holds at once and reused across sessions, to 320 bytes.
func TestSimConnSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(simConn{}); n > 320 {
		t.Errorf("simConn is %d bytes, budget 320", n)
	}
}

// TestConnEventSize pins the argument-carrying event record, one per
// pending response hit, client query or probe deadline, to 24 bytes.
func TestConnEventSize(t *testing.T) {
	if n := unsafe.Sizeof(connEvent{}); n > 24 {
		t.Errorf("connEvent is %d bytes, budget 24", n)
	}
}
