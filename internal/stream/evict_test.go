package stream_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/trace"
)

// sessRec builds a query-less session record for barrier tests.
func sessRec(start, end trace.Time) *stream.SessionRecord {
	return &stream.SessionRecord{Conn: trace.Conn{Start: start, End: end}}
}

// closeRec emits r's connection and queries as p's close of id at at.
func closeRec(p *stream.Producer, id uint64, at trace.Time, r *stream.SessionRecord) {
	p.Close(id, at, r.Conn, r.Queries)
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
	closeRec(p0, 1, 2*time.Second, sessRec(1*time.Second, 2*time.Second))
	p0.Open(2, 3*time.Second)
	closeRec(p0, 2, 4*time.Second, sessRec(3*time.Second, 4*time.Second))
	p0.Done(10*time.Second, &stream.End{Days: 1, Nodes: 1})

	// Input 1 opens two sessions, closes one, then goes silent forever —
	// without eviction the barrier would hold at its watermark and Run
	// would never return.
	p1 := stream.NewProducer(1, m.Intake())
	p1.Open(7, 500*time.Millisecond)
	p1.Open(8, 6*time.Second)
	closeRec(p1, 8, 7*time.Second, sessRec(6*time.Second, 7*time.Second))
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
	closeRec(p1, 1, 2*time.Second, sessRec(1*time.Second, 2*time.Second))
	p1.Done(5*time.Second, &stream.End{Days: 1, Nodes: 1})

	// Late eviction for the already-finished input: dropped on the floor.
	m.Intake() <- stream.Batch{Input: 1, Events: []stream.Event{{Kind: stream.EvEvict}}}

	p0 := stream.NewProducer(0, m.Intake())
	p0.Open(1, 1*time.Second)
	closeRec(p0, 1, 3*time.Second, sessRec(1*time.Second, 3*time.Second))
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

// TestMergerEvictionReleasesQueuedSessions: sessions an input closed
// behind one it still holds open wait in its queue; evicting the input
// writes the open one off and retires the queued ones in merged order,
// interleaved with the healthy input's, exactly as trace.Merge orders the
// records that arrived.
func TestMergerEvictionReleasesQueuedSessions(t *testing.T) {
	var starts []trace.Time
	sink := sinkFunc(func(c *trace.Conn, _ []trace.Query) { starts = append(starts, c.Start) })
	m := stream.NewMerger(2, sink)
	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()

	healthy := []*stream.SessionRecord{sessRec(1*time.Second, 2*time.Second), sessRec(3*time.Second, 6*time.Second), sessRec(5*time.Second, 7*time.Second)}
	queued := []*stream.SessionRecord{sessRec(2*time.Second, 3*time.Second), sessRec(4*time.Second, 5*time.Second)}

	// Input 1 holds session 7 open from 0.5 s and closes 8 and 9 behind
	// it, then falls silent and is evicted with a partial trailer.
	p1 := stream.NewProducer(1, m.Intake())
	p1.Open(7, 500*time.Millisecond)
	p1.Open(8, 2*time.Second)
	closeRec(p1, 8, 3*time.Second, queued[0])
	p1.Open(9, 4*time.Second)
	closeRec(p1, 9, 5*time.Second, queued[1])
	p1.Flush()

	p0 := stream.NewProducer(0, m.Intake())
	for i, r := range healthy {
		p0.Open(uint64(i), r.Conn.Start)
	}
	for i, r := range healthy {
		closeRec(p0, uint64(i), r.Conn.End, r)
	}
	p0.Done(10*time.Second, &stream.End{Days: 1, Nodes: 1})
	m.Intake() <- stream.Batch{Input: 1, Events: []stream.Event{{Kind: stream.EvEvict, Done: &stream.End{Nodes: 1}}}}

	tr := <-done
	want := trace.Merge(recordsTrace(healthy...), recordsTrace(queued...))
	if !bytes.Equal(traceBytes(t, want), traceBytes(t, tr)) {
		t.Fatalf("drained %d conns, want the %d of trace.Merge over what arrived", len(tr.Conns), len(want.Conns))
	}
	if m.DeadInputs() != 1 || m.LostSessions() != 1 {
		t.Fatalf("dead=%d lost=%d, want 1 and 1 (session 7)", m.DeadInputs(), m.LostSessions())
	}
	if len(starts) != len(tr.Conns) {
		t.Fatalf("sink saw %d sessions, trace has %d", len(starts), len(tr.Conns))
	}
	for i := range starts {
		if starts[i] != tr.Conns[i].Start {
			t.Fatalf("sink order %v differs from the trace's", starts)
		}
	}
}

// TestMergerStrayClosesLandInOrder: a close for an ID the input never
// opened, a second close of one it already closed, and a record whose
// start is not the one its open announced break the producer contract —
// the bytes of a collector's input are not the merge's to trust. All take
// the spill path, land at their merged positions, and take no other
// session's slot: the drained trace equals trace.Merge over every record
// that arrived. The stray record's query predates its own
// start and every other query, so the query sweep must admit sessions by
// their first query, not by their start.
func TestMergerStrayClosesLandInOrder(t *testing.T) {
	q := func(at trace.Time, text string) trace.Query { return trace.Query{At: at, Text: text, Hops: 1} }
	rec := func(start, end trace.Time, qs ...trace.Query) *stream.SessionRecord {
		r := sessRec(start, end)
		r.Queries = qs
		return r
	}
	a := rec(1*time.Second, 2*time.Second, q(1500*time.Millisecond, "a"))
	b := rec(3*time.Second, 4*time.Second, q(3*time.Second, "b"))
	stray := rec(2500*time.Millisecond, 5*time.Second, q(200*time.Millisecond, "stray"))
	again := rec(3*time.Second, 6*time.Second, q(4*time.Second, "again"))
	c := rec(7*time.Second, 8*time.Second)
	moved := rec(900*time.Millisecond, 9*time.Second)
	other := rec(1200*time.Millisecond, 9*time.Second, q(2*time.Second, "other"))

	m := stream.NewMerger(2, nil)
	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()
	p0 := stream.NewProducer(0, m.Intake())
	p0.Open(1, a.Conn.Start)
	closeRec(p0, 1, a.Conn.End, a)
	p0.Open(2, b.Conn.Start)
	closeRec(p0, 2, b.Conn.End, b)
	closeRec(p0, 9, stray.Conn.End, stray) // never opened
	closeRec(p0, 2, again.Conn.End, again) // closed twice
	p0.Open(3, c.Conn.Start)
	p0.Open(4, 7500*time.Millisecond)
	closeRec(p0, 3, c.Conn.End, c)
	closeRec(p0, 4, moved.Conn.End, moved) // announced at 7.5 s
	p0.Done(10*time.Second, &stream.End{Days: 1, Nodes: 1, Counts: trace.MessageCounts{Query: 4, QueryHop1: 4}})
	p1 := stream.NewProducer(1, m.Intake())
	p1.Open(5, other.Conn.Start)
	closeRec(p1, 5, other.Conn.End, other)
	p1.Done(10*time.Second, &stream.End{Days: 1, Nodes: 1, Counts: trace.MessageCounts{Query: 1, QueryHop1: 1}})

	got := <-done
	want := trace.Merge(recordsTrace(a, b, stray, again, c, moved), recordsTrace(other))
	if !bytes.Equal(traceBytes(t, want), traceBytes(t, got)) {
		t.Fatalf("drained trace differs from trace.Merge:\n got %+v\nwant %+v", got.Conns, want.Conns)
	}
	if m.Spilled() != 3 {
		t.Fatalf("Spilled = %d, want 3 (the stray close, the second close, the moved start)", m.Spilled())
	}
}

// recordsTrace is the one-vantage trace holding recs, with dense IDs and
// query counters to match.
func recordsTrace(recs ...*stream.SessionRecord) *trace.Trace {
	tr := &trace.Trace{Days: 1, Nodes: 1}
	for i, r := range recs {
		c := r.Conn
		c.ID = uint64(i)
		tr.Conns = append(tr.Conns, c)
		for _, q := range r.Queries {
			q.ConnID = c.ID
			tr.Queries = append(tr.Queries, q)
		}
	}
	tr.Counts.Query = uint64(len(tr.Queries))
	tr.Counts.QueryHop1 = tr.Counts.Query
	return tr
}
