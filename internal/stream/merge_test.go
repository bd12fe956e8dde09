package stream_test

import (
	"bytes"
	"cmp"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/stream"
	"repro/internal/trace"
)

// fleetTraces simulates a fleet at 1 % scale and returns each vantage's
// own trace: engine.NodeStream runs the vantage alone and a one-input
// merger drains its stream.
func fleetTraces(t testing.TB, seed uint64, days, nodes int) []*trace.Trace {
	t.Helper()
	cfg := capture.DefaultConfig(seed, 0.01)
	cfg.Workload.Days = days
	ecfg := engine.Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: nodes}}
	out := make([]*trace.Trace, nodes)
	for i := range out {
		m := stream.NewMerger(1, nil)
		m.SetWindow(engine.DefaultMergeWindow)
		done := make(chan *trace.Trace)
		go func() { done <- m.Run() }()
		if _, err := engine.NodeStream(ecfg, i, stream.NewProducer(0, m.Intake())); err != nil {
			t.Fatal(err)
		}
		out[i] = <-done
	}
	return out
}

func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMergeTracesMatchesBatchMerge is the subsystem's core identity pin:
// replaying per-node traces as live streams through the k-way merger
// must reproduce batch trace.Merge byte for byte.
func TestMergeTracesMatchesBatchMerge(t *testing.T) {
	for _, nodes := range []int{1, 2, 4} {
		traces := fleetTraces(t, 2004, 2, nodes)
		want := traceBytes(t, trace.Merge(traces...))
		got := traceBytes(t, mergeStreams(traces...))
		if !bytes.Equal(want, got) {
			t.Fatalf("nodes=%d: streaming merge differs from batch trace.Merge", nodes)
		}
	}
}

// TestMergeTracesOrderIndependent mirrors the batch merge's
// order-independence contract on the streaming path.
func TestMergeTracesOrderIndependent(t *testing.T) {
	traces := fleetTraces(t, 7, 2, 3)
	want := traceBytes(t, mergeStreams(traces[0], traces[1], traces[2]))
	got := traceBytes(t, mergeStreams(traces[2], traces[0], traces[1]))
	if !bytes.Equal(want, got) {
		t.Fatal("streaming merge depends on input order")
	}
}

// TestMergeTracesDedup: the same trace presented twice collapses to one
// copy with the per-session query records deducted, exactly as batch
// Merge does.
func TestMergeTracesDedup(t *testing.T) {
	traces := fleetTraces(t, 11, 1, 2)
	want := traceBytes(t, trace.Merge(traces[0], traces[0], traces[1]))
	got := traceBytes(t, mergeStreams(traces[0], traces[0], traces[1]))
	if !bytes.Equal(want, got) {
		t.Fatal("duplicate handling differs from batch merge")
	}
	m := mergeStreams(traces[0], traces[0])
	if uint64(len(m.Queries)) != m.Counts.QueryHop1 {
		t.Fatalf("len(Queries)=%d != Counts.QueryHop1=%d after dedup", len(m.Queries), m.Counts.QueryHop1)
	}
	if len(m.Conns) != len(traces[0].Conns) {
		t.Fatalf("dedup kept %d conns, want %d", len(m.Conns), len(traces[0].Conns))
	}
}

// TestMergeTracesUnequalSpans: one empty input and one short-span input
// alongside a long one — each input's trailer arrives at its own horizon,
// the exhausted inputs must release the barrier, and the output must
// still equal the batch merge.
func TestMergeTracesUnequalSpans(t *testing.T) {
	long := fleetTraces(t, 3, 2, 1)[0]
	short := fleetTraces(t, 5, 1, 1)[0]
	empty := &trace.Trace{Days: 1, Nodes: 1, PongSampleRate: 0.1, HitSampleRate: 0.1}
	want := traceBytes(t, trace.Merge(long, short, empty))
	got := traceBytes(t, mergeStreams(long, short, empty))
	if !bytes.Equal(want, got) {
		t.Fatal("unequal-span merge differs from batch trace.Merge")
	}
}

// drain replays each trace as one live vantage — concurrent producers,
// each closing its stream at its own trace's horizon — through m, and
// returns the drained trace.
func drain(m *stream.Merger, traces ...*trace.Trace) *trace.Trace {
	var wg sync.WaitGroup
	for i, tr := range traces {
		wg.Add(1)
		go func(i int, tr *trace.Trace) {
			defer wg.Done()
			replayAsStream(tr, stream.NewProducer(i, m.Intake()), trace.Time(tr.Days)*24*time.Hour)
		}(i, tr)
	}
	out := m.Run()
	wg.Wait()
	return out
}

// mergeStreams is drain through a fresh unwindowed merger.
func mergeStreams(traces ...*trace.Trace) *trace.Trace {
	return drain(stream.NewMerger(len(traces), nil), traces...)
}

// replayAsStream plays a trace through a producer the way a live vantage
// would, every event at its own instant in nondecreasing time: opens at
// Start in arrival order, closes at End in end order — with closes
// genuinely out of arrival order — pongs and hits at their At, in the
// trace's order where instants tie, and the trailer at the horizon.
func replayAsStream(tr *trace.Trace, p *stream.Producer, horizon trace.Time) {
	byConn := tr.QueriesPerConn()
	type ev struct {
		at   trace.Time
		kind stream.Kind
		idx  int
	}
	var evs []ev
	for i := range tr.Conns {
		evs = append(evs, ev{at: tr.Conns[i].Start, kind: stream.EvOpen, idx: i})
		evs = append(evs, ev{at: tr.Conns[i].End, kind: stream.EvClose, idx: i})
	}
	for i := range tr.Pongs {
		evs = append(evs, ev{at: tr.Pongs[i].At, kind: stream.EvPong, idx: i})
	}
	for i := range tr.Hits {
		evs = append(evs, ev{at: tr.Hits[i].At, kind: stream.EvHit, idx: i})
	}
	// Sort by time, opens first at equal times so an open always precedes
	// its own close; stable keeps equal-start opens in arrival order,
	// matching a live vantage, and equal-instant pongs and hits in the
	// trace's order.
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].at != evs[b].at {
			return evs[a].at < evs[b].at
		}
		return evs[a].kind == stream.EvOpen && evs[b].kind != stream.EvOpen
	})
	for _, e := range evs {
		switch e.kind {
		case stream.EvOpen:
			c := tr.Conns[e.idx]
			p.Open(c.ID, c.Start)
		case stream.EvClose:
			c := tr.Conns[e.idx]
			var qs []trace.Query
			for _, q := range byConn[e.idx] {
				qs = append(qs, *q)
			}
			p.Close(c.ID, c.End, c, qs)
		case stream.EvPong:
			p.Pong(tr.Pongs[e.idx])
		case stream.EvHit:
			p.Hit(tr.Hits[e.idx])
		}
	}
	p.Done(horizon, &stream.End{
		Counts: tr.Counts, Seed: tr.Seed, Scale: tr.Scale, Days: tr.Days,
		Nodes: tr.Nodes, PongSampleRate: tr.PongSampleRate, HitSampleRate: tr.HitSampleRate,
	})
}

// TestMergerLiveStreamsMatchBatch drives the merger the way the engine
// does — concurrent producer goroutines emitting opens and out-of-order
// closes into the shared intake — and requires the drained trace to equal
// batch trace.Merge.
func TestMergerLiveStreamsMatchBatch(t *testing.T) {
	traces := fleetTraces(t, 5, 2, 3)
	want := traceBytes(t, trace.Merge(traces...))
	got := traceBytes(t, mergeStreams(traces...))
	if !bytes.Equal(want, got) {
		t.Fatal("live-stream merge differs from batch trace.Merge")
	}
}

// TestMergerIncrementalEmission: with one long-lived session holding the
// barrier, later-starting completed sessions must wait; once it closes
// they retire. This pins the barrier logic the memory contract depends
// on (sessions retire as soon as legal, not at end of stream).
func TestMergerIncrementalEmission(t *testing.T) {
	var order []uint64
	sink := sinkFunc(func(c *trace.Conn, _ []trace.Query) { order = append(order, uint64(c.Start/time.Second)) })
	m := stream.NewMerger(1, sink)
	p := stream.NewProducer(0, m.Intake())

	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()

	mk := func(start, end trace.Time) trace.Conn { return trace.Conn{Start: start, End: end} }
	// Session A opens at 1s and stays open; B (5s..10s) and C (7s..12s)
	// close — but may not retire while A is open.
	p.Open(1, 1*time.Second)
	p.Open(2, 5*time.Second)
	p.Open(3, 7*time.Second)
	p.Close(2, 10*time.Second, mk(5*time.Second, 10*time.Second), nil)
	p.Close(3, 12*time.Second, mk(7*time.Second, 12*time.Second), nil)
	p.Flush()
	// Nothing can be asserted synchronously about the merger goroutine's
	// progress except through the deterministic final order; emitting A's
	// close unblocks everything in (A, B, C) start order.
	p.Close(1, 20*time.Second, mk(1*time.Second, 20*time.Second), nil)
	p.Done(21*time.Second, &stream.End{Days: 1})
	tr := <-done

	if len(tr.Conns) != 3 {
		t.Fatalf("merged %d conns, want 3", len(tr.Conns))
	}
	wantOrder := []uint64{1, 5, 7}
	for i, w := range wantOrder {
		if order[i] != w {
			t.Fatalf("emission order %v, want %v", order, wantOrder)
		}
	}
	if m.PeakPending() < 2 {
		t.Fatalf("PeakPending = %d, want ≥ 2 (B and C held behind A)", m.PeakPending())
	}
}

type sinkFunc func(c *trace.Conn, qs []trace.Query)

func (f sinkFunc) MergedSession(c *trace.Conn, qs []trace.Query) { f(c, qs) }

// TestMergerSinkSeesMergedOrder: the sink must observe sessions in
// exactly the merged trace's connection order with final IDs.
func TestMergerSinkSeesMergedOrder(t *testing.T) {
	traces := fleetTraces(t, 13, 1, 2)
	var ids []uint64
	var starts []trace.Time
	sink := sinkFunc(func(c *trace.Conn, _ []trace.Query) {
		ids = append(ids, c.ID)
		starts = append(starts, c.Start)
	})
	merged := drain(stream.NewMerger(len(traces), sink), traces...)
	if len(ids) != len(merged.Conns) {
		t.Fatalf("sink saw %d sessions, merged trace has %d", len(ids), len(merged.Conns))
	}
	for i := range ids {
		if ids[i] != uint64(i) {
			t.Fatalf("sink id %d at position %d", ids[i], i)
		}
		if starts[i] != merged.Conns[i].Start {
			t.Fatalf("sink start %v at %d, trace has %v", starts[i], i, merged.Conns[i].Start)
		}
	}
}

// FuzzMergeAgainstBatch cross-checks the streaming merge against batch
// trace.Merge on tiny synthetic traces with adversarial overlap, from one
// to eight inputs: equal starts, duplicate sessions, queries out of the
// section's order within a session (and before its start), pongs and hits
// tied on their instant out of comparator order. A nonzero window (in
// seconds) drives sessions down the spill path and reclaims the slots of
// those still open past it.
func FuzzMergeAgainstBatch(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(8), uint8(0))
	f.Add(uint64(42), uint8(3), uint8(3), uint8(0))
	f.Add(uint64(7), uint8(7), uint8(15), uint8(3))
	f.Add(uint64(2004), uint8(5), uint8(12), uint8(1))
	f.Add(uint64(9), uint8(0), uint8(15), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nodes, conns, window uint8) {
		k := int(nodes)%8 + 1
		n := int(conns) % 16
		rng := rand.New(rand.NewPCG(seed, 99))
		addr := func() netip.Addr { return netip.AddrFrom4([4]byte{10, 0, 0, byte(rng.IntN(3))}) }
		instant := func() trace.Time { return trace.Time(rng.IntN(20)) * time.Second }
		traces := make([]*trace.Trace, k)
		for i := range traces {
			tr := &trace.Trace{Days: 1, Nodes: 1, PongSampleRate: 1, HitSampleRate: 1}
			for c := 0; c < n; c++ {
				start := trace.Time(rng.IntN(10)) * time.Second
				end := start + trace.Time(rng.IntN(10)+1)*time.Second
				id := uint64(len(tr.Conns))
				tr.Conns = append(tr.Conns, trace.Conn{ID: id, Start: start, End: end})
				for q := 0; q < rng.IntN(4); q++ {
					tr.Queries = append(tr.Queries, trace.Query{
						ConnID: id,
						At:     start + trace.Time(rng.IntN(8)-2)*time.Second,
						Text:   string(rune('a' + rng.IntN(3))),
						Hops:   1,
					})
					tr.Counts.Query++
					tr.Counts.QueryHop1++
				}
			}
			for range rng.IntN(6) {
				tr.Pongs = append(tr.Pongs, trace.Pong{At: instant(), Addr: addr(), SharedFiles: uint32(rng.IntN(3)), Hops: 1})
			}
			for range rng.IntN(6) {
				tr.Hits = append(tr.Hits, trace.Hit{At: instant(), Addr: addr(), Hops: uint8(rng.IntN(2) + 1)})
			}
			slices.SortStableFunc(tr.Pongs, func(a, b trace.Pong) int { return cmp.Compare(a.At, b.At) })
			slices.SortStableFunc(tr.Hits, func(a, b trace.Hit) int { return cmp.Compare(a.At, b.At) })
			traces[i] = tr
		}
		want := traceBytes(t, trace.Merge(traces...))
		m := stream.NewMerger(k, nil)
		m.SetWindow(trace.Time(window%16) * time.Second)
		got := traceBytes(t, drain(m, traces...))
		if !bytes.Equal(want, got) {
			t.Fatal("streaming merge differs from batch merge")
		}
	})
}

// TestMergerRunChunkBoundaries drains pong and hit runs that span several
// run chunks, one input's in comparator order and one's out of it (the
// records of each instant arrive in descending address order), alone and
// together, and checks the merged sections against batch trace.Merge.
func TestMergerRunChunkBoundaries(t *testing.T) {
	n := 4*stream.RunChunk + 100
	var in [2]*trace.Trace
	for k := range in {
		tr := &trace.Trace{Days: 1, Nodes: 1, PongSampleRate: 1, HitSampleRate: 1}
		for i := range n {
			b := byte(i % 4)
			if k == 1 {
				b = 3 - b
			}
			at, addr := trace.Time(i/4)*time.Second, netip.AddrFrom4([4]byte{10, byte(k), byte(i >> 8), b})
			tr.Pongs = append(tr.Pongs, trace.Pong{At: at, Addr: addr, Hops: 1})
			tr.Hits = append(tr.Hits, trace.Hit{At: at, Addr: addr, Hops: 1})
		}
		in[k] = tr
	}
	for _, traces := range [][]*trace.Trace{in[:1], in[1:], in[:]} {
		want := traceBytes(t, trace.Merge(traces...))
		if got := traceBytes(t, mergeStreams(traces...)); !bytes.Equal(want, got) {
			t.Fatalf("%d inputs: chunked runs merge differently from batch trace.Merge", len(traces))
		}
	}
}

// windowTestTrace builds the window regression workload: one trace-long
// session opening at the epoch and closing just before the horizon, with
// queries, plus shortCount one-second sessions marching across the span.
func windowTestTrace(shortCount int) *trace.Trace {
	tr := &trace.Trace{Days: 1, Nodes: 1, PongSampleRate: 1, HitSampleRate: 1}
	long := trace.Conn{ID: 0, Start: 0, End: trace.Time(shortCount+500) * time.Second}
	tr.Conns = append(tr.Conns, long)
	tr.Queries = append(tr.Queries, trace.Query{ConnID: 0, At: 30 * time.Second, Text: "warez", Hops: 1})
	tr.Counts.Query++
	tr.Counts.QueryHop1++
	for i := 1; i <= shortCount; i++ {
		id := uint64(i)
		start := trace.Time(i) * time.Second
		tr.Conns = append(tr.Conns, trace.Conn{ID: id, Start: start, End: start + time.Second})
		if i%7 == 0 {
			tr.Queries = append(tr.Queries, trace.Query{ConnID: id, At: start, Text: "mp3", Hops: 1})
			tr.Counts.Query++
			tr.Counts.QueryHop1++
		}
	}
	return tr
}

// TestMergerWindowBoundsPending is the satellite regression for the
// unbounded-pending hole: one trace-long session used to hold every
// later-starting completed session behind the barrier for the whole run.
// With an emission window the merger classifies the long session an
// outlier, keeps the barrier moving, and still drains byte-identical to
// batch trace.Merge.
func TestMergerWindowBoundsPending(t *testing.T) {
	const shorts = 500
	tr := windowTestTrace(shorts)
	horizon := trace.Time(shorts+501) * time.Second
	want := traceBytes(t, trace.Merge(tr))

	run := func(window trace.Time) *stream.Merger {
		m := stream.NewMerger(1, nil)
		m.SetWindow(window)
		done := make(chan *trace.Trace)
		go func() { done <- m.Run() }()
		replayAsStream(tr, stream.NewProducer(0, m.Intake()), horizon)
		got := <-done
		if !bytes.Equal(want, traceBytes(t, got)) {
			t.Fatalf("window=%v: drained trace differs from batch trace.Merge", window)
		}
		return m
	}

	unbounded := run(0)
	if unbounded.PeakPending() < shorts*4/5 {
		t.Fatalf("unwindowed PeakPending = %d — the long session no longer holds the barrier, test premise broken", unbounded.PeakPending())
	}
	if unbounded.Spilled() != 0 {
		t.Fatalf("unwindowed merge spilled %d sessions", unbounded.Spilled())
	}

	// The bound is the producer's batch granularity (256 events ≈ 128
	// sessions land between barrier recomputations) plus the ~10 sessions
	// a 10 s window legitimately holds — independent of the trace length,
	// unlike the unwindowed run whose peak grows with every short session.
	windowed := run(10 * time.Second)
	if windowed.PeakPending() > 200 {
		t.Fatalf("windowed PeakPending = %d, want bounded (≤ 200) — emission window not holding", windowed.PeakPending())
	}
	if windowed.Spilled() != 1 {
		t.Fatalf("windowed merge spilled %d sessions, want exactly the trace-long one", windowed.Spilled())
	}
}

// TestMergerTinyWindowMatchesBatch forces the spill path hard: a window
// shorter than most real sessions diverts a large share of the fleet's
// sessions to the outlier fold, which must still reproduce batch
// trace.Merge byte for byte under concurrent producers.
func TestMergerTinyWindowMatchesBatch(t *testing.T) {
	traces := fleetTraces(t, 17, 1, 3)
	want := traceBytes(t, trace.Merge(traces...))
	m := stream.NewMerger(len(traces), nil)
	m.SetWindow(time.Second)
	got := traceBytes(t, drain(m, traces...))
	if !bytes.Equal(want, got) {
		t.Fatal("tiny-window merge differs from batch trace.Merge")
	}
	if m.Spilled() == 0 {
		t.Fatal("1s window spilled nothing — spill path not exercised")
	}
}

// TestMergerChunkBoundaries drains more than three chunks of merged
// sessions, the largest chunk size more than twice, from two interleaved
// inputs. The drained trace must equal batch trace.Merge byte for byte,
// and the sink must see every session in merged order with its dense ID,
// as the final trace holds it.
func TestMergerChunkBoundaries(t *testing.T) {
	n := 3*stream.MergeChunk + 100
	var in [2]*trace.Trace
	for k := range in {
		in[k] = &trace.Trace{Days: 1, Nodes: 1, PongSampleRate: 1, HitSampleRate: 1}
	}
	for i := range n {
		tr := in[i%2]
		id := uint64(len(tr.Conns))
		start := trace.Time(i) * time.Second
		tr.Conns = append(tr.Conns, trace.Conn{ID: id, Start: start, End: start + time.Second})
		for q := range i % 3 {
			tr.Queries = append(tr.Queries, trace.Query{ConnID: id, At: start + trace.Time(q)*time.Millisecond, Text: "q", Hops: 1})
			tr.Counts.Query++
			tr.Counts.QueryHop1++
		}
	}

	type seen struct {
		c       trace.Conn
		queries int
	}
	var got []seen
	sink := sinkFunc(func(c *trace.Conn, qs []trace.Query) { got = append(got, seen{*c, len(qs)}) })
	m := stream.NewMerger(2, sink)
	m.SetWindow(10 * time.Second)
	merged := drain(m, in[0], in[1])
	if !bytes.Equal(traceBytes(t, trace.Merge(in[0], in[1])), traceBytes(t, merged)) {
		t.Fatal("chunked merge differs from batch trace.Merge")
	}
	if len(merged.Conns) != n || len(got) != n {
		t.Fatalf("merged %d conns and the sink saw %d, want %d", len(merged.Conns), len(got), n)
	}
	perConn := merged.QueriesPerConn()
	for i, s := range got {
		if s.c.ID != uint64(i) || s.c != merged.Conns[i] || s.queries != len(perConn[i]) {
			t.Fatalf("sink saw session %d as %+v with %d queries, trace has %+v with %d", i, s.c, s.queries, merged.Conns[i], len(perConn[i]))
		}
	}
}
