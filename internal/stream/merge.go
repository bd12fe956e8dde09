package stream

import (
	"container/heap"
	"slices"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Sink observes the merged stream as it retires: one call per merged
// session, in the final merged order, with the final dense connection ID
// already assigned. The online characterization layer implements Sink; a
// nil sink is allowed. Calls happen on the merger's goroutine.
//
// When an emission window is set (SetWindow), sessions whose duration
// exceeds the window are folded in at finish instead of inline: the sink
// observes them last, after every windowed session, rather than at their
// merged position. The drained trace is unaffected — the fold inserts
// them at their exact merged positions.
type Sink interface {
	MergedSession(c *trace.Conn, qs []trace.Query)
}

// Merger is the streaming k-way merge: it consumes the event streams of k
// producers and incrementally produces the union in the global
// deduplicated, time-ordered, densely re-identified order — the same
// total order batch trace.Merge sorts into, but emitted online. A session
// retires the moment the emission barrier passes it: no still-open
// session and no future arrival on any input can precede it in the merged
// order, because per-input arrivals come in start order (the watermark
// contract) and open sessions are announced before they complete.
//
// Draining a Merger to completion yields a trace byte-identical to
// trace.Merge over the same per-node traces (pinned by test), and the
// emission order — hence everything a Sink computes — is deterministic,
// independent of producer goroutine interleaving: ordering decisions are
// made by record keys and barriers, never by arrival timing.
type Merger struct {
	intake chan Batch
	inputs []inputState
	sink   Sink

	pending sessHeap
	last    *SessionRecord // previous emission, for adjacent-duplicate collapse

	// window, when > 0, bounds how long one open session may hold the
	// emission barrier: each input's barrier contribution is clamped to
	// at least watermark − window, and sessions whose duration exceeds
	// the window ("outliers") are diverted to spill instead of pending.
	// Any future non-outlier close has start ≥ its input's watermark −
	// window, so windowed emission stays in merged order; the outliers
	// are folded back into their exact merged positions at finish. 0
	// means unbounded (the barrier waits for the oldest open session,
	// however long it lives).
	window  trace.Time
	spill   []*SessionRecord
	spilled int

	out     *trace.Trace
	remain  int // inputs that have not sent EvDone yet
	emitted uint64
	// peakPending tracks the high-water mark of sessions completed but
	// held behind the barrier — the merge's own memory diagnostic.
	peakPending int
	// deadInputs and lostSessions are the degradation ledger: inputs
	// evicted by EvEvict, and the sessions those inputs had announced
	// (EvOpen) but never closed — known data loss, reported rather than
	// deadlocked on.
	deadInputs   int
	lostSessions uint64

	// om holds the merge's metric handles. Each is nil until SetObserver
	// installs a registry, and every method on a nil handle no-ops, so
	// the uninstrumented merge pays one nil check per update site.
	om mergerMetrics
}

// mergerMetrics is the merge's metric surface on the obs registry. The
// gauges are live (scrapable mid-run over the observability HTTP
// surface); the counters and the duration histogram accumulate over the
// whole merge.
type mergerMetrics struct {
	pending  *obs.Gauge     // merge_pending_sessions: completed, held behind the barrier
	peak     *obs.Gauge     // merge_peak_pending: high-water mark of pending
	barrier  *obs.Gauge     // merge_barrier_seconds: emission-barrier watermark (stream time)
	emitted  *obs.Counter   // merge_emitted_total
	spilled  *obs.Counter   // merge_spilled_total: outliers diverted past the window
	dead     *obs.Gauge     // merge_dead_inputs: evicted inputs
	lost     *obs.Gauge     // merge_lost_sessions: sessions lost with them
	duration *obs.Histogram // merge_session_duration_seconds
}

// SetObserver attaches metric handles from o's registry. Call before
// Run; a nil observer (or registry) leaves the merge uninstrumented.
func (m *Merger) SetObserver(o *obs.Observer) {
	reg := o.Reg()
	if reg == nil {
		return
	}
	// The pending high-water mark and the last barrier position depend on
	// how the inputs' batches interleave at the intake — goroutine
	// scheduling in-process, the network across processes — so they are
	// exposition-only, kept out of the deterministic journal snapshot like
	// every other timing-dependent value.
	live := func(name, help string) *obs.Gauge {
		g := new(obs.Gauge)
		reg.GaugeFunc(name, help, g.Value)
		return g
	}
	m.om = mergerMetrics{
		pending:  reg.Gauge("merge_pending_sessions", "completed sessions held behind the emission barrier"),
		peak:     live("merge_peak_pending", "high-water mark of the pending buffer"),
		barrier:  live("merge_barrier_seconds", "emission-barrier watermark in stream time"),
		emitted:  reg.Counter("merge_emitted_total", "sessions retired in merged order"),
		spilled:  reg.Counter("merge_spilled_total", "outlier sessions diverted to the spill path"),
		dead:     reg.Gauge("merge_dead_inputs", "inputs evicted dead instead of completing"),
		lost:     reg.Gauge("merge_lost_sessions", "sessions opened by evicted inputs and never closed"),
		duration: reg.Histogram("merge_session_duration_seconds", "merged session durations", obs.ExpBuckets(1, 4, 10)),
	}
}

type inputState struct {
	watermark trace.Time
	done      bool
	end       *End
	// open maps producer-local ids of open sessions to their start; fifo
	// holds (id, start) in arrival order with lazy removal, so the
	// earliest open start is the first fifo entry still present in open.
	open map[uint64]trace.Time
	fifo []openRef
}

type openRef struct {
	id    uint64
	start trace.Time
}

// NewMerger builds a merger over k input streams.
func NewMerger(k int, sink Sink) *Merger {
	m := &Merger{
		intake: make(chan Batch, 4*k),
		sink:   sink,
		out:    &trace.Trace{},
		remain: k,
	}
	m.inputs = make([]inputState, k)
	for i := range m.inputs {
		m.inputs[i].open = make(map[uint64]trace.Time)
	}
	return m
}

// Intake returns the shared channel all of this merger's producers send
// their batches to.
func (m *Merger) Intake() chan<- Batch { return m.intake }

// SetWindow bounds the emission barrier: no single open session may hold
// back retirement by more than w of stream time. Sessions longer than w
// take the spill path — buffered whole and folded into their exact merged
// positions at finish (the sink sees them last; the drained trace is
// byte-identical either way, pinned by test). Without a window, one
// session spanning the whole trace degrades the merge to full buffering;
// with it, PeakPending is bounded by the sessions completing within a
// w-wide window plus the (rare, duration-tail) spill set. Set before any
// events are fed; w ≤ 0 means unbounded.
func (m *Merger) SetWindow(w trace.Time) { m.window = w }

// Spilled reports how many sessions exceeded the emission window and took
// the spill path.
func (m *Merger) Spilled() int { return m.spilled }

// Run consumes batches until every input has delivered its EvDone
// trailer, then drains the pending buffer and returns the merged trace.
// It must run on its own goroutine while producers emit (the intake
// channel is bounded — that bound is the backpressure window).
func (m *Merger) Run() *trace.Trace {
	for m.remain > 0 {
		b := <-m.intake
		st := &m.inputs[b.Input]
		for i := range b.Events {
			m.apply(b.Input, st, &b.Events[i])
		}
		m.advance()
	}
	m.finish()
	return m.out
}

// Emitted returns how many merged sessions have retired so far.
func (m *Merger) Emitted() uint64 { return m.emitted }

// PeakPending returns the high-water mark of completed sessions held
// behind the emission barrier — how much the oldest open session cost.
func (m *Merger) PeakPending() int { return m.peakPending }

// DeadInputs returns how many inputs were evicted (EvEvict) instead of
// completing with a trailer. Read after Run returns.
func (m *Merger) DeadInputs() int { return m.deadInputs }

// LostSessions returns how many sessions evicted inputs had opened but
// never closed — the sessions known to be lost to input death. Sessions an
// evicted input never even announced cannot be counted here; only the
// emitter knew about those. Read after Run returns.
func (m *Merger) LostSessions() uint64 { return m.lostSessions }

func (m *Merger) apply(input int, st *inputState, ev *Event) {
	if st.done {
		// A dead or completed input delivers nothing further: late frames
		// racing an eviction are dropped here so remain cannot go negative
		// and the barrier stays monotone.
		return
	}
	if ev.Time > st.watermark {
		st.watermark = ev.Time
	}
	switch ev.Kind {
	case EvOpen:
		st.open[ev.ID] = ev.Time
		st.fifo = append(st.fifo, openRef{id: ev.ID, start: ev.Time})
	case EvClose:
		delete(st.open, ev.ID)
		// Trim retired heads so earliest-open lookup stays O(1) amortized.
		for len(st.fifo) > 0 {
			if _, ok := st.open[st.fifo[0].id]; ok {
				break
			}
			st.fifo = st.fifo[1:]
		}
		// Outliers — sessions longer than the emission window — go to the
		// spill set. The windowed barrier may already have passed their
		// start, so they cannot be emitted inline; and the classification
		// depends only on the record itself, so the inline emission order
		// (everything a Sink observes before finish) stays deterministic.
		if m.window > 0 && ev.Sess.Conn.End-ev.Sess.Conn.Start > m.window {
			m.spill = append(m.spill, ev.Sess)
			m.spilled++
			m.om.spilled.Inc()
			break
		}
		heap.Push(&m.pending, ev.Sess)
		if len(m.pending) > m.peakPending {
			m.peakPending = len(m.pending)
			m.om.peak.SetInt(int64(m.peakPending))
		}
	case EvPong:
		m.out.Pongs = append(m.out.Pongs, ev.Pong)
	case EvHit:
		m.out.Hits = append(m.out.Hits, ev.Hit)
	case EvDone:
		st.done = true
		st.end = ev.Done
		m.remain--
		m.fold(input, ev.Done)
	case EvEvict:
		st.done = true
		m.remain--
		m.deadInputs++
		m.lostSessions += uint64(len(st.open))
		m.om.dead.SetInt(int64(m.deadInputs))
		m.om.lost.SetInt(int64(m.lostSessions))
		// The input leaves the barrier entirely: its watermark no longer
		// pins retirement (done) and its open sessions are written off —
		// they can never close, so waiting on them would deadlock the
		// merge.
		st.open = nil
		st.fifo = nil
		if ev.Done != nil {
			// A liveness layer may synthesize a partial trailer from the
			// events it applied, keeping the merged counters consistent
			// with the records actually present; the emitter's aggregate
			// counters (unrecorded wider-network traffic) are lost with it.
			m.fold(input, ev.Done)
		}
	}
}

// fold accumulates one input's trailer into the merged trace's metadata
// and counters, mirroring what trace.Merge reads off whole input traces.
func (m *Merger) fold(input int, end *End) {
	if input == 0 {
		m.out.Seed = end.Seed
		m.out.Scale = end.Scale
		m.out.PongSampleRate = end.PongSampleRate
		m.out.HitSampleRate = end.HitSampleRate
	}
	if end.Days > m.out.Days {
		m.out.Days = end.Days
	}
	if end.Nodes > 0 {
		m.out.Nodes += end.Nodes
	} else {
		m.out.Nodes++
	}
	m.out.Counts.Add(end.Counts)
}

// barrier returns the instant before which no new inline session record
// can appear: the minimum over inputs of the earliest still-open start
// and, for inputs still producing, the watermark (future arrivals start
// at or after it). Inputs that are done with nothing open contribute
// nothing.
//
// With an emission window, an open session bounds the barrier by at most
// window: its contribution is clamped to ≥ watermark − window. That stays
// safe for inline (non-spilled) emission because any future close with
// duration ≤ window arrives at some instant c ≥ watermark and so has
// start ≥ c − window ≥ watermark − window; closes with larger durations
// are outliers and never enter the pending heap.
func (m *Merger) barrier() (trace.Time, bool) {
	var b trace.Time
	bounded := false
	take := func(t trace.Time) {
		if !bounded || t < b {
			b, bounded = t, true
		}
	}
	for i := range m.inputs {
		st := &m.inputs[i]
		if len(st.fifo) > 0 {
			hold := st.fifo[0].start
			if m.window > 0 && st.watermark-m.window > hold {
				hold = st.watermark - m.window
			}
			take(hold)
		}
		if !st.done {
			take(st.watermark)
		}
	}
	return b, bounded
}

// advance retires every pending session strictly before the barrier, in
// the merged total order, collapsing adjacent duplicates exactly as
// trace.Merge does.
func (m *Merger) advance() {
	b, bounded := m.barrier()
	if bounded {
		m.om.barrier.Set(b.Seconds())
	}
	defer func() { m.om.pending.SetInt(int64(len(m.pending))) }()
	for len(m.pending) > 0 {
		if bounded && m.pending[0].Conn.Start >= b {
			return
		}
		m.emit(heap.Pop(&m.pending).(*SessionRecord))
	}
}

func (m *Merger) emit(r *SessionRecord) {
	if m.last != nil && compareRecords(m.last, r) == 0 {
		// Exact duplicate observation of the same session (two vantages
		// recorded identical records): drop it and deduct its per-session
		// query records from the aggregates, keeping len(Queries) ==
		// Counts.QueryHop1.
		m.out.Counts.Query -= uint64(len(r.Queries))
		m.out.Counts.QueryHop1 -= uint64(len(r.Queries))
		return
	}
	m.last = r
	id := uint64(len(m.out.Conns))
	c := r.Conn
	c.ID = id
	m.out.Conns = append(m.out.Conns, c)
	for i := range r.Queries {
		q := r.Queries[i]
		q.ConnID = id
		m.out.Queries = append(m.out.Queries, q)
	}
	if m.sink != nil {
		m.sink.MergedSession(&m.out.Conns[id], r.Queries)
	}
	m.emitted++
	m.om.emitted.Inc()
	m.om.duration.Observe((r.Conn.End - r.Conn.Start).Seconds())
}

// finish drains everything past the final (absent) barrier, folds any
// spilled outliers into their merged positions, and puts the global
// record sections into their canonical orders — the same final sorts the
// batch merge runs, over exactly the records the batch merge would hold.
func (m *Merger) finish() {
	m.advance()
	if len(m.spill) > 0 {
		m.foldSpill()
	}
	slices.SortFunc(m.out.Queries, func(a, b trace.Query) int { return trace.CompareQuery(&a, &b) })
	slices.SortFunc(m.out.Pongs, func(a, b trace.Pong) int { return trace.ComparePong(&a, &b) })
	slices.SortFunc(m.out.Hits, func(a, b trace.Hit) int { return trace.CompareHit(&a, &b) })
}

// foldSpill merges the spilled outlier sessions into the inline-emitted
// trace at their exact merged positions, rebuilding the dense connection
// IDs and collapsing duplicates exactly as inline emission does, so the
// drained trace is byte-identical to an unwindowed merge. A spilled
// record can never equal an inline one (equal records have equal
// durations, and outlier-ness is a pure function of duration), so
// duplicate collapse is only needed inside the spill set. The sink
// observes the folded sessions here, after every inline one.
func (m *Merger) foldSpill() {
	sp := m.spill
	m.spill = nil
	slices.SortFunc(sp, compareRecords)

	oldConns, oldQueries := m.out.Conns, m.out.Queries
	conns := make([]trace.Conn, 0, len(oldConns)+len(sp))
	queries := make([]trace.Query, 0, len(oldQueries))
	si, qi := 0, 0

	place := func(c trace.Conn, qs []trace.Query) {
		id := uint64(len(conns))
		c.ID = id
		conns = append(conns, c)
		for i := range qs {
			q := qs[i]
			q.ConnID = id
			queries = append(queries, q)
		}
	}
	takeSpill := func() {
		r := sp[si]
		si++
		// Adjacent duplicates inside the spill set collapse with the same
		// counter deduction inline emission applies.
		for si < len(sp) && compareRecords(sp[si], r) == 0 {
			m.out.Counts.Query -= uint64(len(sp[si].Queries))
			m.out.Counts.QueryHop1 -= uint64(len(sp[si].Queries))
			si++
		}
		place(r.Conn, r.Queries)
		if m.sink != nil {
			m.sink.MergedSession(&conns[len(conns)-1], r.Queries)
		}
		m.emitted++
		m.om.emitted.Inc()
		m.om.duration.Observe((r.Conn.End - r.Conn.Start).Seconds())
	}

	for ci := range oldConns {
		// The inline queries are grouped contiguously by old dense ID.
		qj := qi
		for qj < len(oldQueries) && oldQueries[qj].ConnID == oldConns[ci].ID {
			qj++
		}
		rec := SessionRecord{Conn: oldConns[ci], Queries: oldQueries[qi:qj]}
		for si < len(sp) && compareRecords(sp[si], &rec) < 0 {
			takeSpill()
		}
		place(oldConns[ci], oldQueries[qi:qj])
		qi = qj
	}
	for si < len(sp) {
		takeSpill()
	}
	m.out.Conns, m.out.Queries = conns, queries
}

// compareRecords is the merge's total order: the connection comparator
// followed by the query-list comparator, both blind to producer-local
// IDs — the exact order batch trace.Merge sorts by, shared via the
// exported trace comparators so session identity has one definition.
func compareRecords(a, b *SessionRecord) int {
	if c := trace.CompareConn(&a.Conn, &b.Conn); c != 0 {
		return c
	}
	return trace.CompareQueryValueLists(a.Queries, b.Queries)
}

// sessHeap pops session records in the merged total order.
type sessHeap []*SessionRecord

func (h sessHeap) Len() int           { return len(h) }
func (h sessHeap) Less(i, j int) bool { return compareRecords(h[i], h[j]) < 0 }
func (h sessHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *sessHeap) Push(x any)        { *h = append(*h, x.(*SessionRecord)) }
func (h *sessHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
