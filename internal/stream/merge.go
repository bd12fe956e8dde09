package stream

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Sink observes the merged stream as it retires: one call per merged
// session, in the final merged order, with the final dense connection ID
// already assigned. The online characterization layer implements Sink; a
// nil sink is allowed. Calls happen on the merger's goroutine. c points
// into the merger's own storage and is valid only during the call: a
// sink that keeps the connection copies it.
//
// Sessions that take the spill path — those whose duration exceeds the
// emission window (SetWindow), and closes that arrive where no open slot
// can take them — are folded in at finish instead of inline: the sink
// observes them last, after every inline session, rather than at their
// merged position. The drained trace is unaffected — the fold inserts
// them at their exact merged positions.
type Sink interface {
	MergedSession(c *trace.Conn, qs []trace.Query)
}

// Merger is the streaming k-way merge: it consumes the event streams of k
// producers and incrementally produces the union in the global
// deduplicated, time-ordered, densely re-identified order — the same
// total order batch trace.Merge sorts into, but emitted online.
//
// It is built on the producer contract: per input, sessions open in
// start order and every record arrives in time order. So each input
// keeps its unretired sessions in a queue of slots in start order — an
// EvOpen appends a slot, the matching EvClose fills it with the record —
// and the merged session order is a k-way merge of the queue heads. A
// head retires the moment the emission barrier passes its start: no
// still-open session and no future arrival on any input can then precede
// it in the merged order. Query lists stay with their sessions until
// finish, which sweeps them into the Queries section already in its final
// order; pongs and hits collect in per-input runs that finish merges.
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

	// heads is advance's scratch: the inputs whose queue head can retire,
	// a min-heap ordered by their head records.
	heads []int
	last  *SessionRecord // previous emission, for adjacent-duplicate collapse
	// passed is the highest barrier retirement has used. Every session
	// starting before it that could ever retire inline already has, so a
	// close that would fill such a slot takes the spill path instead.
	passed trace.Time

	// window, when > 0, bounds how long one open session may hold the
	// emission barrier: each input's barrier contribution is clamped to
	// at least watermark − window, and sessions whose duration exceeds
	// the window ("outliers") are diverted to spill instead of their
	// slots. Any future non-outlier close has start ≥ its input's
	// watermark − window, so windowed emission stays in merged order; the
	// outliers are folded back into their exact merged positions at
	// finish. 0 means unbounded (the barrier waits for the oldest open
	// session, however long it lives).
	window  trace.Time
	spill   []SessionRecord
	spilled int

	out *trace.Trace
	// chunks hold the emitted sessions in merged order, each with its
	// query list in the record's own order. A chunk is filled to its
	// capacity and never moves, so the sink's *trace.Conn can point into
	// it; finish copies the chunks into out.Conns and lists, allocated
	// once at their final length. lists[id] belongs to out.Conns[id]
	// until finish builds the Queries section from them. emitted counts
	// the sessions in the chunks and queries their query records.
	chunks  []chunk
	lists   [][]trace.Query
	emitted int
	queries int
	remain  int // inputs that have not sent EvDone yet
	// pending counts completed sessions held behind the barrier, and
	// peakPending its high-water mark — the merge's own memory
	// diagnostic.
	pending     int
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
	spilled  *obs.Counter   // merge_spilled_total: sessions diverted to the spill path
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

// inputState is one input's share of the merge. Its session queue is
// slots, in start order: slots[i] is the session the input announced as
// number base+i, and positions are such absolute numbers throughout.
// Slots before head have retired or been reclaimed; an open that finds
// the array full moves the rest down over them when they are at least a
// quarter of it, so the array is reused instead of sliding off and
// regrowing.
type inputState struct {
	watermark trace.Time
	done      bool

	slots []slot
	base  uint64
	head  uint64
	// open is at or before the first open slot from head on; sorted is
	// where the last equal-start group put in merged order ends.
	open   uint64
	sorted uint64
	// ids maps the producer-local ID of each open session to its slot.
	// A reclaimed session keeps its entry until it closes; reclaimed
	// counts them.
	ids       map[uint64]uint64
	reclaimed int
	// next is the head record while the input sits in advance's heap.
	next *SessionRecord

	pongs run[trace.Pong]
	hits  run[trace.Hit]
}

// slot is one announced session: open until its close arrives, then
// holding the record until it retires. A slot that is neither open nor
// holding a record is spent: its record took the spill path.
type slot struct {
	start trace.Time
	rec   *SessionRecord
	open  bool
}

// NewMerger builds a merger over k input streams.
func NewMerger(k int, sink Sink) *Merger {
	m := &Merger{
		intake: make(chan Batch, 4*k),
		sink:   sink,
		out:    &trace.Trace{},
		remain: k,
		passed: math.MinInt64,
		heads:  make([]int, 0, k),
	}
	m.inputs = make([]inputState, k)
	for i := range m.inputs {
		m.inputs[i].ids = make(map[uint64]uint64)
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

// Spilled reports how many sessions took the spill path: those that
// exceeded the emission window, and closes no open slot could take.
func (m *Merger) Spilled() int { return m.spilled }

// Run consumes batches until every input has delivered its EvDone
// trailer, then drains the queues and returns the merged trace. It must
// run on its own goroutine while producers emit (the intake channel is
// bounded — that bound is the backpressure window). Each batch's event
// array goes back to its sender once applied (Batch.Return): what the
// merge keeps of an event, it keeps by value or through the record
// pointers the event carries, never in the array.
func (m *Merger) Run() *trace.Trace {
	for m.remain > 0 {
		b := <-m.intake
		st := &m.inputs[b.Input]
		for i := range b.Events {
			m.apply(b.Input, st, &b.Events[i])
		}
		m.advance()
		b.recycle()
	}
	m.finish()
	return m.out
}

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
		if len(st.slots) == cap(st.slots) && 4*(st.head-st.base) >= uint64(len(st.slots)) {
			st.slots = st.slots[:copy(st.slots, st.slots[st.head-st.base:])]
			st.base = st.head
		}
		st.ids[ev.ID] = st.base + uint64(len(st.slots))
		st.slots = append(st.slots, slot{start: ev.Time, open: true})
	case EvClose:
		m.close(st, ev)
	case EvPong:
		st.pongs.add(ev.Pong, comparePong)
	case EvHit:
		st.hits.add(ev.Hit, compareHit)
	case EvDone:
		m.stop(st)
		if ev.Done != nil {
			m.fold(input, ev.Done)
		}
	case EvEvict:
		m.deadInputs++
		m.lostSessions += uint64(len(st.ids))
		m.om.dead.SetInt(int64(m.deadInputs))
		m.om.lost.SetInt(int64(m.lostSessions))
		// The input leaves the barrier entirely: its watermark no longer
		// pins retirement and its open sessions are written off — they
		// can never close, so waiting on them would deadlock the merge.
		m.stop(st)
		if ev.Done != nil {
			// A liveness layer may synthesize a partial trailer from the
			// events it applied, keeping the merged counters consistent
			// with the records actually present; the emitter's aggregate
			// counters (unrecorded wider-network traffic) are lost with it.
			m.fold(input, ev.Done)
		}
	}
}

// stop ends an input: it leaves the barrier, and the sessions it left
// open are skipped when its queue drains.
func (m *Merger) stop(st *inputState) {
	st.done = true
	st.ids = nil
	m.remain--
}

// close takes one EvClose. The record fills its session's slot when it
// can retire inline in merged order. Otherwise it takes the spill path,
// which folds it in at its exact merged position at finish: an outlier
// (longer than the window — the windowed barrier may already have passed
// its start, and the classification depends only on the record, so the
// inline order stays deterministic), and, from a producer breaking the
// contract, a close for an ID that is not open, a record whose start is
// not its announced one, or a slot the barrier has already passed.
func (m *Merger) close(st *inputState, ev *Event) {
	r := ev.Sess
	var s *slot
	if seq, ok := st.ids[ev.ID]; ok {
		delete(st.ids, ev.ID)
		if seq >= st.head {
			s = &st.slots[seq-st.base]
		} else {
			st.reclaimed--
		}
	}
	if s != nil {
		s.open = false
	}
	if r == nil {
		return
	}
	outlier := m.window > 0 && r.Conn.End-r.Conn.Start > m.window
	if s != nil && !outlier && r.Conn.Start == s.start && s.start >= m.passed {
		s.rec = r
		m.pending++
		if m.pending > m.peakPending {
			m.peakPending = m.pending
			m.om.peak.SetInt(int64(m.peakPending))
		}
		return
	}
	m.spill = append(m.spill, *r)
	m.spilled++
	m.om.spilled.Inc()
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
// can appear: the minimum over the inputs still producing of the earliest
// still-open start and the watermark (future arrivals start at or after
// it), or math.MaxInt64 once every input is done or evicted.
//
// With an emission window, an open session bounds the barrier by at most
// window: its contribution is clamped to ≥ watermark − window. That stays
// safe for inline (non-spilled) emission because any future close with
// duration ≤ window arrives at some instant c ≥ watermark and so has
// start ≥ c − window ≥ watermark − window; closes with larger durations
// are outliers and never fill a slot. A reclaimed session started before
// the clamp, so while one stays open the clamp is the contribution.
func (m *Merger) barrier() trace.Time {
	b := trace.Time(math.MaxInt64)
	for i := range m.inputs {
		st := &m.inputs[i]
		if st.done {
			continue
		}
		hold := st.watermark
		if st.reclaimed > 0 {
			hold = st.watermark - m.window
		} else {
			st.open = max(st.open, st.head)
			for st.open < st.base+uint64(len(st.slots)) && !st.slots[st.open-st.base].open {
				st.open++
			}
			if st.open < st.base+uint64(len(st.slots)) {
				hold = st.slots[st.open-st.base].start
				if m.window > 0 && st.watermark-m.window > hold {
					hold = st.watermark - m.window
				}
			}
		}
		b = min(b, hold)
	}
	return b
}

// advance retires every queued session that starts before the barrier
// (the highest yet, passed), in the merged total order: a k-way merge of
// the inputs' queue heads, collapsing adjacent duplicates exactly as
// trace.Merge does.
func (m *Merger) advance() {
	b := m.barrier()
	if b < math.MaxInt64 {
		m.om.barrier.Set(b.Seconds())
	}
	m.passed = max(m.passed, b)
	h := m.heads[:0]
	for i := range m.inputs {
		if m.ready(&m.inputs[i]) {
			h = append(h, i)
		}
	}
	less := func(a, b int) bool { return compareRecords(m.inputs[a].next, m.inputs[b].next) < 0 }
	heapify(h, less)
	for len(h) > 0 {
		st := &m.inputs[h[0]]
		st.slots[st.head-st.base].rec = nil
		st.head++
		m.pending--
		m.emit(st.next)
		if !m.ready(st) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0, less)
	}
	m.heads = h
	m.om.pending.SetInt(int64(m.pending))
}

// ready moves st's head past spent slots and past open ones that can no
// longer hold it — reclaimed when they started before watermark − window
// (they are certain to close as outliers), written off when the input is
// done — and reports whether the head can retire, setting st.next to its
// record. Before the first session of an equal-start group retires, the
// group's records are put in merged order: the queue is in start order
// only.
func (m *Merger) ready(st *inputState) bool {
	for ; st.head < st.base+uint64(len(st.slots)); st.head++ {
		s := &st.slots[st.head-st.base]
		if s.rec != nil {
			if s.start >= m.passed {
				return false
			}
			if st.sorted <= st.head {
				st.sortGroup()
			}
			st.next = s.rec
			return true
		}
		if s.open {
			if !st.done && (m.window <= 0 || s.start >= st.watermark-m.window) {
				return false
			}
			st.reclaimed++
		}
	}
	st.slots, st.base = st.slots[:0], st.head
	return false
}

// sortGroup puts the records of the equal-start group at st's head into
// merged order, leaving its open and spent slots where they are. The
// group is complete: its start is below the barrier, so every slot in it
// that can still be filled has been.
func (st *inputState) sortGroup() {
	g := st.slots[st.head-st.base:]
	n := 1
	for n < len(g) && g[n].start == g[0].start {
		n++
	}
	g = g[:n]
	st.sorted = st.head + uint64(n)
	if n == 1 {
		return
	}
	var recs []*SessionRecord
	for i := range g {
		if g[i].rec != nil {
			recs = append(recs, g[i].rec)
		}
	}
	slices.SortFunc(recs, compareRecords)
	j := 0
	for i := range g {
		if g[i].rec != nil {
			g[i].rec = recs[j]
			j++
		}
	}
}

// chunk is a run of emitted sessions: conns[i] and its query list
// lists[i]. Neither slice grows past the capacity it was made with.
type chunk struct {
	conns []trace.Conn
	lists [][]trace.Query
}

// mergeChunk is the most sessions one chunk holds. The first chunks are
// smaller, each as large as all before it, so a short merge does not
// reserve a full one.
const mergeChunk = 4096

func (m *Merger) emit(r *SessionRecord) {
	if m.last != nil && compareRecords(m.last, r) == 0 {
		m.dropDuplicate(r)
		return
	}
	m.last = r
	k := len(m.chunks) - 1
	if k < 0 || len(m.chunks[k].conns) == cap(m.chunks[k].conns) {
		n := min(max(m.emitted, 256), mergeChunk)
		m.chunks = append(m.chunks, chunk{conns: make([]trace.Conn, 0, n), lists: make([][]trace.Query, 0, n)})
		k++
	}
	ch := &m.chunks[k]
	c := r.Conn
	c.ID = uint64(m.emitted)
	m.emitted++
	ch.conns = append(ch.conns, c)
	ch.lists = append(ch.lists, r.Queries)
	m.queries += len(r.Queries)
	m.merged(&ch.conns[len(ch.conns)-1], r)
}

// merged hands one merged session to the sink and the metrics.
func (m *Merger) merged(c *trace.Conn, r *SessionRecord) {
	if m.sink != nil {
		m.sink.MergedSession(c, r.Queries)
	}
	m.om.emitted.Inc()
	m.om.duration.Observe((r.Conn.End - r.Conn.Start).Seconds())
}

// dropDuplicate drops an exact duplicate observation of a merged session
// (two vantages recorded identical records), deducting its per-session
// query records from the aggregates to keep len(Queries) ==
// Counts.QueryHop1.
func (m *Merger) dropDuplicate(r *SessionRecord) {
	m.out.Counts.Query -= uint64(len(r.Queries))
	m.out.Counts.QueryHop1 -= uint64(len(r.Queries))
}

// finish retires what the last barrier left, folds the spilled sessions
// into their merged positions, and builds the record sections in their
// canonical orders from what the merge kept apart: Queries from the
// sessions' query lists, Pongs and Hits from the inputs' runs. The result
// holds exactly the records batch trace.Merge would, in its order.
func (m *Merger) finish() {
	m.advance()
	m.collect()
	if len(m.spill) > 0 {
		m.foldSpill()
	}
	m.out.Queries = sweepQueries(m.lists, m.queries)
	m.lists = nil
	pongs := make([][]trace.Pong, len(m.inputs))
	hits := make([][]trace.Hit, len(m.inputs))
	for i := range m.inputs {
		pongs[i] = m.inputs[i].pongs.sorted(comparePong)
		hits[i] = m.inputs[i].hits.sorted(compareHit)
	}
	m.out.Pongs = mergeRuns(pongs, comparePong)
	m.out.Hits = mergeRuns(hits, compareHit)
}

// collect copies the emitted chunks into out.Conns and lists, each
// allocated once with room for the spill fold, and drops the chunks.
func (m *Merger) collect() {
	if n := m.emitted + len(m.spill); n > 0 {
		m.out.Conns = make([]trace.Conn, 0, n)
		m.lists = make([][]trace.Query, 0, n)
	}
	for _, ch := range m.chunks {
		m.out.Conns = append(m.out.Conns, ch.conns...)
		m.lists = append(m.lists, ch.lists...)
	}
	m.chunks = nil
}

// foldSpill merges the spilled sessions into the inline-emitted sessions
// at their exact merged positions, in place from the back, renumbering
// the dense connection IDs after the first insertion and collapsing
// duplicates exactly as inline emission does, so the drained trace is
// byte-identical to an unwindowed merge. An outlier can never equal an
// inline record (equal records have equal durations, and outlier-ness is
// a pure function of duration), but a close spilled for breaking the
// producer contract can. The sink observes the folded sessions here,
// after every inline one.
func (m *Merger) foldSpill() {
	sp := m.spill
	m.spill = nil
	slices.SortFunc(sp, func(a, b SessionRecord) int { return compareRecords(&a, &b) })
	conns, lists := m.out.Conns, m.lists
	inline := func(i int, r *SessionRecord) int {
		if c := trace.CompareConn(&conns[i], &r.Conn); c != 0 {
			return c
		}
		return trace.CompareQueryValueLists(lists[i], r.Queries)
	}
	kept := sp[:0]
	for i := range sp {
		r := &sp[i]
		// Before the fold every inline connection's ID is its index.
		_, dup := slices.BinarySearchFunc(conns, r, func(c trace.Conn, r *SessionRecord) int {
			return inline(int(c.ID), r)
		})
		if dup || len(kept) > 0 && compareRecords(&kept[len(kept)-1], r) == 0 {
			m.dropDuplicate(r)
			continue
		}
		kept = append(kept, *r)
	}
	sp = kept
	if len(sp) == 0 {
		return
	}

	// collect left room for every spilled session.
	n := len(conns)
	conns, lists = conns[:n+len(sp)], lists[:n+len(sp)]
	at := make([]int, len(sp))
	i := n - 1
	for j := len(sp) - 1; j >= 0; j-- {
		r := &sp[j]
		for ; i >= 0 && inline(i, r) > 0; i-- {
			conns[i+j+1], lists[i+j+1] = conns[i], lists[i]
		}
		at[j] = i + j + 1
		conns[at[j]], lists[at[j]] = r.Conn, r.Queries
	}
	for k := at[0]; k < len(conns); k++ {
		conns[k].ID = uint64(k)
	}
	m.out.Conns, m.lists = conns, lists
	for j := range sp {
		m.queries += len(sp[j].Queries)
		m.merged(&conns[at[j]], &sp[j])
	}
}

// sweepQueries builds the Queries section from the merged sessions' query
// lists in one pass, already in trace.CompareQuery order: a heap of
// cursors, one per session with queries left, keyed by (At, merged ID) —
// within one list the comparator's later keys order the queries, and a
// list recorded out of that order is sorted first, in a copy. Sessions
// join the heap lazily, in merged order, while the least first-query
// instant among those yet to join (a suffix minimum) is below the heap's
// top, so the heap holds only sessions whose queries overlap in time.
func sweepQueries(lists [][]trace.Query, total int) []trace.Query {
	out := make([]trace.Query, 0, total)
	low := make([]trace.Time, len(lists)+1)
	low[len(lists)] = math.MaxInt64
	for i := len(lists) - 1; i >= 0; i-- {
		l := lists[i]
		if !slices.IsSortedFunc(l, compareSessionQuery) {
			l = slices.Clone(l)
			slices.SortFunc(l, compareSessionQuery)
			lists[i] = l
		}
		low[i] = low[i+1]
		if len(l) > 0 {
			low[i] = min(low[i], l[0].At)
		}
	}
	type cursor struct {
		at  trace.Time
		id  int
		pos int
	}
	less := func(a, b cursor) bool { return a.at < b.at || a.at == b.at && a.id < b.id }
	var h []cursor
	next := 0
	for {
		for next < len(lists) && (len(h) == 0 || low[next] < h[0].at) {
			if l := lists[next]; len(l) > 0 {
				h = append(h, cursor{at: l[0].At, id: next})
				siftUp(h, len(h)-1, less)
			}
			next++
		}
		if len(h) == 0 {
			return out
		}
		c := &h[0]
		l := lists[c.id]
		q := l[c.pos]
		q.ConnID = uint64(c.id)
		out = append(out, q)
		if c.pos++; c.pos < len(l) {
			c.at = l[c.pos].At
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0, less)
	}
}

// compareSessionQuery orders two queries of one session as the Queries
// section does, blind to the producer-local connection IDs.
func compareSessionQuery(a, b trace.Query) int {
	if a.At != b.At {
		return cmp.Compare(a.At, b.At)
	}
	a.ConnID, b.ConnID = 0, 0
	return trace.CompareQuery(&a, &b)
}

// run is one input's pongs or hits in arrival order, which is time order,
// so usually already the comparator's order; disordered records whether
// it is not. It grows by doubling from runChunk records, so a run of n
// records costs about log2(n/runChunk) allocations.
type run[T any] struct {
	recs       []T
	disordered bool
}

const runChunk = 1024

func (r *run[T]) add(v T, cmp func(a, b T) int) {
	n := len(r.recs)
	if n == cap(r.recs) {
		r.recs = slices.Grow(r.recs, max(n, runChunk))
	}
	r.recs = append(r.recs, v)
	if n > 0 && !r.disordered && cmp(r.recs[n-1], r.recs[n]) > 0 {
		r.disordered = true
	}
}

// sorted returns the run's records in comparator order, sorting them only
// when they arrived out of it.
func (r *run[T]) sorted(cmp func(a, b T) int) []T {
	if r.disordered {
		slices.SortFunc(r.recs, cmp)
	}
	recs := r.recs
	r.recs = nil
	return recs
}

// mergeRuns k-way merges sorted runs into one section of exactly their
// total length, in comparator order; a single non-empty run is the
// section itself.
func mergeRuns[T any](runs [][]T, cmp func(a, b T) int) []T {
	runs = slices.DeleteFunc(runs, func(r []T) bool { return len(r) == 0 })
	switch len(runs) {
	case 0:
		return nil
	case 1:
		return runs[0]
	}
	total := 0
	for _, r := range runs {
		total += len(r)
	}
	out := make([]T, 0, total)
	less := func(a, b []T) bool { return cmp(a[0], b[0]) < 0 }
	heapify(runs, less)
	for len(runs) > 0 {
		r := runs[0]
		out = append(out, r[0])
		if r = r[1:]; len(r) > 0 {
			runs[0] = r
		} else {
			runs[0] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
		siftDown(runs, 0, less)
	}
	return out
}

// comparePong and compareHit are the trace comparators over values.
func comparePong(a, b trace.Pong) int { return trace.ComparePong(&a, &b) }
func compareHit(a, b trace.Hit) int   { return trace.CompareHit(&a, &b) }

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

// heapify, siftDown and siftUp keep h a binary min-heap under less.
func heapify[E any](h []E, less func(a, b E) bool) {
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, less)
	}
}

func siftDown[E any](h []E, i int, less func(a, b E) bool) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && less(h[r], h[c]) {
			c = r
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func siftUp[E any](h []E, i int, less func(a, b E) bool) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(h[i], h[p]) {
			return
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}
