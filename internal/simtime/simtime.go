// Package simtime provides the virtual clock and discrete-event scheduler
// that drive the measurement simulation.
//
// Simulated time is a time.Duration measured from the trace epoch. The
// paper's trace began 2004-03-15 at the measurement node in Dortmund; Epoch
// pins that instant so absolute timestamps and day/hour bins are
// well-defined. Nothing in the simulator reads the wall clock, which makes
// runs byte-for-byte reproducible.
//
// # Handles and item recycling
//
// Both schedulers are one core (the clock, the keys, the counters and the
// fire hook) around one ordering of the pending items, a binary heap or a
// calendar queue. The core takes every queue entry, an item, from its
// Pool, a free list refilled a block of items at a time: an item goes
// back the moment its event fires or is cancelled, so a steady-state
// Schedule/Step loop allocates nothing, and a rising pending count
// allocates once per block, not once per entry. A Handle therefore names
// one scheduled event, not one queue entry: it carries the entry's
// generation, which advances every time the entry is recycled. Cancel and
// Cancelled on a handle whose event has fired or been cancelled stay the
// documented no-op / true forever, no matter how many later events have
// reused the entry — callers may keep a stale handle and cancel it
// blindly (the probe re-arm pattern in internal/capture does so on every
// delivered message). The zero Handle names no event and reads as
// cancelled. A handle is only meaningful to the scheduler that issued it,
// and a scheduler retains an Event only until it fires or is cancelled,
// so the caller may reuse the Event value from inside its own Fire.
package simtime

import (
	"container/heap"
	"time"
)

// Epoch is the instant at which the trace starts: 2004-03-15 00:00 local
// time at the measurement node (CET, UTC+1 in mid-March 2004).
var Epoch = time.Date(2004, time.March, 15, 0, 0, 0, 0, time.FixedZone("CET", 3600))

// Time is an instant of simulated time, expressed as the offset from Epoch.
type Time = time.Duration

// Day and related constants express the diurnal structure of the paper's
// analysis bins.
const (
	Day      = 24 * time.Hour
	HalfHour = 30 * time.Minute
)

// HourOfDay returns the hour bin [0,24) of the instant, in measurement-node
// local time — the x-axis of every diurnal figure in the paper.
func HourOfDay(t Time) int {
	return int((t % Day) / time.Hour)
}

// HalfHourOfDay returns the 30-minute bin [0,48) of the instant, used by
// Figure 3.
func HalfHourOfDay(t Time) int {
	return int((t % Day) / HalfHour)
}

// DayIndex returns the zero-based trace day containing the instant.
func DayIndex(t Time) int { return int(t / Day) }

// At builds a simulated instant from a day index and a time of day.
func At(day int, hour, min, sec int) Time {
	return Time(day)*Day + Time(hour)*time.Hour + Time(min)*time.Minute + Time(sec)*time.Second
}

// Event is a scheduled callback. Fire runs at the scheduled instant with the
// scheduler's current time.
type Event interface {
	Fire(now Time)
}

// EventFunc adapts a function to the Event interface.
type EventFunc func(now Time)

// Fire implements Event.
func (f EventFunc) Fire(now Time) { f(now) }

// SeqKey is an event's equal-timestamp tie-break rank: among events with
// the same timestamp, smaller keys fire first (lexicographically by
// Epoch, then Pos; insertion order breaks exact key collisions). The
// zero scheduler assigns implicit keys {0, 0}, {0, 1}, {0, 2}, … in
// Schedule-call order, which is plain FIFO — callers that never touch
// keys see exactly the historical (timestamp, FIFO) contract. Two
// extensions exist for callers that need a fire order agreed on across
// schedulers (the sharded engine's determinism contract): ScheduleKeyed
// plants an event at an explicit rank, and Reseed repositions the
// implicit counter so subsequent Schedule calls rank relative to a
// caller-chosen point.
type SeqKey struct {
	Epoch uint64
	Pos   uint64
}

// Less reports whether k ranks strictly before o.
func (k SeqKey) Less(o SeqKey) bool {
	if k.Epoch != o.Epoch {
		return k.Epoch < o.Epoch
	}
	return k.Pos < o.Pos
}

// FireHook observes each event just before it fires, with the clock
// already advanced to the event's timestamp and the event's tie-break
// key. See Scheduler.SetFireHook.
type FireHook func(at Time, key SeqKey)

// Scheduler is the discrete-event scheduler API: a virtual clock plus a
// pending-event queue ordered by (timestamp, sequence key). Two
// implementations exist, one core with two queues — HeapScheduler
// (container/heap binary heap) and CalendarScheduler (Brown's calendar
// queue, O(1) amortized at large pending counts) — and they are
// contractually order-equivalent: for the same sequence of operations
// both fire the same events in the same order, ties included (pinned by
// property and fuzz tests). No implementation is safe for concurrent use;
// the simulation gives each event loop its own scheduler so a given seed
// always produces an identical event order.
type Scheduler interface {
	// Now returns the current simulated time.
	Now() Time
	// Fired returns how many events have been executed.
	Fired() uint64
	// Scheduled returns how many events have been queued over the
	// scheduler's lifetime (fired, pending and cancelled alike) — the
	// per-node work metric the engine's scaling contract is stated in.
	Scheduled() uint64
	// Pending returns the number of scheduled events not yet fired or
	// cancelled.
	Pending() int
	// Schedule queues an event at an absolute simulated instant.
	// Scheduling in the past (before Now) fires the event at the current
	// time rather than rewinding the clock. The event's tie-break key is
	// the current implicit key, which then advances by one Pos — absent
	// Reseed/ScheduleKeyed, events with equal timestamps fire in Schedule
	// order (FIFO), which keeps runs deterministic.
	Schedule(at Time, e Event) Handle
	// ScheduleKeyed queues an event with an explicit tie-break key,
	// leaving the implicit key untouched. Equal (timestamp, key) pairs
	// fall back to insertion order.
	ScheduleKeyed(at Time, key SeqKey, e Event) Handle
	// Reseed repositions the implicit key: the next Schedule call uses
	// exactly key, the one after key with Pos+1, and so on.
	Reseed(key SeqKey)
	// SetFireHook installs a callback invoked immediately before every
	// event's Fire, after the clock has advanced to the event's
	// timestamp. The hook may call Reseed (the engine's keyed tie-break
	// cursor lives there); it must not schedule or cancel events. A nil
	// hook removes it.
	SetFireHook(h FireHook)
	// After queues an event delay after the current instant.
	After(delay time.Duration, e Event) Handle
	// Cancel removes a scheduled event. Cancelling an already-fired or
	// already-cancelled event is a no-op.
	Cancel(h Handle)
	// Step fires the earliest pending event, advancing the clock to its
	// timestamp. It reports false when no events remain.
	Step() bool
	// RunUntil fires events in order until the queue is empty or the next
	// event lies strictly after the horizon. The clock finishes at the
	// horizon (or at the last event, whichever is later).
	RunUntil(horizon Time)
	// Run drains the event queue completely.
	Run()
}

type item struct {
	at  Time
	key SeqKey // tie-break rank among equal timestamps
	// seq is the unique insertion counter, the final tie-break: it keeps
	// the order total (and both implementations identical) even when a
	// caller plants two events on the same (at, key).
	seq   uint64
	event Event
	// index is the item's slot while it is queued: in HeapScheduler's
	// heap, or in its CalendarScheduler bucket (a removal there moves the
	// bucket's last entry into the freed slot and updates its index).
	index int32
	id    uint32 // the item's name in its scheduler's Pool
	// gen counts how often the item has been recycled; a Handle is live
	// only while its generation matches.
	gen uint64
}

// before is the full fire order: timestamp, then key, then insertion.
func (a *item) before(b *item) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.key != b.key {
		return a.key.Less(b.key)
	}
	return a.seq < b.seq
}

// Handle identifies a scheduled event so it can be cancelled. See the
// package documentation for its lifetime contract.
type Handle struct {
	it  *item
	gen uint64
}

// pending reports whether the handle's event is still queued. Both
// schedulers recycle an item the moment its event fires or is cancelled,
// so a matching generation means the event is neither.
func (h Handle) pending() bool {
	return h.it != nil && h.it.gen == h.gen
}

// Cancelled reports whether the handle's event has been cancelled or
// already fired.
func (h Handle) Cancelled() bool { return !h.pending() }

// core is the Scheduler both implementations share: the clock, the
// implicit key, the counters, the fire hook, the item pool and every
// method of the contract, which the Scheduler interface documents. The
// two differ only in the queue the pending items wait in: a calendar
// queue when cal is set (CalendarScheduler), a binary heap otherwise
// (HeapScheduler). The queue is chosen by a branch on cal, not through an
// interface, so the calendar's hot path makes direct calls only.
type core struct {
	now       Time
	cur       SeqKey // implicit key of the next Schedule call
	seq       uint64 // unique insertion counter
	scheduled uint64
	fired     uint64
	hook      FireHook
	items     Pool[item]
	cal       *calendar
	heap      eventHeap
}

// Now returns the current simulated time.
func (s *core) Now() Time { return s.now }

// Fired returns how many events have been executed.
func (s *core) Fired() uint64 { return s.fired }

// Scheduled returns how many events have been queued in all.
func (s *core) Scheduled() uint64 { return s.scheduled }

// Pending returns the number of scheduled events not yet fired or cancelled.
func (s *core) Pending() int {
	if s.cal != nil {
		return s.cal.live
	}
	return len(s.heap)
}

// Schedule queues an event at an instant with the implicit key.
func (s *core) Schedule(at Time, e Event) Handle {
	key := s.cur
	s.cur.Pos++
	return s.ScheduleKeyed(at, key, e)
}

// ScheduleKeyed queues an event at an instant with an explicit key.
func (s *core) ScheduleKeyed(at Time, key SeqKey, e Event) Handle {
	if at < s.now {
		at = s.now
	}
	id := s.items.Get()
	it := s.items.At(id)
	it.at, it.key, it.seq, it.event, it.id = at, key, s.seq, e, id
	s.seq++
	s.scheduled++
	if s.cal != nil {
		s.cal.push(it, s.now)
	} else {
		heap.Push(&s.heap, it)
	}
	return Handle{it: it, gen: it.gen}
}

// Reseed repositions the implicit key.
func (s *core) Reseed(key SeqKey) { s.cur = key }

// SetFireHook installs the pre-fire callback.
func (s *core) SetFireHook(h FireHook) { s.hook = h }

// After queues an event delay after the current instant.
func (s *core) After(delay time.Duration, e Event) Handle {
	return s.Schedule(s.now+delay, e)
}

// Cancel removes a scheduled event and recycles its item.
func (s *core) Cancel(h Handle) {
	if !h.pending() {
		return
	}
	if s.cal != nil {
		s.cal.remove(h.it)
	} else {
		heap.Remove(&s.heap, int(h.it.index))
	}
	s.recycle(h.it)
}

// recycle returns an item that has left the queue for good to the pool.
// Advancing the generation is what retires every Handle issued for its
// event.
func (s *core) recycle(it *item) {
	it.gen++
	it.event = nil
	s.items.Put(it.id)
}

// Step fires the earliest pending event, if any.
func (s *core) Step() bool {
	var it *item
	if s.cal != nil {
		it = s.cal.pop(s.now)
	} else if len(s.heap) > 0 {
		it = heap.Pop(&s.heap).(*item)
	}
	if it == nil {
		return false
	}
	at, key, ev := it.at, it.key, it.event
	// Recycled before Fire so the events it schedules can reuse the item.
	s.recycle(it)
	s.now = at
	s.fired++
	if s.hook != nil {
		s.hook(at, key)
	}
	ev.Fire(at)
	return true
}

// RunUntil fires the events up to the horizon and moves the clock there.
func (s *core) RunUntil(horizon Time) {
	for {
		var next *item
		if s.cal != nil {
			next = s.cal.findMin()
		} else if len(s.heap) > 0 {
			next = s.heap[0]
		}
		if next == nil || next.at > horizon {
			break
		}
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// Run drains the event queue completely.
func (s *core) Run() {
	for s.Step() {
	}
}

// HeapScheduler is the Scheduler that queues its pending items in a
// binary heap — the order oracle the calendar queue is tested against,
// and nothing more: the engine's nodes run CalendarScheduler. It is not
// safe for concurrent use.
type HeapScheduler struct{ core }

// NewScheduler returns a heap scheduler positioned at the trace epoch.
func NewScheduler() *HeapScheduler { return &HeapScheduler{} }

// eventHeap is HeapScheduler's queue, in container/heap's terms.
type eventHeap []*item

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = int32(i)
	h[j].index = int32(j)
}
func (h *eventHeap) Push(x any) {
	it := x.(*item)
	it.index = int32(len(*h))
	*h = append(*h, it)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return it
}
