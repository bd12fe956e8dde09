package simtime

import (
	"math"
	"math/bits"
	"time"
)

// CalendarScheduler is a calendar-queue Scheduler (R. Brown, "Calendar
// Queues: A Fast O(1) Priority Queue Implementation for the Simulation
// Event Set Problem", CACM 1988): pending events hash by timestamp into an
// array of day buckets whose combined span is one "year"; dequeue scans the
// current day for the earliest event of the current year and only falls
// back to a direct search when a whole year of days is empty. The bucket
// count follows the live event count, and the bucket width is set from
// the head of the queue — about three times the mean separation of the
// earliest live events, Brown's rule, rounded down to a power of two so a
// bucket index is a shift and a mask — so a scanned day holds a handful
// of entries and enqueue and dequeue are O(1) amortized where a binary
// heap pays O(log n); calendarShift says why the head, not the whole live
// set, must set it. When the head's density drifts between resizes, Step
// notices the longer scans and re-measures the width (the dynamic
// calendar queue of Oh and Ahn, 1997).
//
// Ordering is identical to HeapScheduler by contract: events fire in
// (timestamp, sequence-key, insertion) order — plain schedule-FIFO when
// the caller never touches keys — which the equivalence property and
// fuzz tests pin operation for operation, cancellations and ties included.
// The bucket width affects only speed, never the fire order.
//
// A bucket holds pointer-free entries, each an event's instant and its
// item's id, so a day scan compares instants without touching an item (it
// reads one only to break an exact-instant tie) and filling and emptying
// buckets writes no pointers for the garbage collector to track.
// Cancellation is eager: a queued item knows its slot in its bucket
// (item.index), so Cancel swap-deletes its entry and recycles the item at
// once, and the buckets hold live events only. Not safe for concurrent
// use.
type CalendarScheduler struct {
	now       Time
	cur       SeqKey // implicit key of the next Schedule call
	seq       uint64 // unique insertion counter
	scheduled uint64
	fired     uint64
	hook      FireHook
	pool      itemPool

	buckets [][]entry
	mask    int  // len(buckets) - 1; bucket count is a power of two
	shift   uint // bucket span is 1 << shift; one year is that × len(buckets)
	live    int  // queued items

	// winStart is the absolute start of the day currently being scanned.
	// All live timestamps are ≥ now, and now is never behind winStart, so
	// the scan position only ever needs to move backward when an event is
	// scheduled into an earlier day than the scan has reached (possible
	// after a direct-search jump across empty years).
	winStart Time

	// cached is the item the last findMin located, so peek-then-pop
	// (RunUntil's loop) pays one scan, not two. It is dropped when a
	// Schedule preempts it, when it is cancelled, and at a resize; its
	// slot is its index, which every removal keeps current.
	cached *item

	// gather is resize's scratch list of entries, kept between calls.
	gather []entry
	// counts is newBuckets' scratch: per-bucket entry counts.
	counts []int
	// head is calendarShift's scratch: a max-heap of the earliest live
	// timestamps.
	head [calendarSampleCap]Time

	// examined counts the bucket entries that findMin has looked at — the
	// scan length the bucket width exists to keep short. windowSteps and
	// windowMark are the Step count and examined value at the start of
	// Step's current scan-length window.
	examined    uint64
	windowSteps int
	windowMark  uint64
}

// entry is a queued event as its bucket holds it: its instant and its
// item's id in the scheduler's pool.
type entry struct {
	at Time
	id uint32
}

const (
	// calendarMinBuckets keeps the calendar from thrashing at small sizes,
	// where the heap wins anyway.
	calendarMinBuckets = 64
	// calendarDefaultShift spaces an empty calendar's buckets (about half
	// a millisecond apart) before any spacing statistics exist.
	calendarDefaultShift = 19
	// calendarMaxScan is the mean number of bucket entries per Step above
	// which Step re-measures the bucket width. A well-sized calendar scans
	// about four: three of the current day plus later years' entries.
	calendarMaxScan = 8
	// calendarSlack is the room newBuckets leaves in each bucket beyond
	// the entries a resize places there. Over the 8 vantages of a
	// scale-0.25, 3-day fleet run, buckets outgrew their arrays about
	// 27,300 times with 4, 10,200 with 8, 3,400 with 12 and 1,250 with 16.
	calendarSlack = 12
	// calendarSampleCap is how many of the earliest live timestamps a
	// resize measures the bucket width from.
	calendarSampleCap = 64
)

// NewCalendarScheduler returns a calendar scheduler positioned at the
// trace epoch.
func NewCalendarScheduler() *CalendarScheduler {
	return &CalendarScheduler{
		buckets: make([][]entry, calendarMinBuckets),
		mask:    calendarMinBuckets - 1,
		shift:   calendarDefaultShift,
	}
}

// Now returns the current simulated time.
func (s *CalendarScheduler) Now() Time { return s.now }

// Fired returns how many events have been executed.
func (s *CalendarScheduler) Fired() uint64 { return s.fired }

// Scheduled returns how many events have been queued over the scheduler's
// lifetime.
func (s *CalendarScheduler) Scheduled() uint64 { return s.scheduled }

// Pending returns the number of scheduled events not yet fired or
// cancelled.
func (s *CalendarScheduler) Pending() int { return s.live }

// bucketOf maps a timestamp to its bucket index. Queued timestamps are
// never negative (they are ≥ now ≥ 0).
func (s *CalendarScheduler) bucketOf(at Time) int {
	return int(uint64(at)>>s.shift) & s.mask
}

// dayOf returns the start of the day holding a timestamp.
func (s *CalendarScheduler) dayOf(at Time) Time { return at &^ (1<<s.shift - 1) }

// Schedule queues an event at an absolute simulated instant with the
// implicit (FIFO-advancing) tie-break key. Scheduling in the past (before
// Now) fires the event at the current time rather than rewinding the
// clock.
func (s *CalendarScheduler) Schedule(at Time, e Event) Handle {
	key := s.cur
	s.cur.Pos++
	return s.ScheduleKeyed(at, key, e)
}

// ScheduleKeyed queues an event with an explicit tie-break key, leaving
// the implicit key untouched.
func (s *CalendarScheduler) ScheduleKeyed(at Time, key SeqKey, e Event) Handle {
	if at < s.now {
		at = s.now
	}
	if s.live+1 > 2*len(s.buckets) {
		s.resize(len(s.buckets) * 2)
	}
	it := s.pool.get()
	it.at, it.key, it.seq, it.event = at, key, s.seq, e
	s.seq++
	s.scheduled++
	i := s.bucketOf(at)
	it.index = int32(len(s.buckets[i]))
	s.buckets[i] = append(s.buckets[i], entry{at: at, id: it.id})
	s.live++
	// An item can land in a day the scan already walked past (the scan
	// runs ahead of the clock across empty stretches); pull the scan
	// position back so the next findMin sees it.
	if day := s.dayOf(at); day < s.winStart {
		s.winStart = day
	}
	// The new item preempts the cached minimum when it fires first —
	// which an explicit key can achieve even at an equal timestamp, so
	// the comparison must be the full fire order, not just the instant.
	if s.cached != nil && it.before(s.cached) {
		s.cached = nil
	}
	return Handle{it: it, gen: it.gen}
}

// Reseed repositions the implicit key.
func (s *CalendarScheduler) Reseed(key SeqKey) { s.cur = key }

// SetFireHook installs the pre-fire callback.
func (s *CalendarScheduler) SetFireHook(h FireHook) { s.hook = h }

// After queues an event delay after the current instant.
func (s *CalendarScheduler) After(delay time.Duration, e Event) Handle {
	return s.Schedule(s.now+delay, e)
}

// Cancel removes a scheduled event and recycles its item. Cancelling an
// already-fired or already-cancelled event is a no-op.
func (s *CalendarScheduler) Cancel(h Handle) {
	if !h.pending() {
		return
	}
	s.remove(h.it)
	if s.cached == h.it {
		s.cached = nil
	}
	s.pool.put(h.it)
}

// remove swap-deletes a queued item's entry from its bucket, moving the
// bucket's last entry into the freed slot and updating that entry's
// index.
func (s *CalendarScheduler) remove(it *item) {
	i := s.bucketOf(it.at)
	b := s.buckets[i]
	last := len(b) - 1
	if j := it.index; int(j) != last {
		b[j] = b[last]
		s.pool.item(b[j].id).index = j
	}
	s.buckets[i] = s.buckets[i][:last] // a length-only store: no write barrier
	s.live--
}

// findMin locates and caches the earliest (at, key, seq) queued item,
// advancing the day scan as far as needed. It returns nil when none
// remain.
func (s *CalendarScheduler) findMin() *item {
	if s.cached != nil || s.live == 0 {
		return s.cached
	}
	width := Time(1) << s.shift
	for range s.buckets {
		// Only items of the current year's window belong to this day;
		// later years wait for their wrap-around.
		if best := s.scanDay(s.bucketOf(s.winStart), s.winStart, uint64(width)); best != nil {
			s.cached = best
			return best
		}
		s.winStart += width
	}
	// A whole year of days is empty: jump straight to the global minimum's
	// day instead of spinning across the gap.
	var best *item
	for i := range s.buckets {
		if it := s.scanDay(i, 0, math.MaxUint64); it != nil && (best == nil || it.before(best)) {
			best = it
		}
	}
	s.winStart = s.dayOf(best.at)
	s.cached = best
	return best
}

// scanDay returns the earliest item in bucket i that lies in [day,
// day+span), or nil. It compares the entries' offsets from day as
// unsigned numbers, so an entry outside the day, before or after it,
// reads as at least span and one comparison both filters and orders;
// it reads items only to order an exact-instant tie.
func (s *CalendarScheduler) scanDay(i int, day Time, span uint64) *item {
	b := s.buckets[i]
	s.examined += uint64(len(b))
	best, bestOff := -1, span
	for j, e := range b {
		if off := uint64(e.at - day); off < bestOff {
			best, bestOff = j, off
		} else if off == bestOff && best >= 0 && s.pool.item(e.id).before(s.pool.item(b[best].id)) {
			best = j
		}
	}
	if best < 0 {
		return nil
	}
	return s.pool.item(b[best].id)
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (s *CalendarScheduler) Step() bool {
	it := s.findMin()
	if it == nil {
		return false
	}
	s.remove(it)
	s.cached = nil
	// The width was measured at the last resize; when the head's density
	// has drifted since (a fill that front-loaded one kind of event, a
	// phase change in the traffic), re-measure it. Judged once per window
	// of one Step per bucket, so the rebuild costs O(1) amortized.
	s.windowSteps++
	if s.windowSteps >= len(s.buckets) {
		if s.examined-s.windowMark > calendarMaxScan*uint64(s.windowSteps) {
			s.resize(len(s.buckets))
		} else {
			s.windowSteps, s.windowMark = 0, s.examined
		}
	}
	at, key, ev := it.at, it.key, it.event
	// Recycled before Fire so the events it schedules can reuse the item.
	s.pool.put(it)
	if s.live < len(s.buckets)/2 && len(s.buckets) > calendarMinBuckets {
		s.resize(len(s.buckets) / 2)
	}
	s.now = at
	s.fired++
	if s.hook != nil {
		s.hook(at, key)
	}
	ev.Fire(at)
	return true
}

// RunUntil fires events in order until the queue is empty or the next
// event lies strictly after the horizon. The clock finishes at the horizon
// (or at the last event, whichever is later).
func (s *CalendarScheduler) RunUntil(horizon Time) {
	for {
		it := s.findMin()
		if it == nil || it.at > horizon {
			break
		}
		s.Step()
	}
	if s.now < horizon {
		s.now = horizon
	}
}

// Run drains the event queue completely.
func (s *CalendarScheduler) Run() {
	for s.Step() {
	}
}

// resize rebuilds the bucket array at the given size (a power of two),
// recomputing the bucket width from the queued instants. Also used at
// constant size to re-measure the width, where every bucket keeps its
// backing array; a size change hands the arrays on (newBuckets).
func (s *CalendarScheduler) resize(size int) {
	if size < calendarMinBuckets {
		size = calendarMinBuckets
	}
	entries := s.gather[:0]
	for _, b := range s.buckets {
		entries = append(entries, b...)
	}
	s.shift = s.calendarShift(entries)
	s.mask = size - 1
	if size == len(s.buckets) {
		for i, b := range s.buckets {
			s.buckets[i] = b[:0]
		}
	} else {
		s.buckets = s.newBuckets(size, entries)
	}
	for _, e := range entries {
		i := s.bucketOf(e.at)
		s.pool.item(e.id).index = int32(len(s.buckets[i]))
		s.buckets[i] = append(s.buckets[i], e)
	}
	s.gather = entries[:0]
	// All live timestamps are ≥ now, so scanning from now's day is always
	// safe after a rebuild.
	s.winStart = s.dayOf(s.now)
	s.cached = nil
	s.windowSteps, s.windowMark = 0, s.examined
}

// newBuckets builds a bucket array of the given size for the entries
// resize is about to place. The previous layout's arrays have grown to the
// load the calendar carries, and the pending count swings across the
// resize thresholds many times in a run, so they are handed on: old bucket
// j's array goes to new bucket j mod size (the largest, where several
// meet), and a bucket keeps it when it has room for the bucket's entries
// plus calendarSlack. Every other bucket takes a share of one fresh slab
// with that much room. A bucket that outgrows its array regrows it step
// by step as schedules land in it, one small allocation per step.
func (s *CalendarScheduler) newBuckets(size int, entries []entry) [][]entry {
	if cap(s.counts) < size {
		s.counts = make([]int, size)
	}
	counts := s.counts[:size]
	clear(counts)
	for _, e := range entries {
		counts[s.bucketOf(e.at)]++
	}
	buckets := make([][]entry, size)
	for j, b := range s.buckets {
		if i := j & (size - 1); cap(b) > cap(buckets[i]) {
			buckets[i] = b[:0]
		}
	}
	fresh := 0
	for i, c := range counts {
		if cap(buckets[i]) < c+calendarSlack {
			fresh += c + calendarSlack
		}
	}
	slab := make([]entry, fresh)
	off := 0
	for i, c := range counts {
		if cap(buckets[i]) < c+calendarSlack {
			end := off + c + calendarSlack
			buckets[i] = slab[off:off:end]
			off = end
		}
	}
	return buckets
}

// calendarShift sets the bucket width from the front of the queue, as
// Brown does: about three times the mean separation of the
// calendarSampleCap earliest live timestamps, rounded down to a power of
// two, so the days the scan walks next hold a handful of events each. Only
// the head matters because the scan only ever walks the head; later events
// hash evenly across the year, about one per bucket. A vantage's events
// crowd the next few seconds while session ends trail off days ahead, so
// a width from the whole live set's spread is hours wide and piles the
// near term into one day. The selection is a bounded max-heap in the
// scheduler's own scratch: O(live), no allocation, and deterministic.
func (s *CalendarScheduler) calendarShift(entries []entry) uint {
	h := s.head[:0]
	for _, it := range entries {
		switch {
		case len(h) < len(s.head):
			h = append(h, it.at)
			// Sift up.
			for c := len(h) - 1; c > 0; {
				p := (c - 1) / 2
				if h[p] >= h[c] {
					break
				}
				h[p], h[c] = h[c], h[p]
				c = p
			}
		case it.at < h[0]:
			// Replace the largest kept timestamp and sift down.
			h[0] = it.at
			for p := 0; ; {
				c := 2*p + 1
				if c >= len(h) {
					break
				}
				if c+1 < len(h) && h[c+1] > h[c] {
					c++
				}
				if h[p] >= h[c] {
					break
				}
				h[p], h[c] = h[c], h[p]
				p = c
			}
		}
	}
	if len(h) < 2 {
		return calendarDefaultShift
	}
	first := h[0]
	for _, at := range h[1:] {
		first = min(first, at)
	}
	span := h[0] - first
	if span <= 0 {
		return calendarDefaultShift
	}
	return uint(bits.Len64(uint64(max(3*span/Time(len(h)-1), 1)))) - 1
}
