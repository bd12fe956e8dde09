package simtime

import (
	"slices"
	"time"
)

// CalendarScheduler is a calendar-queue Scheduler (R. Brown, "Calendar
// Queues: A Fast O(1) Priority Queue Implementation for the Simulation
// Event Set Problem", CACM 1988): pending events hash by timestamp into an
// array of day buckets whose combined span is one "year"; dequeue scans the
// current day for the earliest event of the current year and only falls
// back to a direct search when a whole year of days is empty. With the
// bucket count and width adapted to the live event count and spacing,
// enqueue and dequeue are O(1) amortized where a binary heap pays O(log n)
// — the difference that matters at the simulation's tens of millions of
// pending events (see BenchmarkSchedulerHold for the measured crossover).
//
// Ordering is identical to HeapScheduler by contract: events fire in
// (timestamp, sequence-key, insertion) order — plain schedule-FIFO when
// the caller never touches keys — which the equivalence property and
// fuzz tests pin operation for operation, cancellations and ties included.
// Cancellation is lazy: a cancelled item stays in its bucket (marked by
// the shared index == -1 sentinel) until a scan sweeps it out, so Cancel
// is O(1) and Pending counts live events only; the item is recycled at
// the sweep, not at the Cancel. Not safe for concurrent use.
type CalendarScheduler struct {
	now       Time
	cur       SeqKey // implicit key of the next Schedule call
	seq       uint64 // unique insertion counter
	scheduled uint64
	fired     uint64
	hook      FireHook
	pool      itemPool

	buckets [][]*item
	mask    int  // len(buckets) - 1; bucket count is a power of two
	width   Time // bucket span; one year is width × len(buckets)
	live    int  // queued, non-cancelled items
	dead    int  // queued, cancelled items awaiting sweep

	// winStart is the absolute start of the day currently being scanned.
	// All live timestamps are ≥ now, and now is never behind winStart, so
	// the scan position only ever needs to move backward when an event is
	// scheduled into an earlier day than the scan has reached (possible
	// after a direct-search jump across empty years).
	winStart Time

	// cached is the item the last findMin located, so peek-then-pop
	// (RunUntil's loop) pays one scan, not two. It is dropped whenever an
	// operation could invalidate it: a Schedule before its timestamp, its
	// own cancellation (detected via the index sentinel), or a resize.
	cached *item

	// gather is resize's scratch list of live items, kept between calls.
	gather []*item
}

const (
	// calendarMinBuckets keeps the calendar from thrashing at small sizes,
	// where the heap wins anyway.
	calendarMinBuckets = 64
	// calendarDefaultWidth spaces an empty calendar's buckets before any
	// spacing statistics exist.
	calendarDefaultWidth = Time(time.Millisecond)
	// calendarSampleCap bounds the spacing sample a resize sorts.
	calendarSampleCap = 64
)

// NewCalendarScheduler returns a calendar scheduler positioned at the
// trace epoch.
func NewCalendarScheduler() *CalendarScheduler {
	s := &CalendarScheduler{
		buckets: make([][]*item, calendarMinBuckets),
		mask:    calendarMinBuckets - 1,
		width:   calendarDefaultWidth,
	}
	return s
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

// bucketOf maps an absolute timestamp to its bucket index.
func (s *CalendarScheduler) bucketOf(at Time) int {
	return int(uint64(at/s.width) & uint64(s.mask))
}

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
	it.at, it.key, it.seq, it.event, it.index = at, key, s.seq, e, 0
	s.seq++
	s.scheduled++
	i := s.bucketOf(at)
	s.buckets[i] = append(s.buckets[i], it)
	s.live++
	// An item can land in a day the scan already walked past (the scan
	// runs ahead of the clock across empty stretches); pull the scan
	// position back so the next findMin sees it.
	if day := at - at%s.width; day < s.winStart {
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

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op. The item itself is swept out of its
// bucket by a later scan or resize.
func (s *CalendarScheduler) Cancel(h Handle) {
	if !h.pending() {
		return
	}
	h.it.index = -1
	h.it.event = nil
	s.live--
	s.dead++
	if s.cached == h.it {
		s.cached = nil
	}
	// A cancellation-heavy phase (every delivered message re-arms a probe
	// timer) must not let dead items dominate the scans: compact once they
	// outnumber the live set.
	if s.dead > s.live+4*len(s.buckets) {
		s.resize(len(s.buckets))
	}
}

// sweep removes cancelled items from bucket i and recycles them;
// preserving order is not required (buckets are unordered), so
// swap-deletion keeps it O(dead).
func (s *CalendarScheduler) sweep(i int) {
	b := s.buckets[i]
	for j := 0; j < len(b); {
		if b[j].index == -1 {
			s.pool.put(b[j])
			b[j] = b[len(b)-1]
			b[len(b)-1] = nil
			b = b[:len(b)-1]
			s.dead--
			continue
		}
		j++
	}
	s.buckets[i] = b
}

// findMin locates the earliest (at, key, seq) live item, advancing the
// day scan as far as needed, and caches it. It returns nil when no live
// items remain.
func (s *CalendarScheduler) findMin() *item {
	if s.cached != nil && s.cached.index != -1 {
		return s.cached
	}
	s.cached = nil
	if s.live == 0 {
		return nil
	}
	n := len(s.buckets)
	for scanned := 0; ; scanned++ {
		if scanned >= n {
			// A whole year of days is empty: jump straight to the global
			// minimum's day instead of spinning across the gap.
			m := s.directMin()
			s.winStart = m.at - m.at%s.width
			s.cached = m
			return m
		}
		i := s.bucketOf(s.winStart)
		s.sweep(i)
		var best *item
		top := s.winStart + s.width
		for _, it := range s.buckets[i] {
			// Only items of the current year's window belong to this day;
			// later years wait for their wrap-around.
			if it.at >= s.winStart && it.at < top {
				if best == nil || it.before(best) {
					best = it
				}
			}
		}
		if best != nil {
			s.cached = best
			return best
		}
		s.winStart += s.width
	}
}

// directMin scans every bucket for the global minimum — the escape hatch
// for years with no events at all. Only called when live > 0.
func (s *CalendarScheduler) directMin() *item {
	var best *item
	for i := range s.buckets {
		s.sweep(i)
		for _, it := range s.buckets[i] {
			if best == nil || it.before(best) {
				best = it
			}
		}
	}
	return best
}

// remove deletes a (live) item from its bucket.
func (s *CalendarScheduler) remove(it *item) {
	i := s.bucketOf(it.at)
	b := s.buckets[i]
	for j := range b {
		if b[j] == it {
			b[j] = b[len(b)-1]
			b[len(b)-1] = nil
			s.buckets[i] = b[:len(b)-1]
			s.live--
			it.index = -1
			return
		}
	}
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (s *CalendarScheduler) Step() bool {
	it := s.findMin()
	if it == nil {
		return false
	}
	s.cached = nil
	s.remove(it)
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
// recomputing the bucket width from the live items' spacing and recycling
// cancelled items. Also used at constant size as a compaction pass — the
// steady state of a cancellation-heavy run — which is why that case keeps
// the buckets' backing arrays instead of allocating the year afresh.
// (Items never leave the scheduler — they are queued or on the free list
// — so the stale pointers beyond a truncated slice's length pin nothing.)
func (s *CalendarScheduler) resize(size int) {
	if size < calendarMinBuckets {
		size = calendarMinBuckets
	}
	items := s.gather[:0]
	for _, b := range s.buckets {
		for _, it := range b {
			if it.index != -1 {
				items = append(items, it)
			} else {
				s.pool.put(it)
			}
		}
	}
	s.width = calendarWidth(items)
	if size == len(s.buckets) {
		for i, b := range s.buckets {
			s.buckets[i] = b[:0]
		}
	} else {
		s.buckets = make([][]*item, size)
	}
	s.mask = size - 1
	s.dead = 0
	for _, it := range items {
		i := s.bucketOf(it.at)
		s.buckets[i] = append(s.buckets[i], it)
	}
	s.gather = items[:0]
	// All live timestamps are ≥ now, so scanning from now's day is always
	// safe after a rebuild.
	s.winStart = s.now - s.now%s.width
	s.cached = nil
}

// calendarWidth estimates a bucket width from the live items' spacing,
// Brown's rule of thumb: about three times the average separation between
// *adjacent* events, so a day holds a handful of events. A sorted sample
// gives the span of the interquartile timestamp range; that range covers
// about half the live items, so the average adjacent separation inside it
// is span ÷ (live/2) — dividing by the sample's own gap count instead
// would overestimate the width by a factor of live/sampleSize and pile
// thousands of events into each day (the scan cost then grows linearly,
// which is precisely the failure mode BenchmarkSchedulerHold guards).
// Using the middle of the distribution keeps a few far-future outliers
// (heavy-tailed session ends) from inflating the width. The estimate is
// deterministic: the sample is taken at a fixed stride.
func calendarWidth(items []*item) Time {
	if len(items) < 2 {
		return calendarDefaultWidth
	}
	stride := len(items)/calendarSampleCap + 1
	sample := make([]int64, 0, calendarSampleCap) // constant cap: stays on the stack
	for i := 0; i < len(items); i += stride {
		sample = append(sample, int64(items[i].at))
	}
	if len(sample) < 2 {
		return calendarDefaultWidth
	}
	slices.Sort(sample)
	lo, hi := len(sample)/4, (3*len(sample))/4
	if hi <= lo+1 {
		lo, hi = 0, len(sample)
	}
	span := sample[hi-1] - sample[lo]
	// The [lo, hi) quantile range of the sample covers roughly the same
	// fraction of the full live set.
	covered := int64(len(items)) * int64(hi-lo) / int64(len(sample))
	if span <= 0 || covered <= 1 {
		return calendarDefaultWidth
	}
	w := Time(3 * span / covered)
	if w < 1 {
		w = 1
	}
	return w
}
