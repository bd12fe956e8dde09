package simtime

import "time"

// CalendarScheduler is a calendar-queue Scheduler (R. Brown, "Calendar
// Queues: A Fast O(1) Priority Queue Implementation for the Simulation
// Event Set Problem", CACM 1988): pending events hash by timestamp into an
// array of day buckets whose combined span is one "year"; dequeue scans the
// current day for the earliest event of the current year and only falls
// back to a direct search when a whole year of days is empty. The bucket
// count follows the live event count, and the bucket width is set from
// the head of the queue — about three times the mean separation of the
// earliest live events, Brown's rule — so a scanned day holds a handful
// of entries and enqueue and dequeue are O(1) amortized where a binary
// heap pays O(log n); calendarWidth says why the head, not the whole live
// set, must set it. When the head's density drifts between resizes, Step
// notices the longer scans and re-measures the width (the dynamic
// calendar queue of Oh and Ahn, 1997).
//
// Ordering is identical to HeapScheduler by contract: events fire in
// (timestamp, sequence-key, insertion) order — plain schedule-FIFO when
// the caller never touches keys — which the equivalence property and
// fuzz tests pin operation for operation, cancellations and ties included.
// The bucket width affects only speed, never the fire order.
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
	// (RunUntil's loop) pays one scan, not two, and cachedSlot is its
	// position in its bucket, so Step removes it without a second walk.
	// The cache is dropped whenever an operation could invalidate either:
	// a Schedule before its timestamp, its own cancellation (detected via
	// the index sentinel), or a resize. Nothing else reorders a bucket
	// between a findMin and the Step that consumes it: Schedule only
	// appends, and Cancel only marks.
	cached     *item
	cachedSlot int

	// gather is resize's scratch list of live items, kept between calls.
	gather []*item
	// counts is newBuckets' scratch: per-bucket item counts.
	counts []int
	// head is calendarWidth's scratch: a max-heap of the earliest live
	// timestamps.
	head [calendarSampleCap]Time

	// examined counts the bucket entries (live or awaiting sweep) that
	// findMin has looked at — the scan length the bucket width exists to
	// keep short. windowSteps and windowMark are the Step count and
	// examined value at the start of Step's current scan-length window.
	examined    uint64
	windowSteps int
	windowMark  uint64
}

const (
	// calendarMinBuckets keeps the calendar from thrashing at small sizes,
	// where the heap wins anyway.
	calendarMinBuckets = 64
	// calendarDefaultWidth spaces an empty calendar's buckets before any
	// spacing statistics exist.
	calendarDefaultWidth = Time(time.Millisecond)
	// calendarMaxScan is the mean number of bucket entries per Step above
	// which Step re-measures the bucket width. A well-sized calendar scans
	// about five: three of the current day, plus later years' entries and
	// cancelled ones.
	calendarMaxScan = 8
	// calendarSlack is the room newBuckets leaves in each bucket beyond
	// the items a resize places there.
	calendarSlack = 4
	// calendarSampleCap is how many of the earliest live timestamps a
	// resize measures the bucket width from.
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

// findMin locates the earliest (at, key, seq) live item, advancing the
// day scan as far as needed, and caches it with its bucket slot. It
// returns nil when no live items remain. The day scan also sweeps out the
// cancelled items it meets, so each scanned bucket is walked once.
func (s *CalendarScheduler) findMin() *item {
	if s.cached != nil && s.cached.index != -1 {
		return s.cached
	}
	s.cached = nil
	if s.live == 0 {
		return nil
	}
	n := len(s.buckets)
	for scanned := 0; scanned < n; scanned++ {
		i := s.bucketOf(s.winStart)
		// Only items of the current year's window belong to this day;
		// later years wait for their wrap-around.
		if best, slot := s.scanDay(i, s.winStart, false); best != nil {
			s.cached, s.cachedSlot = best, slot
			return best
		}
		s.winStart += s.width
	}
	// A whole year of days is empty: jump straight to the global minimum's
	// day instead of spinning across the gap.
	var best *item
	for i := range s.buckets {
		if it, slot := s.scanDay(i, 0, true); it != nil && (best == nil || it.before(best)) {
			best, s.cachedSlot = it, slot
		}
	}
	s.winStart = best.at - best.at%s.width
	s.cached = best
	return best
}

// scanDay walks bucket i once: it recycles the cancelled items it meets
// (swap-deletion; buckets are unordered) and returns the earliest live
// item of the day starting at day — or of any year, when anyYear is set
// — and that item's slot, or nil.
func (s *CalendarScheduler) scanDay(i int, day Time, anyYear bool) (*item, int) {
	b := s.buckets[i]
	s.examined += uint64(len(b))
	var best *item
	slot := 0
	for j := 0; j < len(b); {
		it := b[j]
		if it.index == -1 {
			s.pool.put(it)
			b[j] = b[len(b)-1]
			b[len(b)-1] = nil
			b = b[:len(b)-1]
			s.dead--
			continue
		}
		inDay := anyYear || it.at >= day && it.at < day+s.width
		if inDay && (best == nil || it.before(best)) {
			best, slot = it, j
		}
		j++
	}
	s.buckets[i] = b
	return best, slot
}

// Step fires the earliest pending event, advancing the clock to its
// timestamp. It reports false when no events remain.
func (s *CalendarScheduler) Step() bool {
	it := s.findMin()
	if it == nil {
		return false
	}
	// Swap-delete the item from the slot findMin recorded.
	i := s.bucketOf(it.at)
	b := s.buckets[i]
	last := len(b) - 1
	b[s.cachedSlot] = b[last]
	b[last] = nil
	s.buckets[i] = b[:last]
	s.live--
	it.index = -1
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
	s.width = s.calendarWidth(items)
	s.mask = size - 1
	if size == len(s.buckets) {
		for i, b := range s.buckets {
			s.buckets[i] = b[:0]
		}
	} else {
		s.buckets = s.newBuckets(size, items)
	}
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
	s.windowSteps, s.windowMark = 0, s.examined
}

// newBuckets builds a bucket array of the given size over one backing
// slab: each bucket gets room for the items resize is about to put in it
// plus calendarSlack more. Left nil, every bucket would allocate its first
// few slices as the scan sweeps the year and schedules land in it — one
// small allocation per bucket per growth step, after every size change.
func (s *CalendarScheduler) newBuckets(size int, items []*item) [][]*item {
	if cap(s.counts) < size {
		s.counts = make([]int, size)
	}
	counts := s.counts[:size]
	clear(counts)
	for _, it := range items {
		counts[s.bucketOf(it.at)]++
	}
	slab := make([]*item, len(items)+calendarSlack*size)
	buckets := make([][]*item, size)
	off := 0
	for i, c := range counts {
		end := off + c + calendarSlack
		buckets[i] = slab[off:off:end]
		off = end
	}
	return buckets
}

// calendarWidth sets the bucket width from the front of the queue, as
// Brown does: about three times the mean separation of the
// calendarSampleCap earliest live timestamps, so the days the scan walks
// next hold a handful of events each. Only the head matters because the
// scan only ever walks the head; later events hash evenly across the
// whole year and add about one entry per bucket at the bucket counts
// resize keeps (between half and twice the live count). The earlier rule
// took the interquartile spread of all live events, which suits uniformly
// spaced traffic but not a vantage's: its events crowd the next few
// seconds (query hits, self-pongs, probe replies) while session ends and
// query streams trail off days ahead, so the middle of the distribution
// was hours wide, every scanned day held some thirty entries, and the
// calendar ran no faster than the heap inside the simulation loop. The
// selection is a bounded max-heap in the scheduler's own scratch —
// O(live), no sort of the live set, no allocation — and deterministic: it
// depends only on the timestamps.
func (s *CalendarScheduler) calendarWidth(items []*item) Time {
	h := s.head[:0]
	for _, it := range items {
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
		return calendarDefaultWidth
	}
	first := h[0]
	for _, at := range h[1:] {
		first = min(first, at)
	}
	span := h[0] - first
	if span <= 0 {
		return calendarDefaultWidth
	}
	return max(3*span/Time(len(h)-1), 1)
}
