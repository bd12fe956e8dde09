package simtime

import (
	"math"
	"math/bits"
)

// CalendarScheduler is the Scheduler that queues its pending items in a
// calendar queue (R. Brown, "Calendar Queues: A Fast O(1) Priority Queue
// Implementation for the Simulation Event Set Problem", CACM 1988), the
// one the engine's nodes run: pending events hash by timestamp into an
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
type CalendarScheduler struct{ core }

// calendar is CalendarScheduler's queue.
type calendar struct {
	items *Pool[item] // the scheduler's items, which entries name by id

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
	// Schedule preempts it, when it leaves the queue, and at a resize;
	// its slot is its index, which every removal keeps current.
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
// item's id in the scheduler's Pool.
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
	s := &CalendarScheduler{}
	s.cal = &calendar{
		items:   &s.items,
		buckets: make([][]entry, calendarMinBuckets),
		mask:    calendarMinBuckets - 1,
		shift:   calendarDefaultShift,
	}
	return s
}

// bucketOf maps a timestamp to its bucket index. Queued timestamps are
// never negative (they are ≥ now ≥ 0).
func (c *calendar) bucketOf(at Time) int {
	return int(uint64(at)>>c.shift) & c.mask
}

// dayOf returns the start of the day holding a timestamp.
func (c *calendar) dayOf(at Time) Time { return at &^ (1<<c.shift - 1) }

// push queues a stamped item; now is the scheduler's clock.
func (c *calendar) push(it *item, now Time) {
	if c.live+1 > 2*len(c.buckets) {
		c.resize(len(c.buckets)*2, now)
	}
	i := c.bucketOf(it.at)
	it.index = int32(len(c.buckets[i]))
	c.buckets[i] = append(c.buckets[i], entry{at: it.at, id: it.id})
	c.live++
	// An item can land in a day the scan already walked past (the scan
	// runs ahead of the clock across empty stretches); pull the scan
	// position back so the next findMin sees it.
	if day := c.dayOf(it.at); day < c.winStart {
		c.winStart = day
	}
	// The new item preempts the cached minimum when it fires first —
	// which an explicit key can achieve even at an equal timestamp, so
	// the comparison must be the full fire order, not just the instant.
	if c.cached != nil && it.before(c.cached) {
		c.cached = nil
	}
}

// remove swap-deletes a queued item's entry from its bucket, moving the
// bucket's last entry into the freed slot and updating that entry's
// index, and drops the item from the cache.
func (c *calendar) remove(it *item) {
	i := c.bucketOf(it.at)
	b := c.buckets[i]
	last := len(b) - 1
	if j := it.index; int(j) != last {
		b[j] = b[last]
		c.items.At(b[j].id).index = j
	}
	c.buckets[i] = c.buckets[i][:last] // a length-only store: no write barrier
	c.live--
	if c.cached == it {
		c.cached = nil
	}
}

// findMin locates and caches the earliest (at, key, seq) queued item,
// advancing the day scan as far as needed. It returns nil when none
// remain.
func (c *calendar) findMin() *item {
	if c.cached != nil || c.live == 0 {
		return c.cached
	}
	width := Time(1) << c.shift
	for range c.buckets {
		// Only items of the current year's window belong to this day;
		// later years wait for their wrap-around.
		if best := c.scanDay(c.bucketOf(c.winStart), c.winStart, uint64(width)); best != nil {
			c.cached = best
			return best
		}
		c.winStart += width
	}
	// A whole year of days is empty: jump straight to the global minimum's
	// day instead of spinning across the gap.
	var best *item
	for i := range c.buckets {
		if it := c.scanDay(i, 0, math.MaxUint64); it != nil && (best == nil || it.before(best)) {
			best = it
		}
	}
	c.winStart = c.dayOf(best.at)
	c.cached = best
	return best
}

// scanDay returns the earliest item in bucket i that lies in [day,
// day+span), or nil. It compares the entries' offsets from day as
// unsigned numbers, so an entry outside the day, before or after it,
// reads as at least span and one comparison both filters and orders;
// it reads items only to order an exact-instant tie.
func (c *calendar) scanDay(i int, day Time, span uint64) *item {
	b := c.buckets[i]
	c.examined += uint64(len(b))
	best, bestOff := -1, span
	for j, e := range b {
		if off := uint64(e.at - day); off < bestOff {
			best, bestOff = j, off
		} else if off == bestOff && best >= 0 && c.items.At(e.id).before(c.items.At(b[best].id)) {
			best = j
		}
	}
	if best < 0 {
		return nil
	}
	return c.items.At(b[best].id)
}

// pop dequeues the earliest item, or returns nil when none remain; now is
// the scheduler's clock, not yet advanced to the item.
func (c *calendar) pop(now Time) *item {
	it := c.findMin()
	if it == nil {
		return nil
	}
	c.remove(it)
	// The width was measured at the last resize; when the head's density
	// has drifted since (a fill that front-loaded one kind of event, a
	// phase change in the traffic), re-measure it. Judged once per window
	// of one Step per bucket, so the rebuild costs O(1) amortized.
	c.windowSteps++
	if c.windowSteps >= len(c.buckets) {
		if c.examined-c.windowMark > calendarMaxScan*uint64(c.windowSteps) {
			c.resize(len(c.buckets), now)
		} else {
			c.windowSteps, c.windowMark = 0, c.examined
		}
	}
	if c.live < len(c.buckets)/2 && len(c.buckets) > calendarMinBuckets {
		c.resize(len(c.buckets)/2, now)
	}
	return it
}

// resize rebuilds the bucket array at the given size (a power of two),
// recomputing the bucket width from the queued instants; now is the
// scheduler's clock. Also used at constant size to re-measure the width,
// where every bucket keeps its backing array; a size change hands the
// arrays on (newBuckets).
func (c *calendar) resize(size int, now Time) {
	if size < calendarMinBuckets {
		size = calendarMinBuckets
	}
	entries := c.gather[:0]
	for _, b := range c.buckets {
		entries = append(entries, b...)
	}
	c.shift = c.calendarShift(entries)
	c.mask = size - 1
	if size == len(c.buckets) {
		for i, b := range c.buckets {
			c.buckets[i] = b[:0]
		}
	} else {
		c.buckets = c.newBuckets(size, entries)
	}
	for _, e := range entries {
		i := c.bucketOf(e.at)
		c.items.At(e.id).index = int32(len(c.buckets[i]))
		c.buckets[i] = append(c.buckets[i], e)
	}
	c.gather = entries[:0]
	// All live timestamps are ≥ now, so scanning from now's day is always
	// safe after a rebuild.
	c.winStart = c.dayOf(now)
	c.cached = nil
	c.windowSteps, c.windowMark = 0, c.examined
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
func (c *calendar) newBuckets(size int, entries []entry) [][]entry {
	if cap(c.counts) < size {
		c.counts = make([]int, size)
	}
	counts := c.counts[:size]
	clear(counts)
	for _, e := range entries {
		counts[c.bucketOf(e.at)]++
	}
	buckets := make([][]entry, size)
	for j, b := range c.buckets {
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
func (c *calendar) calendarShift(entries []entry) uint {
	h := c.head[:0]
	for _, it := range entries {
		switch {
		case len(h) < len(c.head):
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
