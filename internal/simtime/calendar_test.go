package simtime

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"
)

// popTrace drives a scheduler through a scripted operation sequence and
// records the exact pop order as (at, tag) pairs. The script is replayed
// identically on every implementation, so equal traces mean equal order —
// ties, cancellations and reentrant scheduling included.
type popRecord struct {
	at  Time
	tag int
}

// opScript is a deterministic random operation mix: schedules (with
// deliberately colliding timestamps), cancellations of random handles,
// events that schedule more events when they fire, far-future outliers
// that force the calendar across empty years, and cancellations through
// stale handles — ones whose event already fired or was cancelled, used
// after later Schedule calls had the chance to recycle their item.
type opScript struct {
	seed   uint64
	n      int
	spanNS int64
	// tieEvery forces every k-th timestamp onto a small grid so exact
	// collisions are common, not astronomically rare.
	tieEvery int
	// farEvery schedules every k-th event years past the rest.
	farEvery int
	// cancelFrac cancels roughly this fraction of scheduled events.
	cancelFrac float64
	// chainFrac makes roughly this fraction of events schedule a child
	// when they fire (reentrant scheduling, like the probe machinery).
	chainFrac float64
	// staleFrac makes roughly this fraction of firing events cancel (and
	// query) a handle known to be spent.
	staleFrac float64
}

func (sc opScript) run(t *testing.T, s Scheduler) []popRecord {
	rng := rand.New(rand.NewPCG(sc.seed, 0xca1e4da5))
	var trace []popRecord
	var handles []Handle
	// spent lists the indices of handles whose event has fired or been
	// cancelled by the script; live[i] says handle i is not among them.
	var spent []int
	var live []bool
	cancel := func(i int) {
		s.Cancel(handles[i])
		if live[i] {
			live[i] = false
			spent = append(spent, i)
		}
	}
	tag := 0
	schedule := func(at Time) {
		myTag := tag
		tag++
		idx := len(handles)
		var ev Event
		ev = EventFunc(func(now Time) {
			trace = append(trace, popRecord{at: now, tag: myTag})
			live[idx] = false
			spent = append(spent, idx)
			if rng.Float64() < sc.chainFrac {
				childTag := tag
				tag++
				child := now + Time(rng.Int64N(sc.spanNS/4+1))
				s.Schedule(child, EventFunc(func(n2 Time) {
					trace = append(trace, popRecord{at: n2, tag: childTag})
				}))
			}
			if len(handles) > 0 && rng.Float64() < sc.cancelFrac {
				cancel(rng.IntN(len(handles)))
			}
			if rng.Float64() < sc.staleFrac {
				h := handles[spent[rng.IntN(len(spent))]]
				pending := s.Pending()
				if !h.Cancelled() {
					t.Fatalf("seed %d: spent handle reads as pending", sc.seed)
				}
				s.Cancel(h)
				if s.Pending() != pending {
					t.Fatalf("seed %d: cancelling a spent handle removed an event", sc.seed)
				}
			}
		})
		handles = append(handles, s.Schedule(at, ev))
		live = append(live, true)
	}
	for i := 0; i < sc.n; i++ {
		var at Time
		switch {
		case sc.farEvery > 0 && i%sc.farEvery == sc.farEvery-1:
			// Far past everything else: exercises the direct-search jump.
			// The factor keeps the largest product well inside int64.
			at = Time(sc.spanNS) * 50 * Time(1+rng.Int64N(4))
		case sc.tieEvery > 0 && i%sc.tieEvery == 0:
			at = Time(rng.Int64N(8)) * Time(sc.spanNS/8+1)
		default:
			at = Time(rng.Int64N(sc.spanNS))
		}
		schedule(at)
		if rng.Float64() < sc.cancelFrac/2 {
			cancel(rng.IntN(len(handles)))
		}
	}
	s.Run()
	for i, h := range handles {
		if !h.Cancelled() {
			t.Fatalf("seed %d: handle %d still pending after Run", sc.seed, i)
		}
	}
	return trace
}

// TestCalendarHeapEquivalence is the order-equivalence pin: across many
// scripted workloads the calendar queue must pop the exact sequence the
// heap pops — same timestamps, same FIFO tie resolution, same surviving
// set after cancellations.
func TestCalendarHeapEquivalence(t *testing.T) {
	scripts := []opScript{
		{seed: 1, n: 500, spanNS: int64(time.Hour), tieEvery: 3, cancelFrac: 0.2, chainFrac: 0.3, staleFrac: 0.3},
		{seed: 2, n: 2000, spanNS: int64(time.Second), tieEvery: 2, cancelFrac: 0.4, chainFrac: 0.1, staleFrac: 0.5},
		{seed: 3, n: 1000, spanNS: int64(40 * 24 * time.Hour), farEvery: 7, cancelFrac: 0.1, chainFrac: 0.2, staleFrac: 0.2},
		{seed: 4, n: 50, spanNS: 10, tieEvery: 1, cancelFrac: 0.3, chainFrac: 0.5, staleFrac: 0.5}, // almost everything ties
		{seed: 5, n: 3000, spanNS: int64(time.Millisecond), cancelFrac: 0.6, chainFrac: 0.05, staleFrac: 0.1},
		{seed: 6, n: 200, spanNS: int64(365 * 24 * time.Hour), farEvery: 2, chainFrac: 0.4}, // sparse, far-future heavy
		{seed: 7, n: 1500, spanNS: int64(time.Minute), chainFrac: 0.9, staleFrac: 1},        // the probe re-arm pattern: every fire schedules, then cancels a spent handle
	}
	for _, sc := range scripts {
		heapTrace := sc.run(t, NewScheduler())
		calTrace := sc.run(t, NewCalendarScheduler())
		if len(heapTrace) != len(calTrace) {
			t.Fatalf("seed %d: heap fired %d events, calendar %d", sc.seed, len(heapTrace), len(calTrace))
		}
		for i := range heapTrace {
			if heapTrace[i] != calTrace[i] {
				t.Fatalf("seed %d: pop %d differs: heap %v calendar %v", sc.seed, i, heapTrace[i], calTrace[i])
			}
		}
		if len(heapTrace) == 0 {
			t.Fatalf("seed %d: empty trace proves nothing", sc.seed)
		}
	}
}

// TestCalendarStepEquivalence drives both implementations one Step at a
// time, checking clock, fired count and pending count after every pop —
// the finer-grained version of the whole-trace comparison.
func TestCalendarStepEquivalence(t *testing.T) {
	mk := func(s Scheduler) []Handle {
		rng := rand.New(rand.NewPCG(99, 42))
		hs := make([]Handle, 0, 400)
		for i := 0; i < 400; i++ {
			at := Time(rng.Int64N(int64(time.Minute)))
			if i%5 == 0 {
				at = Time(rng.Int64N(4)) * 10 * Time(time.Second) // ties
			}
			hs = append(hs, s.Schedule(at, EventFunc(func(Time) {})))
		}
		for i := 0; i < len(hs); i += 3 {
			s.Cancel(hs[i])
		}
		return hs
	}
	h, c := NewScheduler(), NewCalendarScheduler()
	mk(h)
	mk(c)
	for {
		if h.Pending() != c.Pending() {
			t.Fatalf("pending: heap %d calendar %d", h.Pending(), c.Pending())
		}
		hOK, cOK := h.Step(), c.Step()
		if hOK != cOK {
			t.Fatalf("step: heap %v calendar %v", hOK, cOK)
		}
		if !hOK {
			break
		}
		if h.Now() != c.Now() {
			t.Fatalf("clock: heap %v calendar %v", h.Now(), c.Now())
		}
		if h.Fired() != c.Fired() {
			t.Fatalf("fired: heap %d calendar %d", h.Fired(), c.Fired())
		}
	}
}

// TestCalendarFarFutureGap pins the direct-search escape: one near event
// and one forty simulated years out must both fire, in order, without the
// scan spinning bucket by bucket across the gap (the test would time out
// if it did — the gap is ~10^9 default bucket widths).
func TestCalendarFarFutureGap(t *testing.T) {
	s := NewCalendarScheduler()
	var order []int
	s.Schedule(time.Second, EventFunc(func(Time) { order = append(order, 1) }))
	s.Schedule(40*365*24*time.Hour, EventFunc(func(Time) { order = append(order, 2) }))
	s.Schedule(80*365*24*time.Hour, EventFunc(func(Time) { order = append(order, 3) }))
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 80*365*24*time.Hour {
		t.Fatalf("clock = %v", s.Now())
	}
}

// TestCalendarScheduleBehindScan pins the winStart pull-back: after the
// scan has jumped ahead to reach a far-future event, an event scheduled at
// the (much earlier) current time must still fire before later ones.
func TestCalendarScheduleBehindScan(t *testing.T) {
	s := NewCalendarScheduler()
	var order []int
	s.Schedule(time.Second, EventFunc(func(now Time) {
		order = append(order, 1)
		// The next pending event is a year out; the scan will jump to it.
		// This event, scheduled "now", must preempt it.
		s.Schedule(now+time.Second, EventFunc(func(Time) { order = append(order, 2) }))
	}))
	s.Schedule(365*24*time.Hour, EventFunc(func(Time) { order = append(order, 3) }))
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

// TestCalendarCancelCompaction checks that a cancellation-heavy workload
// (the probe re-arm pattern: schedule, cancel, schedule, cancel …) does
// not accumulate dead items without bound.
func TestCalendarCancelCompaction(t *testing.T) {
	s := NewCalendarScheduler()
	var h Handle
	for i := 0; i < 100000; i++ {
		s.Cancel(h)
		h = s.Schedule(Time(i)*time.Millisecond+15*time.Second, EventFunc(func(Time) {}))
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", s.Pending())
	}
	if s.dead > 10*calendarMinBuckets {
		t.Fatalf("dead items not compacted: %d linger", s.dead)
	}
	s.Run()
	if s.Fired() != 1 {
		t.Fatalf("fired = %d, want 1", s.Fired())
	}
}

// TestCalendarResizeKeepsOrder grows the queue far past the initial bucket
// count and shrinks it back down, checking order across the resizes.
func TestCalendarResizeKeepsOrder(t *testing.T) {
	s := NewCalendarScheduler()
	rng := rand.New(rand.NewPCG(7, 7))
	n := 20000
	for i := 0; i < n; i++ {
		s.Schedule(Time(rng.Int64N(int64(time.Hour))), EventFunc(func(Time) {}))
	}
	last := Time(-1)
	fired := 0
	for s.Pending() > 0 {
		before := s.Now()
		if !s.Step() {
			break
		}
		fired++
		if s.Now() < before || s.Now() < last {
			t.Fatalf("clock went backwards: %v after %v", s.Now(), last)
		}
		last = s.Now()
	}
	if fired != n {
		t.Fatalf("fired %d of %d", fired, n)
	}
}

// TestCalendarScanBoundedOnClusteredTraffic pins the bucket width on the
// traffic a measurement vantage actually queues: most of ~4 k live events
// lie within the next ten seconds (query hits 0.5–8.5 s out, self-pongs,
// a probe timer per connection cancelled and re-armed on every delivered
// message) while session ends and query streams trail off up to days
// ahead. A width taken from the spread of the whole live set is hours
// wide on this mix and piles the near-term events into the day being
// scanned; the head-sampled width keeps each Step's scan to a handful of
// bucket entries.
func TestCalendarScanBoundedOnClusteredTraffic(t *testing.T) {
	s := NewCalendarScheduler()
	rng := rand.New(rand.NewPCG(2004, 0xc1a5))
	const (
		conns = 200  // connections, each with a message chain and a probe timer
		tail  = 3000 // session ends and query streams, out to three days
	)
	near := func() Time { return Time(300+rng.Int64N(8200)) * time.Millisecond }
	var tailEvent, hit Event
	tailEvent = EventFunc(func(now Time) {
		s.Schedule(now+Time(rng.Int64N(int64(3*Day))), tailEvent)
	})
	hit = EventFunc(func(Time) {})
	probes := make([]Handle, conns)
	msgs := make([]Event, conns)
	for c := range msgs {
		msgs[c] = EventFunc(func(now Time) {
			// A delivered message re-arms the connection's idle probe …
			s.Cancel(probes[c])
			probes[c] = s.Schedule(now+15*time.Second, hit)
			// … may draw a burst of hits …
			if rng.IntN(2) == 0 {
				for range 3 {
					s.Schedule(now+near(), hit)
				}
			}
			// … and the next message follows within seconds.
			s.Schedule(now+near(), msgs[c])
		})
	}
	// Interleave the fill so every resize samples the mix, not one part.
	const every = tail / conns
	for i := 0; i < tail; i++ {
		s.Schedule(Time(rng.Int64N(int64(3*Day))), tailEvent)
		if i%every == 0 {
			c := i / every
			probes[c] = s.Schedule(15*time.Second, hit)
			s.Schedule(near(), msgs[c])
		}
	}
	for range 50000 { // warm up past the fill's resizes
		s.Step()
	}
	if p := s.Pending(); p < 3500 || p > 4500 {
		t.Fatalf("pending = %d, want about 4 k", p)
	}
	examined, fired := s.examined, s.Fired()
	for range 200000 {
		s.Step()
	}
	perStep := float64(s.examined-examined) / float64(s.Fired()-fired)
	t.Logf("%.2f bucket entries examined per Step at %d pending, %d buckets", perStep, s.Pending(), len(s.buckets))
	if perStep > 8 {
		t.Errorf("%.2f bucket entries examined per Step, want ≤ 8", perStep)
	}
}

// TestCalendarResizeReusesBuckets pins what the calendar allocates on
// clustered traffic whose pending count rises and falls through several
// size changes, as a vantage's does over a run: most events land within
// the next ten seconds, the rest up to three days ahead. Once two cycles
// have grown the item free list and the bucket arrays, an identical third
// cycle allocates only each size change's bucket array and fresh slab
// and the few buckets that outgrow their arrays (about 26 allocations
// over 22,000 schedules). With fresh arrays at every size change, each
// bucket that fills past its slack regrows them again: 1,077 allocations.
func TestCalendarResizeReusesBuckets(t *testing.T) {
	s := NewCalendarScheduler()
	ev := EventFunc(func(Time) {})
	schedules, resizes := 0, 0
	cycle := func() {
		rng := rand.New(rand.NewPCG(2004, 44))
		at := func() Time {
			if rng.IntN(4) == 0 {
				return s.Now() + Time(rng.Int64N(int64(3*Day)))
			}
			return s.Now() + Time(300+rng.Int64N(8200))*time.Millisecond
		}
		size := len(s.buckets)
		step := func() {
			s.Step()
			if len(s.buckets) != size {
				size = len(s.buckets)
				resizes++
			}
		}
		// Rise to about 12 k pending, three schedules per Step …
		for i := range 18000 {
			s.Schedule(at(), ev)
			schedules++
			if i%3 == 0 {
				step()
			}
		}
		// … and fall back, one schedule per four Steps.
		for i := 0; s.Pending() > 200; i++ {
			step()
			if i%4 == 0 {
				s.Schedule(at(), ev)
				schedules++
			}
		}
	}
	// The first cycle grows the item free list and the bucket arrays from
	// an empty calendar; the second starts where every later one does.
	cycle()
	cycle()
	schedules, resizes = 0, 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cycle()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	perK := 1000 * float64(allocs) / float64(schedules)
	t.Logf("third cycle: %d allocations over %d schedules (%.2f per 1,000), %d size changes", allocs, schedules, perK, resizes)
	if resizes < 8 {
		t.Fatalf("only %d size changes in a cycle; the test no longer exercises them", resizes)
	}
	if perK > 2 {
		t.Errorf("%.2f allocations per 1,000 schedules, budget 2", perK)
	}
}

// FuzzCalendarHeapEquivalence feeds arbitrary byte strings as operation
// scripts to both implementations: each byte pair becomes a schedule (with
// a coarse timestamp grid, so ties are dense), a cancel, a single Step, or
// a cancel through a handle that is already spent — its event fired or
// was cancelled earlier in the script, and later schedules may have
// recycled its item. The two pop traces must match exactly, and a spent
// handle must read as cancelled and cancel nothing on either.
func FuzzCalendarHeapEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 255, 254, 7, 7, 7, 9})
	f.Add([]byte{10, 0, 10, 0, 10, 0, 200, 200})
	f.Add([]byte{0, 1, 4, 0, 0, 2, 5, 0, 0, 3, 3, 0, 0, 4, 5, 0, 4, 0, 5, 1})
	f.Add([]byte{})
	// Clustered: a run of near-term schedules, then far-future ones, then
	// steps and cancels — the vantage's shape, dense near now with a tail.
	f.Add([]byte{0, 0, 1, 1, 0, 2, 1, 3, 0, 1, 1, 2, 0, 3, 2, 40, 2, 90, 2, 200, 0, 1, 1, 0, 4, 0, 3, 1, 4, 0, 0, 2, 5, 3, 4, 0, 3, 7, 4, 0, 4, 0})
	run := func(t *testing.T, data []byte, s Scheduler) []popRecord {
		var trace []popRecord
		var handles []Handle
		var spent []bool // by handle index: fired, or cancelled by the script
		schedule := func(at Time, tag int) {
			idx := len(handles)
			handles = append(handles, s.Schedule(at, EventFunc(func(now Time) {
				trace = append(trace, popRecord{at: now, tag: tag})
				spent[idx] = true
			})))
			spent = append(spent, false)
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 6 {
			case 0, 1: // schedule on a coarse grid: ties are the point
				schedule(s.Now()+Time(arg%32)*Time(time.Second), i)
			case 2: // far-future schedule (bounded to stay inside int64)
				schedule(Time(arg)*1000*Time(time.Hour), i)
			case 3: // cancel an arbitrary earlier handle
				if len(handles) > 0 {
					j := int(arg) % len(handles)
					s.Cancel(handles[j])
					spent[j] = true
				}
			case 4: // fire one event, so later schedules reuse its item
				s.Step()
			case 5: // cancel through the first spent handle at or after arg
				for k := range handles {
					j := (int(arg) + k) % len(handles)
					if !spent[j] {
						continue
					}
					pending := s.Pending()
					if !handles[j].Cancelled() {
						t.Fatalf("op %d: spent handle %d reads as pending", i, j)
					}
					s.Cancel(handles[j])
					if s.Pending() != pending {
						t.Fatalf("op %d: cancelling spent handle %d removed an event", i, j)
					}
					break
				}
			}
		}
		s.Run()
		return trace
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ht := run(t, data, NewScheduler())
		ct := run(t, data, NewCalendarScheduler())
		if len(ht) != len(ct) {
			t.Fatalf("heap fired %d, calendar %d", len(ht), len(ct))
		}
		for i := range ht {
			if ht[i] != ct[i] {
				t.Fatalf("pop %d: heap %v calendar %v", i, ht[i], ct[i])
			}
		}
	})
}
