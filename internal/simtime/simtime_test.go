package simtime

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func TestEpoch(t *testing.T) {
	if Epoch.Year() != 2004 || Epoch.Month() != time.March || Epoch.Day() != 15 {
		t.Fatalf("epoch = %v, want 2004-03-15", Epoch)
	}
}

func TestHourBins(t *testing.T) {
	cases := []struct {
		t        Time
		hour     int
		halfHour int
		day      int
	}{
		{0, 0, 0, 0},
		{59 * time.Minute, 0, 1, 0},
		{time.Hour, 1, 2, 0},
		{23*time.Hour + 59*time.Minute, 23, 47, 0},
		{Day, 0, 0, 1},
		{40*Day - time.Second, 23, 47, 39},
		{At(3, 13, 30, 0), 13, 27, 3},
	}
	for _, c := range cases {
		if got := HourOfDay(c.t); got != c.hour {
			t.Errorf("HourOfDay(%v) = %d, want %d", c.t, got, c.hour)
		}
		if got := HalfHourOfDay(c.t); got != c.halfHour {
			t.Errorf("HalfHourOfDay(%v) = %d, want %d", c.t, got, c.halfHour)
		}
		if got := DayIndex(c.t); got != c.day {
			t.Errorf("DayIndex(%v) = %d, want %d", c.t, got, c.day)
		}
	}
}

func TestAt(t *testing.T) {
	got := At(2, 3, 4, 5)
	want := 2*Day + 3*time.Hour + 4*time.Minute + 5*time.Second
	if got != want {
		t.Fatalf("At = %v, want %v", got, want)
	}
}

func TestAbsolute(t *testing.T) {
	a := Absolute(At(1, 12, 0, 0))
	if a.Day() != 16 || a.Hour() != 12 {
		t.Fatalf("Absolute = %v, want March 16 12:00", a)
	}
}

// eachScheduler runs a subtest against every Scheduler implementation; the
// API contract is one contract, so every behavioral test runs on both.
func eachScheduler(t *testing.T, f func(t *testing.T, s Scheduler)) {
	t.Helper()
	t.Run("heap", func(t *testing.T) { f(t, NewScheduler()) })
	t.Run("calendar", func(t *testing.T) { f(t, NewCalendarScheduler()) })
}

func TestSchedulerOrdering(t *testing.T) {
	eachScheduler(t, func(t *testing.T, s Scheduler) {
		var order []int
		s.Schedule(3*time.Second, EventFunc(func(Time) { order = append(order, 3) }))
		s.Schedule(1*time.Second, EventFunc(func(Time) { order = append(order, 1) }))
		s.Schedule(2*time.Second, EventFunc(func(Time) { order = append(order, 2) }))
		s.Run()
		if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
			t.Fatalf("fire order = %v", order)
		}
		if s.Now() != 3*time.Second {
			t.Fatalf("clock = %v, want 3s", s.Now())
		}
		if s.Fired() != 3 {
			t.Fatalf("fired = %d, want 3", s.Fired())
		}
	})
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	eachScheduler(t, func(t *testing.T, s Scheduler) {
		var order []int
		for i := 0; i < 10; i++ {
			i := i
			s.Schedule(time.Second, EventFunc(func(Time) { order = append(order, i) }))
		}
		s.Run()
		for i, v := range order {
			if v != i {
				t.Fatalf("equal-timestamp events fired out of order: %v", order)
			}
		}
	})
}

func TestSchedulerCancel(t *testing.T) {
	eachScheduler(t, func(t *testing.T, s Scheduler) {
		fired := false
		h := s.Schedule(time.Second, EventFunc(func(Time) { fired = true }))
		if h.Cancelled() {
			t.Fatal("handle cancelled before firing")
		}
		s.Cancel(h)
		if !h.Cancelled() {
			t.Fatal("handle should report cancelled")
		}
		if s.Pending() != 0 {
			t.Fatalf("pending = %d after cancel, want 0", s.Pending())
		}
		s.Run()
		if fired {
			t.Fatal("cancelled event fired")
		}
		s.Cancel(h) // double cancel is a no-op
	})
}

func TestSchedulerCancelMiddle(t *testing.T) {
	eachScheduler(t, func(t *testing.T, s Scheduler) {
		var order []int
		s.Schedule(1*time.Second, EventFunc(func(Time) { order = append(order, 1) }))
		h := s.Schedule(2*time.Second, EventFunc(func(Time) { order = append(order, 2) }))
		s.Schedule(3*time.Second, EventFunc(func(Time) { order = append(order, 3) }))
		s.Cancel(h)
		s.Run()
		if len(order) != 2 || order[0] != 1 || order[1] != 3 {
			t.Fatalf("order = %v, want [1 3]", order)
		}
	})
}

func TestScheduleInPastFiresNow(t *testing.T) {
	eachScheduler(t, func(t *testing.T, s Scheduler) {
		s.Schedule(10*time.Second, EventFunc(func(now Time) {
			s.Schedule(5*time.Second, EventFunc(func(now2 Time) {
				if now2 != 10*time.Second {
					t.Errorf("past event fired at %v, want clamped to 10s", now2)
				}
			}))
		}))
		s.Run()
		if s.Now() != 10*time.Second {
			t.Fatalf("clock = %v", s.Now())
		}
	})
}

func TestRunUntil(t *testing.T) {
	eachScheduler(t, func(t *testing.T, s Scheduler) {
		var fired []Time
		for i := 1; i <= 5; i++ {
			at := Time(i) * time.Second
			s.Schedule(at, EventFunc(func(now Time) { fired = append(fired, now) }))
		}
		s.RunUntil(3 * time.Second)
		if len(fired) != 3 {
			t.Fatalf("fired %d events, want 3", len(fired))
		}
		if s.Now() != 3*time.Second {
			t.Fatalf("clock = %v, want 3s", s.Now())
		}
		if s.Pending() != 2 {
			t.Fatalf("pending = %d, want 2", s.Pending())
		}
		// Horizon beyond all events advances the clock to the horizon.
		s.RunUntil(time.Minute)
		if s.Now() != time.Minute {
			t.Fatalf("clock = %v, want 1m", s.Now())
		}
	})
}

func TestEventsScheduledDuringRun(t *testing.T) {
	eachScheduler(t, func(t *testing.T, s Scheduler) {
		count := 0
		var chain func(now Time)
		chain = func(now Time) {
			count++
			if count < 100 {
				s.After(time.Second, EventFunc(chain))
			}
		}
		s.Schedule(0, EventFunc(chain))
		s.Run()
		if count != 100 {
			t.Fatalf("chain fired %d times, want 100", count)
		}
		if s.Now() != 99*time.Second {
			t.Fatalf("clock = %v, want 99s", s.Now())
		}
	})
}

// Property: for any set of non-negative delays, events fire in sorted order
// on both implementations.
func TestPropertyFireOrderSorted(t *testing.T) {
	eachSched := []func() Scheduler{
		func() Scheduler { return NewScheduler() },
		func() Scheduler { return NewCalendarScheduler() },
	}
	for _, mk := range eachSched {
		f := func(delays []uint16) bool {
			s := mk()
			var fired []Time
			for _, d := range delays {
				s.Schedule(Time(d)*time.Millisecond, EventFunc(func(now Time) {
					fired = append(fired, now)
				}))
			}
			s.Run()
			for i := 1; i < len(fired); i++ {
				if fired[i] < fired[i-1] {
					return false
				}
			}
			return len(fired) == len(delays)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	}
}

// Property: hour and half-hour bins agree (halfHour/2 == hour) for any time.
func TestPropertyBinsConsistent(t *testing.T) {
	f := func(secs uint32) bool {
		tt := Time(secs) * time.Second
		return HalfHourOfDay(tt)/2 == HourOfDay(tt) && DayIndex(tt) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// bothSchedulers runs a subtest on each implementation.
func bothSchedulers(t *testing.T, f func(t *testing.T, s Scheduler)) {
	t.Run("heap", func(t *testing.T) { f(t, NewScheduler()) })
	t.Run("calendar", func(t *testing.T) { f(t, NewCalendarScheduler()) })
}

// TestStaleHandleCannotCancelRecycledItem pins the generation check: a
// handle whose event fired, or was cancelled, must stay inert after the
// scheduler has given its item to a later event. Without the check the
// stale Cancel below removes that later event.
func TestStaleHandleCannotCancelRecycledItem(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, s Scheduler) {
		fired := map[string]bool{}
		ev := func(name string) Event { return EventFunc(func(Time) { fired[name] = true }) }

		// A fires and X is cancelled; B, C, D and E are scheduled afterwards
		// and take over their items (the calendar recycles X only when the
		// Step that fires B scans past it, hence the second round).
		a := s.Schedule(time.Second, ev("a"))
		x := s.Schedule(2*time.Second, ev("x"))
		s.Cancel(x)
		s.Step()
		b := s.Schedule(2*time.Second+1, ev("b"))
		c := s.Schedule(9*time.Second, ev("c"))
		s.Step()
		d := s.Schedule(10*time.Second, ev("d"))
		e := s.Schedule(11*time.Second, ev("e"))
		if !fired["a"] || !fired["b"] || fired["x"] {
			t.Fatalf("setup fired %v, want a and b only", fired)
		}
		reused := func(stale Handle, later ...Handle) bool {
			for _, h := range later {
				if h.it == stale.it {
					return true
				}
			}
			return false
		}
		if !reused(a, b, c, d, e) || !reused(x, b, c, d, e) {
			t.Fatal("no item was recycled into a later event; the test proves nothing")
		}

		for _, stale := range []Handle{a, x, b} {
			if !stale.Cancelled() {
				t.Error("spent handle reads as pending")
			}
			s.Cancel(stale)
		}
		for name, h := range map[string]Handle{"c": c, "d": d, "e": e} {
			if h.Cancelled() {
				t.Errorf("stale Cancel hit live event %s", name)
			}
		}
		if s.Pending() != 3 {
			t.Fatalf("pending = %d, want 3", s.Pending())
		}
		s.Run()
		if !fired["c"] || !fired["d"] || !fired["e"] || fired["x"] {
			t.Fatalf("fired %v, want c, d, e and not x", fired)
		}
	})
}

// TestHoldAllocatesNothing pins the free list: at a steady 1 k pending
// events, pop-one-schedule-one allocates nothing once the scheduler has
// seen its working set of items (and, for the calendar, bucket capacity).
func TestHoldAllocatesNothing(t *testing.T) {
	bothSchedulers(t, func(t *testing.T, s Scheduler) {
		rng := rand.New(rand.NewPCG(1, 0xa110c))
		mean := float64(30 * time.Second)
		hold := func() {
			if !s.Step() {
				t.Fatal("queue drained")
			}
			s.Schedule(s.Now()+Time(rng.ExpFloat64()*mean), nopEvent{})
		}
		for i := 0; i < 1000; i++ {
			s.Schedule(Time(rng.ExpFloat64()*mean), nopEvent{})
		}
		for i := 0; i < 20000; i++ {
			hold()
		}
		if allocs := testing.AllocsPerRun(5000, hold); allocs != 0 {
			t.Errorf("hold at 1k pending: %v allocs/op, want 0", allocs)
		}
	})
}
