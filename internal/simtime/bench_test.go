package simtime

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"
)

// The scheduler benchmarks compare the binary heap against the calendar
// queue across the pending-event counts the simulation actually sees:
// 10^4 (a small fleet node) up to 10^7 (the full-volume run's order of
// magnitude). Two access patterns matter:
//
//   - Hold (classic calendar-queue benchmark): pop the earliest event and
//     schedule a replacement an exponential increment later, at steady
//     queue size n. This is the simulator's steady state.
//   - Churn: schedule then cancel, the probe re-arm pattern.
//
// Both patterns space events uniformly, which a vantage's traffic is not;
// internal/engine selects the calendar queue for its per-node loops on
// the loop's own timings, calendar vs heap measured inside Engine.Run
// (the numbers are in Engine.newSched's comment), and
// TestCalendarScanBoundedOnClusteredTraffic pins the scan length on the
// clustered mix. The heap stays the default for small ad-hoc schedulers.

type nopEvent struct{}

func (nopEvent) Fire(Time) {}

func benchHold(b *testing.B, mk func() Scheduler, n int) {
	s := mk()
	rng := rand.New(rand.NewPCG(uint64(n), 0xbe_c4))
	// Mean inter-event spacing mirrors the capture workload: tens of
	// seconds between a connection's events.
	mean := float64(30 * time.Second)
	for i := 0; i < n; i++ {
		s.Schedule(Time(rng.ExpFloat64()*mean), nopEvent{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Step() {
			b.Fatal("queue drained")
		}
		s.Schedule(s.Now()+Time(rng.ExpFloat64()*mean), nopEvent{})
	}
}

func benchChurn(b *testing.B, mk func() Scheduler, n int) {
	s := mk()
	rng := rand.New(rand.NewPCG(uint64(n), 0xc4_be))
	mean := float64(30 * time.Second)
	for i := 0; i < n; i++ {
		s.Schedule(Time(rng.ExpFloat64()*mean), nopEvent{})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := s.Schedule(s.Now()+Time(rng.ExpFloat64()*mean), nopEvent{})
		s.Cancel(h)
	}
}

func schedulerSizes(b *testing.B) []int {
	if testing.Short() {
		return []int{1e4}
	}
	return []int{1e4, 1e5, 1e6, 1e7}
}

func BenchmarkSchedulerHold(b *testing.B) {
	impls := []struct {
		name string
		mk   func() Scheduler
	}{
		{"heap", func() Scheduler { return NewScheduler() }},
		{"calendar", func() Scheduler { return NewCalendarScheduler() }},
	}
	for _, n := range schedulerSizes(b) {
		for _, impl := range impls {
			b.Run(fmt.Sprintf("%s/n=%.0e", impl.name, float64(n)), func(b *testing.B) {
				benchHold(b, impl.mk, n)
			})
		}
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	impls := []struct {
		name string
		mk   func() Scheduler
	}{
		{"heap", func() Scheduler { return NewScheduler() }},
		{"calendar", func() Scheduler { return NewCalendarScheduler() }},
	}
	for _, n := range schedulerSizes(b) {
		for _, impl := range impls {
			b.Run(fmt.Sprintf("%s/n=%.0e", impl.name, float64(n)), func(b *testing.B) {
				benchChurn(b, impl.mk, n)
			})
		}
	}
}
