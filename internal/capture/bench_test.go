package capture

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/trace"
)

// benchNodeTraces simulates one 4-node fleet per benchmark binary; the
// merge benchmark re-merges its per-node traces each iteration.
var (
	benchFleetOnce sync.Once
	benchNodes     []*trace.Trace
)

func benchFleet(b *testing.B) []*trace.Trace {
	b.Helper()
	benchFleetOnce.Do(func() {
		cfg := DefaultConfig(2004, 0.02)
		cfg.Workload.Days = 2
		benchNodes = NewFleet(FleetConfig{Node: cfg, Nodes: 4}).NodeTraces()
	})
	return benchNodes
}

// BenchmarkFleetSimulate measures the multi-vantage simulation end to end
// (one day at 1% scale across 4 nodes, merge included). allocs/event is
// the event loop's allocation budget (TestEventLoopAllocationBudget) seen
// from outside: every allocation of Run, arrival generation and merge
// included, over the events the fleet's scheduler was given.
func BenchmarkFleetSimulate(b *testing.B) {
	b.ReportAllocs()
	var mallocs, events uint64
	var before, after runtime.MemStats
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(uint64(i), 0.01)
		cfg.Workload.Days = 1
		f := NewFleet(FleetConfig{Node: cfg, Nodes: 4})
		runtime.ReadMemStats(&before)
		tr := f.Run()
		runtime.ReadMemStats(&after)
		if len(tr.Conns) == 0 {
			b.Fatal("empty trace")
		}
		mallocs += after.Mallocs - before.Mallocs
		events += f.sched.Scheduled()
	}
	b.ReportMetric(float64(mallocs)/float64(events), "allocs/event")
}

// BenchmarkTraceMerge isolates the union step: deduplicate, totally
// order, and re-identify a 4-node fleet's traces.
func BenchmarkTraceMerge(b *testing.B) {
	nodes := benchFleet(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := trace.Merge(nodes...)
		if len(m.Conns) == 0 {
			b.Fatal("empty merge")
		}
	}
}
