package filter_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/filter"
	"repro/internal/trace"
)

var (
	ptOnce  sync.Once
	ptTrace *trace.Trace
)

func parTrace(t testing.TB) *trace.Trace {
	t.Helper()
	ptOnce.Do(func() {
		cfg := capture.DefaultConfig(909, 0.02)
		cfg.Workload.Days = 2
		ptTrace = engine.New(engine.Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: 1}}).Run(nil)
	})
	return ptTrace
}

// TestApplyParallelSequentialIdentical is the determinism contract of the
// parallel filter: the full Result — per-rule counters, flags on every
// retained query, and session order — must be identical for every worker
// count.
func TestApplyParallelSequentialIdentical(t *testing.T) {
	tr := parTrace(t)
	seq := filter.ApplyOpts(tr, filter.Options{Workers: 1})
	if seq.FinalSessions == 0 || seq.Rule4SubSecond == 0 || seq.Rule5FixedInterval == 0 {
		t.Fatalf("degenerate reference result: %+v", seq)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		par := filter.ApplyOpts(tr, filter.Options{Workers: workers})
		if !reflect.DeepEqual(seq, par) {
			t.Fatalf("workers=%d: parallel result differs from sequential", workers)
		}
	}
}

func TestApplySessionsPointIntoTrace(t *testing.T) {
	// Retained sessions must reference the trace's own Conn records (the
	// enrichment layer relies on pointer identity), in connection order,
	// from every worker count.
	tr := parTrace(t)
	for _, workers := range []int{1, 4} {
		res := filter.ApplyOpts(tr, filter.Options{Workers: workers})
		last := -1
		for i := range res.Sessions {
			c := res.Sessions[i].Conn
			idx := int(c.ID)
			if idx < 0 || idx >= len(tr.Conns) || &tr.Conns[idx] != c {
				t.Fatalf("workers=%d: session %d does not point into the trace", workers, i)
			}
			if idx <= last {
				t.Fatalf("workers=%d: sessions out of connection order at %d", workers, i)
			}
			last = idx
		}
	}
}

func TestApplyDefaultsMatchExplicit(t *testing.T) {
	tr := parTrace(t)
	if !reflect.DeepEqual(filter.Apply(tr), filter.ApplyOpts(tr, filter.Options{})) {
		t.Fatal("Apply and ApplyOpts zero-value disagree")
	}
}
