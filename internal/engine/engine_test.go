package engine

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
)

func testCfg(seed uint64, days int, nodes int) capture.FleetConfig {
	cfg := capture.DefaultConfig(seed, 0.01)
	cfg.Workload.Days = days
	return capture.FleetConfig{Node: cfg, Nodes: nodes}
}

func traceBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineMatchesFleetByteForByte is the subsystem's acceptance pin:
// for several node counts, the drained trace must equal batch trace.Merge
// over the chain-replay oracle's per-node traces byte for byte, however
// many OS threads run the pipeline's goroutines — GOMAXPROCS 1 serializes
// producer, node loops and merger onto one thread, an interleaving the
// default never produces.
func TestEngineMatchesFleetByteForByte(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, nodes := range []int{1, 3, 4} {
		cfg := testCfg(2004, 2, nodes)
		want := traceBytes(t, trace.Merge(chainReplay(cfg, calendarSched).traces...))
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if got := traceBytes(t, New(Config{Fleet: cfg}).Run(nil)); !bytes.Equal(want, got) {
				t.Fatalf("nodes=%d GOMAXPROCS=%d: engine trace differs from the oracle fleet's", nodes, procs)
			}
		}
	}
}

// TestEngineOneNodeMatchesHistoricalSim pins the engine against the
// paper's literal deployment: the historical single-vantage Sim was one
// node on one heap scheduler dispatching the arrival chain — the
// chain-replay oracle at one node — and a one-node engine run must
// reproduce its trace byte for byte.
func TestEngineOneNodeMatchesHistoricalSim(t *testing.T) {
	cfg := capture.DefaultConfig(21, 0.01)
	cfg.Workload.Days = 1
	fleet := capture.FleetConfig{Node: cfg, Nodes: 1}
	want := traceBytes(t, trace.Merge(chainReplay(fleet, heapSched).traces...))
	if got := traceBytes(t, New(Config{Fleet: fleet}).Run(nil)); !bytes.Equal(want, got) {
		t.Fatal("one-node engine differs from historical Sim")
	}
}

// TestEngineStatsMatchFleet pins the accounting: total arrivals, per-node
// connection counts, rejections, peaks and drop counters must all equal
// the oracle fleet's, and every arrival is either recorded or rejected by
// exactly one vantage.
func TestEngineStatsMatchFleet(t *testing.T) {
	cfg := testCfg(11, 2, 3)
	oracle := chainReplay(cfg, calendarSched)
	es := New(Config{Fleet: cfg}).Stats()
	if es.Arrivals != oracle.arrivals {
		t.Fatalf("arrivals: engine %d, oracle %d", es.Arrivals, oracle.arrivals)
	}
	if len(es.PerNode) != len(oracle.stats) {
		t.Fatalf("per-node rows differ: %d vs %d", len(es.PerNode), len(oracle.stats))
	}
	var accepted, rejected, dropped uint64
	for i, ns := range es.PerNode {
		if ns != oracle.stats[i] {
			t.Fatalf("node %d stats differ: engine %+v oracle %+v", i, ns, oracle.stats[i])
		}
		accepted += uint64(ns.Conns)
		rejected += ns.Rejected
		dropped += ns.DroppedQueryEvents
	}
	if rejected != es.Rejected || dropped != es.DroppedQueryEvents {
		t.Fatalf("aggregate rows %+v do not sum the per-node rows (%d rejected, %d dropped)", es, rejected, dropped)
	}
	if accepted+rejected != es.Arrivals {
		t.Fatalf("accounting identity broken: %d + %d != %d", accepted, rejected, es.Arrivals)
	}
}

// TestEngineSchedulerImplementationIrrelevant swaps the per-node calendar
// queue for the binary heap: the engine's output must not depend on which
// order-equivalent scheduler implementation runs the loops.
func TestEngineSchedulerImplementationIrrelevant(t *testing.T) {
	cal := New(Config{Fleet: testCfg(5, 1, 3)})
	heap := New(Config{Fleet: testCfg(5, 1, 3)})
	heap.newSched = heapSched
	if !bytes.Equal(traceBytes(t, cal.Run(nil)), traceBytes(t, heap.Run(nil))) {
		t.Fatal("engine output depends on the scheduler implementation")
	}
}

// TestEngineDeterminism: two identical engine runs produce identical
// bytes.
func TestEngineDeterminism(t *testing.T) {
	a := New(Config{Fleet: testCfg(13, 1, 3)})
	b := New(Config{Fleet: testCfg(13, 1, 3)})
	if !bytes.Equal(traceBytes(t, a.Run(nil)), traceBytes(t, b.Run(nil))) {
		t.Fatal("two identical engine runs differ")
	}
}

// TestEngineRunMemoized: Run twice returns the same trace object.
func TestEngineRunMemoized(t *testing.T) {
	e := New(Config{Fleet: testCfg(3, 1, 2)})
	if e.Run(nil) != e.Run(nil) {
		t.Fatal("second Run did not return the memoized trace")
	}
}

// TestEngineRunRetryableAfterPanic pins the memo fix: a run that panics
// (here via a failing scheduler constructor) must surface the panic on
// the caller's goroutine — not crash the process from a pipeline
// goroutine — and leave the engine retryable, returning the trace a fresh
// engine returns.
func TestEngineRunRetryableAfterPanic(t *testing.T) {
	for _, lookahead := range []int{0, 16} {
		e := New(Config{Fleet: testCfg(13, 1, 3), Lookahead: lookahead})
		real := e.newSched
		e.newSched = func() simtime.Scheduler { panic("scheduler construction failed") }
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("lookahead=%d: expected Run to panic", lookahead)
				}
			}()
			e.Run(nil)
		}()
		e.newSched = real
		tr := e.Run(nil)
		if tr == nil {
			t.Fatalf("lookahead=%d: engine poisoned — retry after recovered panic returned nil trace", lookahead)
		}
		want := New(Config{Fleet: testCfg(13, 1, 3), Lookahead: lookahead}).Run(nil)
		if !bytes.Equal(traceBytes(t, want), traceBytes(t, tr)) {
			t.Fatalf("lookahead=%d: retried run trace differs from a fresh engine's", lookahead)
		}
		if e.Stats().Arrivals == 0 {
			t.Fatalf("lookahead=%d: retried run reported zero arrivals", lookahead)
		}
	}
}

// TestPeakPendingReportedEveryMode pins the merge diagnostic: PeakPending
// is nonzero after a run at the default window, a narrow producer window,
// and with a sink attached.
func TestPeakPendingReportedEveryMode(t *testing.T) {
	modes := []struct {
		name      string
		lookahead int
		sink      stream.Sink
	}{
		{"default", 0, nil},
		{"narrow", 16, nil},
		{"sink", 0, stream.NewOnline(stream.OnlineConfig{})},
	}
	for _, m := range modes {
		e := New(Config{Fleet: testCfg(7, 1, 4), Lookahead: m.lookahead})
		e.Run(m.sink)
		if e.PeakPending() <= 0 {
			t.Fatalf("%s: PeakPending = %d, want > 0", m.name, e.PeakPending())
		}
	}
}

// TestSchedEventsByKindSumToTotal pins the per-kind breakdown against the
// schedulers' own count: the twelve engine_sched_events_by_kind series add
// up to engine_sched_events_total exactly (the kinds are counted by the
// vantages at Schedule time, the total by the schedulers), every kind the
// run can produce is non-zero, and the counts agree kind for kind across
// producer windows and with a sink attached.
func TestSchedEventsByKindSumToTotal(t *testing.T) {
	const prefix = `engine_sched_events_by_kind{kind="`
	byKind := func(lookahead int, sink stream.Sink) map[string]float64 {
		reg := obs.NewRegistry()
		e := New(Config{Fleet: testCfg(2004, 1, 3), Lookahead: lookahead, Obs: &obs.Observer{Metrics: reg}})
		e.Run(sink)
		kinds := map[string]float64{}
		var sum float64
		for _, s := range reg.Samples() {
			if name, ok := strings.CutPrefix(s.Name, prefix); ok {
				kinds[strings.TrimSuffix(name, `"}`)] = s.Value
				sum += s.Value
			}
		}
		if len(kinds) != int(capture.NumEventKinds) {
			t.Fatalf("%d kinds published, want %d: %v", len(kinds), capture.NumEventKinds, kinds)
		}
		if total := reg.Value("engine_sched_events_total", -1); sum != total {
			t.Fatalf("kinds sum to %.0f, engine_sched_events_total = %.0f", sum, total)
		}
		for k := capture.EventKind(0); k < capture.NumEventKinds; k++ {
			if kinds[k.String()] == 0 {
				t.Errorf("kind %q counted no events", k)
			}
		}
		return kinds
	}
	base := byKind(0, nil)
	narrow := byKind(64, nil)
	sunk := byKind(0, stream.NewOnline(stream.OnlineConfig{}))
	for k, n := range base {
		if narrow[k] != n || sunk[k] != n {
			t.Errorf("kind %q: default %.0f, lookahead 64 %.0f, with sink %.0f", k, n, narrow[k], sunk[k])
		}
	}
}
