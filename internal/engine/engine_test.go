package engine

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/capture"
	"repro/internal/obs"
	"repro/internal/simtime"
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

// TestEngineMatchesFleetByteForByte is the subsystem's acceptance pin: for
// several node counts, the engine's merged trace must equal the sequential
// capture.Fleet's merged trace byte for byte, at every worker count.
func TestEngineMatchesFleetByteForByte(t *testing.T) {
	for _, nodes := range []int{1, 3, 4} {
		fleet := capture.NewFleet(testCfg(2004, 2, nodes))
		want := traceBytes(t, fleet.Run())
		for _, workers := range []int{1, 2, 4, 8} {
			e := New(Config{Fleet: testCfg(2004, 2, nodes), Workers: workers})
			got := traceBytes(t, e.Run())
			if !bytes.Equal(want, got) {
				t.Fatalf("nodes=%d workers=%d: engine trace differs from sequential fleet", nodes, workers)
			}
		}
	}
}

// TestEngineOneNodeMatchesHistoricalSim pins the engine against the
// paper's literal deployment: a one-node engine run must reproduce the
// historical single-vantage Sim trace byte for byte.
func TestEngineOneNodeMatchesHistoricalSim(t *testing.T) {
	cfg := capture.DefaultConfig(21, 0.01)
	cfg.Workload.Days = 1
	want := traceBytes(t, capture.New(cfg).Run())
	e := New(Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: 1}, Workers: 4})
	got := traceBytes(t, e.Run())
	if !bytes.Equal(want, got) {
		t.Fatal("one-node engine differs from historical Sim")
	}
}

// TestEnginePerNodeTracesMatchFleet checks the stronger claim behind the
// merge identity: each node's own trace — not just the merged union — is
// byte-identical to the sequential fleet's, which is what the chain-replay
// tie-break argument guarantees.
func TestEnginePerNodeTracesMatchFleet(t *testing.T) {
	fleet := capture.NewFleet(testCfg(7, 2, 4))
	fleet.Run()
	e := New(Config{Fleet: testCfg(7, 2, 4), Workers: 4})
	e.Run()
	ft, et := fleet.NodeTraces(), e.NodeTraces()
	if len(ft) != len(et) {
		t.Fatalf("node counts differ: %d vs %d", len(ft), len(et))
	}
	for i := range ft {
		if !bytes.Equal(traceBytes(t, ft[i]), traceBytes(t, et[i])) {
			t.Fatalf("node %d trace differs between fleet and engine", i)
		}
	}
}

// TestEngineStatsMatchFleet pins the accounting: total arrivals, per-node
// connection counts, rejections, peaks and drop counters must all equal
// the sequential fleet's.
func TestEngineStatsMatchFleet(t *testing.T) {
	fleet := capture.NewFleet(testCfg(11, 2, 3))
	fleet.Run()
	e := New(Config{Fleet: testCfg(11, 2, 3), Workers: 2})
	e.Run()
	fs, es := fleet.Stats(), e.Stats()
	if fs.Arrivals != es.Arrivals || fs.Rejected != es.Rejected || fs.DroppedQueryEvents != es.DroppedQueryEvents {
		t.Fatalf("aggregate stats differ: fleet %+v engine %+v", fs, es)
	}
	if len(fs.PerNode) != len(es.PerNode) {
		t.Fatalf("per-node rows differ: %d vs %d", len(fs.PerNode), len(es.PerNode))
	}
	for i := range fs.PerNode {
		if fs.PerNode[i] != es.PerNode[i] {
			t.Fatalf("node %d stats differ: fleet %+v engine %+v", i, fs.PerNode[i], es.PerNode[i])
		}
	}
	var accepted, rejected uint64
	for _, ns := range es.PerNode {
		accepted += uint64(ns.Conns)
		rejected += ns.Rejected
	}
	if accepted+rejected != es.Arrivals {
		t.Fatalf("accounting identity broken: %d + %d != %d", accepted, rejected, es.Arrivals)
	}
}

// TestEngineSchedulerImplementationIrrelevant swaps the per-node calendar
// queue for the binary heap: the engine's output must not depend on which
// order-equivalent scheduler implementation runs the loops.
func TestEngineSchedulerImplementationIrrelevant(t *testing.T) {
	cal := New(Config{Fleet: testCfg(5, 1, 3), Workers: 2})
	heap := New(Config{Fleet: testCfg(5, 1, 3), Workers: 2})
	heap.newSched = func() simtime.Scheduler { return simtime.NewScheduler() }
	if !bytes.Equal(traceBytes(t, cal.Run()), traceBytes(t, heap.Run())) {
		t.Fatal("engine output depends on the scheduler implementation")
	}
}

// TestEngineDeterminism: two identical engine runs at machine-sized
// workers produce identical bytes.
func TestEngineDeterminism(t *testing.T) {
	a := New(Config{Fleet: testCfg(13, 1, 3)})
	b := New(Config{Fleet: testCfg(13, 1, 3)})
	if !bytes.Equal(traceBytes(t, a.Run()), traceBytes(t, b.Run())) {
		t.Fatal("two identical engine runs differ")
	}
}

// TestEngineRunMemoized: Run twice returns the same trace object.
func TestEngineRunMemoized(t *testing.T) {
	e := New(Config{Fleet: testCfg(3, 1, 2), Workers: 2})
	if e.Run() != e.Run() {
		t.Fatal("second Run did not return the memoized trace")
	}
}

// TestEngineMatchesFleetAtScale is the opt-in heavyweight version of the
// byte-identity pin, for verifying the contract near paper volume rather
// than at test scale. Enable with e.g.
//
//	ENGINE_EQUIV_SCALE=0.25 ENGINE_EQUIV_DAYS=40 go test -run AtScale -timeout 2h ./internal/engine
//
// (≈ minutes per run; the regular suite pins the same property at small
// scale on every CI run.)
func TestEngineMatchesFleetAtScale(t *testing.T) {
	scaleStr := os.Getenv("ENGINE_EQUIV_SCALE")
	if scaleStr == "" {
		t.Skip("set ENGINE_EQUIV_SCALE (and optionally ENGINE_EQUIV_DAYS, ENGINE_EQUIV_NODES) to run")
	}
	scale, err := strconv.ParseFloat(scaleStr, 64)
	if err != nil {
		t.Fatalf("bad ENGINE_EQUIV_SCALE: %v", err)
	}
	days := 40
	if d := os.Getenv("ENGINE_EQUIV_DAYS"); d != "" {
		if days, err = strconv.Atoi(d); err != nil {
			t.Fatalf("bad ENGINE_EQUIV_DAYS: %v", err)
		}
	}
	nodes := 48
	if n := os.Getenv("ENGINE_EQUIV_NODES"); n != "" {
		if nodes, err = strconv.Atoi(n); err != nil {
			t.Fatalf("bad ENGINE_EQUIV_NODES: %v", err)
		}
	}
	cfg := capture.DefaultConfig(2004, scale)
	cfg.Workload.Days = days
	fc := capture.FleetConfig{Node: cfg, Nodes: nodes}
	t.Logf("sequential fleet: scale=%g days=%d nodes=%d", scale, days, nodes)
	want := traceBytes(t, capture.NewFleet(fc).Run())
	t.Logf("engine (machine workers)")
	got := traceBytes(t, New(Config{Fleet: fc}).Run())
	if !bytes.Equal(want, got) {
		t.Fatal("engine trace differs from sequential fleet at scale")
	}
	t.Logf("identical: %d trace bytes", len(want))
}

// TestEngineRunRetryableAfterPanic pins the memo fix: a run that panics
// (here via a failing scheduler constructor) must leave the engine
// retryable — before the fix, run() set ran=true up front, so a caller
// that recovered the panic got a poisoned engine returning a nil trace
// and zero stats forever.
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
			e.Run()
		}()
		e.newSched = real
		tr := e.Run()
		if tr == nil {
			t.Fatalf("lookahead=%d: engine poisoned — retry after recovered panic returned nil trace", lookahead)
		}
		want := New(Config{Fleet: testCfg(13, 1, 3), Lookahead: lookahead}).Run()
		if !bytes.Equal(traceBytes(t, want), traceBytes(t, tr)) {
			t.Fatalf("lookahead=%d: retried run trace differs from a fresh engine's", lookahead)
		}
		if e.Stats().Arrivals == 0 {
			t.Fatalf("lookahead=%d: retried run reported zero arrivals", lookahead)
		}
	}
}

// TestPeakPendingReportedEveryMode pins the accounting contract: every
// mode that produces the merged trace drives the streaming merge, so
// PeakPending is nonzero after eager Run, bounded Run, and RunStream
// alike — the analyze -perf line no longer reports a misleading zero for
// the batch paths.
func TestPeakPendingReportedEveryMode(t *testing.T) {
	modes := []struct {
		name string
		run  func(e *Engine)
	}{
		{"eager", func(e *Engine) { e.Run() }},
		{"bounded", func(e *Engine) { e.Run() }},
		{"stream", func(e *Engine) { e.RunStream(nil) }},
	}
	for _, m := range modes {
		cfg := Config{Fleet: testCfg(7, 1, 4)}
		if m.name == "bounded" {
			cfg.Lookahead = 16
		}
		e := New(cfg)
		m.run(e)
		if e.PeakPending() <= 0 {
			t.Fatalf("%s: PeakPending = %d, want > 0", m.name, e.PeakPending())
		}
	}
}

// TestSchedEventsByKindSumToTotal pins the per-kind breakdown against the
// schedulers' own count: in every execution mode the twelve
// engine_sched_events_by_kind series add up to engine_sched_events_total
// exactly (the kinds are counted by the vantages at Schedule time, the
// total by the schedulers), every kind the run can produce is non-zero,
// and the modes agree kind for kind.
func TestSchedEventsByKindSumToTotal(t *testing.T) {
	const prefix = `engine_sched_events_by_kind{kind="`
	byKind := func(run func(e *Engine), lookahead int) map[string]float64 {
		reg := obs.NewRegistry()
		e := New(Config{Fleet: testCfg(2004, 1, 3), Lookahead: lookahead, Obs: &obs.Observer{Metrics: reg}})
		run(e)
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
	eager := byKind(func(e *Engine) { e.Run() }, 0)
	bounded := byKind(func(e *Engine) { e.Run() }, 64)
	streamed := byKind(func(e *Engine) { e.RunStream(nil) }, 0)
	for k, n := range eager {
		if bounded[k] != n || streamed[k] != n {
			t.Errorf("kind %q: eager %.0f, bounded %.0f, stream %.0f", k, n, bounded[k], streamed[k])
		}
	}
}
