package engine

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/stream"
	"repro/internal/trace"
)

// TestNodeStreamMatchesRunStream is the distributed-vantage pin: N
// independent NodeStream runs — each regenerating the arrival process
// alone, exactly as N separate emitter processes would — merged through
// one streaming merger, must reproduce the in-process Run byte for byte.
func TestNodeStreamMatchesRunStream(t *testing.T) {
	for _, nodes := range []int{1, 3, 4} {
		want := traceBytes(t, New(Config{Fleet: testCfg(2004, 2, nodes)}).Run(nil))

		m := stream.NewMerger(nodes, nil)
		m.SetWindow(DefaultMergeWindow)
		done := make(chan *trace.Trace)
		go func() { done <- m.Run() }()
		var wg sync.WaitGroup
		for i := 0; i < nodes; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := NodeStream(Config{Fleet: testCfg(2004, 2, nodes)}, i, stream.NewProducer(i, m.Intake())); err != nil {
					t.Errorf("vantage %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		if got := traceBytes(t, <-done); !bytes.Equal(got, want) {
			t.Fatalf("nodes=%d: merged NodeStream vantages differ from Run", nodes)
		}
	}
}

// TestNodeStreamStatsMatchFleet: the per-vantage accounting rows of
// independent NodeStream runs must equal the engine's fleet rows.
func TestNodeStreamStatsMatchFleet(t *testing.T) {
	const nodes = 3
	fleetStats := New(Config{Fleet: testCfg(7, 1, nodes)}).Stats()
	for i := 0; i < nodes; i++ {
		if _, st := drainVantage(t, Config{Fleet: testCfg(7, 1, nodes)}, i); st != fleetStats.PerNode[i] {
			t.Fatalf("vantage %d stats = %+v, want %+v", i, st, fleetStats.PerNode[i])
		}
	}
}

// TestNodeStreamRejectsBadIndex: out-of-range vantage indices error
// instead of silently simulating the wrong shard.
func TestNodeStreamRejectsBadIndex(t *testing.T) {
	for _, idx := range []int{-1, 3} {
		if _, err := NodeStream(Config{Fleet: testCfg(1, 1, 3)}, idx, nil); err == nil {
			t.Fatalf("idx %d accepted", idx)
		}
	}
}

// TestEngineLossAccessorsZeroInProcess: in-process runs can never lose
// an input; the merge's degradation ledger must be clean.
func TestEngineLossAccessorsZeroInProcess(t *testing.T) {
	e := New(Config{Fleet: testCfg(5, 1, 2)})
	e.Run(nil)
	if e.DeadInputs() != 0 || e.LostSessions() != 0 {
		t.Fatalf("in-process run reported losses: dead=%d lost=%d", e.DeadInputs(), e.LostSessions())
	}
}
