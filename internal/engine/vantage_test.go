package engine

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/simtime"
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

// nodeEvents runs NodeStream(cfg, idx) and returns every event it
// emitted, in emission order.
func nodeEvents(t *testing.T, cfg Config, idx int) []stream.Event {
	t.Helper()
	intake := make(chan stream.Batch)
	collected := make(chan []stream.Event)
	go func() {
		var evs []stream.Event
		for b := range intake {
			evs = append(evs, b.Events...)
		}
		collected <- evs
	}()
	if _, err := NodeStream(cfg, idx, stream.NewProducer(0, intake)); err != nil {
		t.Fatal(err)
	}
	close(intake)
	return <-collected
}

// TestNodeStreamEventsDeterministic pins the per-input stream itself, not
// just its drained trace: ingest resumes a restarted emitter by event seq,
// so two runs of one vantage must emit the same event sequence —
// including the burst of right-censored closes at the horizon.
func TestNodeStreamEventsDeterministic(t *testing.T) {
	cfg := Config{Fleet: testCfg(2004, 2, 3)}
	a, b := nodeEvents(t, cfg, 0), nodeEvents(t, cfg, 0)
	if len(a) != len(b) {
		t.Fatalf("runs emitted %d and %d events", len(a), len(b))
	}
	censored := 0
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Kind == stream.EvClose && a[i].Time == simtime.Time(2)*simtime.Day {
			censored++
		}
	}
	if censored < 2 {
		t.Fatalf("only %d sessions censored at the horizon; the test cannot see their order", censored)
	}
}
