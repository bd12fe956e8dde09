package engine

import (
	"bytes"
	"testing"

	"repro/internal/stream"
	"repro/internal/trace"
)

// TestBoundedLookaheadMatchesEager pins the producer window's
// byte-identity: across node counts and aggressively small windows (a
// 1-session window maximizes synchronizer round trips), the drained trace
// must hash equal to the eagerly partitioned chain-replay oracle's merge.
func TestBoundedLookaheadMatchesEager(t *testing.T) {
	for _, nodes := range []int{1, 3, 4} {
		cfg := testCfg(2004, 2, nodes)
		want := chainReplay(cfg, calendarSched).hash(t)
		for _, la := range []int{1, 7, 1024} {
			got, err := New(Config{Fleet: cfg, Lookahead: la}).Run(nil).Hash()
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("nodes=%d lookahead=%d: trace differs from the eager oracle's", nodes, la)
			}
		}
	}
}

// TestBoundedMatchesSequentialFleet closes the loop to the sequential
// reference at a second seed: the oracle runs its nodes one after another
// on one goroutine, each replaying the whole chain in FIFO order.
func TestBoundedMatchesSequentialFleet(t *testing.T) {
	cfg := testCfg(7, 2, 3)
	want := traceBytes(t, trace.Merge(chainReplay(cfg, heapSched).traces...))
	got := traceBytes(t, New(Config{Fleet: cfg, Lookahead: 64}).Run(nil))
	if !bytes.Equal(want, got) {
		t.Fatal("engine differs from the sequential reference")
	}
}

// TestBoundedStatsMatchEager: the accounting must survive a narrow
// producer window, row for row against the eager oracle.
func TestBoundedStatsMatchEager(t *testing.T) {
	cfg := testCfg(11, 2, 3)
	oracle := chainReplay(cfg, calendarSched)
	bs := New(Config{Fleet: cfg, Lookahead: 16}).Stats()
	if bs.Arrivals != oracle.arrivals {
		t.Fatalf("arrivals: bounded %d, oracle %d", bs.Arrivals, oracle.arrivals)
	}
	for i := range oracle.stats {
		if bs.PerNode[i] != oracle.stats[i] {
			t.Fatalf("node %d stats differ: bounded %+v oracle %+v", i, bs.PerNode[i], oracle.stats[i])
		}
	}
}

// countSink counts the sessions a sink observes.
type countSink int

func (c *countSink) MergedSession(*trace.Conn, []trace.Query) { *c++ }

// TestRunStreamMatchesBatch: a batch run is the stream drained into a
// trace, so attaching a sink must observe the stream without perturbing
// it — the drained trace is byte-identical with and without one, and the
// sink sees every merged session.
func TestRunStreamMatchesBatch(t *testing.T) {
	for _, nodes := range []int{1, 3, 4} {
		want := traceBytes(t, New(Config{Fleet: testCfg(2004, 2, nodes)}).Run(nil))
		var seen countSink
		tr := New(Config{Fleet: testCfg(2004, 2, nodes)}).Run(&seen)
		if !bytes.Equal(want, traceBytes(t, tr)) {
			t.Fatalf("nodes=%d: run with a sink differs from the drained batch trace", nodes)
		}
		if int(seen) != len(tr.Conns) {
			t.Fatalf("nodes=%d: sink saw %d sessions, trace has %d", nodes, seen, len(tr.Conns))
		}
	}
}

// TestRunStreamHashMatchesBatch: the canonical trace hash — what the
// full-scale run compares — agrees between the live merge and batch
// trace.Merge over the same vantages' streams, each drained alone.
func TestRunStreamHashMatchesBatch(t *testing.T) {
	cfg := Config{Fleet: testCfg(3, 1, 3)}
	streamed, err := New(cfg).Run(nil).Hash()
	if err != nil {
		t.Fatal(err)
	}
	vantages := make([]*trace.Trace, cfg.Fleet.Nodes)
	for i := range vantages {
		vantages[i], _ = drainVantage(t, cfg, i)
	}
	batch, err := trace.Merge(vantages...).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if batch != streamed {
		t.Fatalf("trace hashes differ: batch %x stream %x", batch, streamed)
	}
}

// TestRunStreamStats: the accounting of a run feeding a sink equals the
// sink-less run's, and the merge reports its pending high-water mark.
func TestRunStreamStats(t *testing.T) {
	bs := New(Config{Fleet: testCfg(5, 1, 3)}).Stats()
	str := New(Config{Fleet: testCfg(5, 1, 3)})
	str.Run(stream.NewOnline(stream.OnlineConfig{}))
	ss := str.Stats()
	if bs.Arrivals != ss.Arrivals || bs.Rejected != ss.Rejected {
		t.Fatalf("stats differ: batch %+v stream %+v", bs, ss)
	}
	for i := range bs.PerNode {
		if bs.PerNode[i] != ss.PerNode[i] {
			t.Fatalf("node %d stats differ: batch %+v stream %+v", i, bs.PerNode[i], ss.PerNode[i])
		}
	}
	if str.PeakPending() == 0 {
		t.Fatal("streaming run reported no pending high-water mark")
	}
}

// TestRunStreamOnlineDeterministic: the online layer riding the merge
// sink must produce identical snapshots across runs (the emission order
// is deterministic regardless of goroutine interleaving), and its exact
// counters must match the drained trace.
func TestRunStreamOnlineDeterministic(t *testing.T) {
	run := func() (stream.Snapshot, *trace.Trace) {
		online := stream.NewOnline(stream.OnlineConfig{})
		tr := New(Config{Fleet: testCfg(13, 2, 3)}).Run(online)
		return online.Snapshot(10), tr
	}
	a, tr := run()
	b, _ := run()
	if a.Sessions != b.Sessions || a.Queries != b.Queries || a.Duration != b.Duration ||
		a.Interarrival != b.Interarrival || a.ArrivalsPerHour != b.ArrivalsPerHour ||
		a.QueriesPerHour != b.QueriesPerHour || a.Under64Fraction != b.Under64Fraction {
		t.Fatalf("online snapshots differ across runs:\n%+v\n%+v", a, b)
	}
	if len(a.TopKeywords) != len(b.TopKeywords) {
		t.Fatal("top-K lengths differ across runs")
	}
	for i := range a.TopKeywords {
		if a.TopKeywords[i] != b.TopKeywords[i] {
			t.Fatalf("top-K differs at %d: %+v vs %+v", i, a.TopKeywords[i], b.TopKeywords[i])
		}
	}
	if a.Sessions != uint64(len(tr.Conns)) {
		t.Fatalf("online sessions %d != drained conns %d", a.Sessions, len(tr.Conns))
	}
	if a.Queries != uint64(len(tr.Queries)) {
		t.Fatalf("online queries %d != drained queries %d", a.Queries, len(tr.Queries))
	}
	exact := stream.Exact(tr, 10)
	if a.Under64Fraction != exact.Under64Fraction {
		t.Fatalf("under-64 share differs from exact: %g vs %g", a.Under64Fraction, exact.Under64Fraction)
	}
}
