package engine

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/behavior"
	"repro/internal/capture"
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
			got, err := New(Config{Fleet: cfg, lookahead: la}).Run(nil).Hash()
			if err != nil {
				t.Fatal(err)
			}
			if want != got {
				t.Fatalf("nodes=%d lookahead=%d: trace differs from the eager oracle's", nodes, la)
			}
		}
	}
}

// TestHandoffHoldsWindow pins the producer window in sessions: at no
// moment may a vantage have more than the window's sessions undelivered
// — buffered by the producer, queued in batches, or not yet taken off the
// batch it walks. The probe counts each vantage's sessions as the
// producer buffers them and as the vantage takes them; a vantage counts
// its take before it hands the batch back, so the producer's reading
// never undercounts what was taken.
func TestHandoffHoldsWindow(t *testing.T) {
	for _, nodes := range []int{1, 3} {
		for _, la := range []int{1, 7, 64} {
			put := make([]atomic.Int64, nodes)
			took := make([]atomic.Int64, nodes)
			var worst atomic.Int64
			cfg := Config{Fleet: testCfg(2004, 2, nodes), lookahead: la, probe: func(n int, isPut bool) {
				if !isPut {
					took[n].Add(1)
					return
				}
				if u := put[n].Add(1) - took[n].Load(); u > worst.Load() {
					worst.Store(u)
				}
			}}
			e := New(cfg)
			e.Run(nil)
			if w := worst.Load(); w > int64(la) {
				t.Fatalf("nodes=%d lookahead=%d: a vantage had %d sessions undelivered", nodes, la, w)
			}
			var puts, takes int64
			for i := range put {
				puts += put[i].Load()
				takes += took[i].Load()
			}
			if arrivals := int64(e.Stats().Arrivals); puts != arrivals || takes != arrivals {
				t.Fatalf("nodes=%d lookahead=%d: %d arrivals, %d buffered, %d taken", nodes, la, arrivals, puts, takes)
			}
		}
	}
}

// TestHandoffAllocationBudget: handing arrivals over allocates neither
// per batch nor per arrival. The run is the paper's deployment with its
// cap at one connection, so all but a handful of arrivals are rejected
// and their query streams go back to the generator. The baseline is a
// generator alone that gets each stream back a window of arrivals later,
// about when the engine's producer does, so the streams in flight cost
// both alike; the run's allocations beyond it come from set-up and those
// few sessions, which a run varies by a few dozen. Narrowing the window
// from the default to one session makes every arrival a batch, and may
// add at most one allocation per 8 batches; a second day, about 1,100
// more arrivals, at most one per 16.
func TestHandoffAllocationBudget(t *testing.T) {
	share := func(days, la int) (allocs float64, arrivals uint64) {
		fleet := testCfg(2004, days, 1)
		fleet.Node.MaxConns = 1
		run := testing.AllocsPerRun(4, func() {
			e := New(Config{Fleet: fleet, lookahead: la})
			e.Run(nil)
			arrivals = e.Stats().Arrivals
		})
		cfg := Config{lookahead: la}
		gen := testing.AllocsPerRun(4, func() {
			g := behavior.NewGenerator(fleet.Node.Workload)
			held := make([][]behavior.TimedQuery, cfg.window())
			var s behavior.Session
			for i := 0; g.NextInto(&s); i++ {
				slot := &held[i%len(held)]
				g.Recycle(*slot)
				*slot = s.Queries
			}
		})
		return run - gen, arrivals
	}
	base, arrivals := share(1, 0)
	narrow, _ := share(1, 1)
	if batches := float64(arrivals); narrow-base > batches/8 {
		t.Errorf("a one-session window allocated %.0f more than the default over %.0f batches", narrow-base, batches)
	}
	long, more := share(2, 0)
	if extra := float64(more - arrivals); long-base > extra/16 {
		t.Errorf("a second day allocated %.0f more over %.0f more arrivals", long-base, extra)
	}
}

// TestRejectedArrivalAllocationBudget holds what a turned-away arrival
// allocates, counted over the whole engine: at a one-connection cap
// nearly every arrival is rejected, its query stream goes back to the
// generator, and what is left per arrival is mostly the strings drawn
// into streams (Shaper.machineString). The rate is the third day's: the
// allocations of a 3-day run beyond a 1-day run's, over its extra
// arrivals, so set-up drops out. It reads 0.12 per arrival at seed 2004,
// and 0.24 when every rejected stream was left to the garbage collector.
func TestRejectedArrivalAllocationBudget(t *testing.T) {
	const budget = 0.18
	run := func(days int) (mallocs, arrivals uint64) {
		cfg := capture.DefaultConfig(2004, 0.1)
		cfg.Workload.Days = days
		cfg.MaxConns = 1
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e := New(Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: 1}})
		e.Run(nil)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, e.Stats().Arrivals
	}
	m1, a1 := run(1)
	m3, a3 := run(3)
	per := float64(m3-m1) / float64(a3-a1)
	if per > budget {
		t.Errorf("an arrival at a one-connection cap allocates %.3f times, budget %.2f", per, budget)
	} else {
		t.Logf("an arrival at a one-connection cap allocates %.3f times (budget %.2f)", per, budget)
	}
}

// TestRecycledStreamsPoisoned holds the stream recycling to its rule: a
// query stream goes back to the generator only once nothing reads it. With
// the poison seam on, every stream the generator takes back is
// overwritten with a sentinel at once, so a vantage that still read one —
// a rejected arrival's, a pooled connection's, or one the ownership
// filter dropped — would record the sentinel. At a two-connection cap
// nearly every arrival is rejected and connections are reused often; the
// traces must still equal the chain-replay oracle's, which recycles
// nothing, for the fleet and for each vantage run alone.
func TestRecycledStreamsPoisoned(t *testing.T) {
	behavior.PoisonRecycled.Store(true)
	t.Cleanup(func() { behavior.PoisonRecycled.Store(false) })
	for _, nodes := range []int{1, 3} {
		fleet := testCfg(2004, 2, nodes)
		fleet.Node.MaxConns = 2
		oracle := chainReplay(fleet, calendarSched)
		want := traceBytes(t, trace.Merge(oracle.traces...))
		for _, la := range []int{1, 64} {
			cfg := Config{Fleet: fleet, lookahead: la}
			if got := traceBytes(t, New(cfg).Run(nil)); !bytes.Equal(want, got) {
				t.Fatalf("nodes=%d lookahead=%d: trace differs from the oracle's", nodes, la)
			}
			for i := 0; i < nodes; i++ {
				got, _ := drainVantage(t, cfg, i)
				if !bytes.Equal(traceBytes(t, trace.Merge(oracle.traces[i])), traceBytes(t, got)) {
					t.Fatalf("nodes=%d lookahead=%d: vantage %d stream differs from the oracle's", nodes, la, i)
				}
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
	got := traceBytes(t, New(Config{Fleet: cfg, lookahead: 64}).Run(nil))
	if !bytes.Equal(want, got) {
		t.Fatal("engine differs from the sequential reference")
	}
}

// TestBoundedStatsMatchEager: the accounting must survive a narrow
// producer window, row for row against the eager oracle.
func TestBoundedStatsMatchEager(t *testing.T) {
	cfg := testCfg(11, 2, 3)
	oracle := chainReplay(cfg, calendarSched)
	bs := New(Config{Fleet: cfg, lookahead: 16}).Stats()
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
