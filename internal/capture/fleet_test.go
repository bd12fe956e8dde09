package capture_test

// The fleet's properties. internal/engine is what drives a fleet of
// capture.Nodes, so these tests live in the external test package, where
// they can import it.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/stream"
	"repro/internal/trace"
)

func fleetCfg(seed uint64, scale float64, days, nodes int) engine.Config {
	cfg := capture.DefaultConfig(seed, scale)
	cfg.Workload.Days = days
	return engine.Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: nodes}}
}

// vantageTraces runs every vantage of the fleet alone (engine.NodeStream)
// and drains each stream into its own trace, in node order.
func vantageTraces(cfg engine.Config) []*trace.Trace {
	out := make([]*trace.Trace, cfg.Fleet.Nodes)
	for i := range out {
		m := stream.NewMerger(1, nil)
		m.SetWindow(engine.DefaultMergeWindow)
		done := make(chan *trace.Trace)
		go func() { done <- m.Run() }()
		if _, err := engine.NodeStream(cfg, i, stream.NewProducer(0, m.Intake())); err != nil {
			panic(err) // unreachable: i is in range
		}
		out[i] = <-done
	}
	return out
}

// sharedFleet runs one 4-node fleet per test binary, plus each of its
// vantages alone; they feed the accounting and ordering tests.
var (
	fleetOnce   sync.Once
	sharedCfg   = fleetCfg(2004, 0.02, 2, 4)
	testStats   capture.FleetStats
	testMerged  *trace.Trace
	testVantage []*trace.Trace
)

func sharedFleet(t *testing.T) (capture.FleetStats, *trace.Trace, []*trace.Trace) {
	t.Helper()
	fleetOnce.Do(func() {
		e := engine.New(sharedCfg)
		testMerged = e.Run(nil)
		testStats = e.Stats()
		testVantage = vantageTraces(sharedCfg)
	})
	return testStats, testMerged, testVantage
}

func TestFleetAccountingSums(t *testing.T) {
	st, merged, _ := sharedFleet(t)
	if st.Arrivals == 0 {
		t.Fatal("no arrivals")
	}
	maxConns := sharedCfg.Fleet.Node.MaxConns
	var accepted, rejected uint64
	for _, ns := range st.PerNode {
		accepted += uint64(ns.Conns)
		rejected += ns.Rejected
		if ns.PeakConns > maxConns {
			t.Errorf("node %d peaked at %d conns, above the %d cap", ns.Node, ns.PeakConns, maxConns)
		}
	}
	if accepted+rejected != st.Arrivals {
		t.Errorf("per-node accounting: %d accepted + %d rejected != %d arrivals",
			accepted, rejected, st.Arrivals)
	}
	if rejected != st.Rejected {
		t.Errorf("Rejected sum %d != per-node sum %d", st.Rejected, rejected)
	}
	if uint64(len(merged.Conns)) != accepted {
		t.Errorf("merged trace has %d conns, per-node totals say %d", len(merged.Conns), accepted)
	}
	if merged.Nodes != 4 {
		t.Errorf("merged.Nodes = %d, want 4", merged.Nodes)
	}
}

func TestFleetRecordsAllArrivalsWhenCapsDontBind(t *testing.T) {
	// At 2% scale the per-node load sits far below the 200-slot cap, so a
	// 4-node fleet must record the entire arrival stream — the miniature
	// of the full-volume acceptance run.
	st, merged, _ := sharedFleet(t)
	if st.Rejected != 0 {
		t.Fatalf("caps bound at small scale: %d rejections", st.Rejected)
	}
	if uint64(len(merged.Conns)) != st.Arrivals {
		t.Fatalf("recorded %d of %d arrivals", len(merged.Conns), st.Arrivals)
	}
}

func TestFleetCountsSumIntoMerge(t *testing.T) {
	_, merged, vantages := sharedFleet(t)
	var want trace.MessageCounts
	for _, nt := range vantages {
		want.Ping += nt.Counts.Ping
		want.Pong += nt.Counts.Pong
		want.Query += nt.Counts.Query
		want.QueryHit += nt.Counts.QueryHit
		want.Push += nt.Counts.Push
		want.Bye += nt.Counts.Bye
		want.QueryHop1 += nt.Counts.QueryHop1
	}
	if merged.Counts != want {
		t.Errorf("merged counts %+v != per-node sum %+v", merged.Counts, want)
	}
	if uint64(len(merged.Queries)) != merged.Counts.QueryHop1 {
		t.Errorf("recorded queries %d != hop-1 count %d", len(merged.Queries), merged.Counts.QueryHop1)
	}
}

func TestFleetDeterminism(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		if err := engine.New(fleetCfg(11, 0.01, 1, 3)).Run(nil).Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(run(), run()) {
		t.Fatal("two identical fleet runs produced different merged traces")
	}
}

func TestFleetSingleNodeMatchesSim(t *testing.T) {
	// A one-node fleet IS the paper's deployment: it must reproduce the
	// single-vantage driver's trace byte for byte.
	cfg := fleetCfg(21, 0.01, 1, 1)
	sim, _ := capture.SimulateVantage(cfg.Fleet.Node)
	var a, b bytes.Buffer
	if err := trace.Merge(sim).Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := engine.New(cfg).Run(nil).Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("one-node fleet differs from the single-vantage driver")
	}
}

// TestMergedReportInvariantToOrderingAndWorkers is the acceptance pin of
// the measurement fabric: the characterization report of the merged trace
// must be byte-identical no matter the order the per-node traces are
// merged in and no matter the characterization worker count.
func TestMergedReportInvariantToOrderingAndWorkers(t *testing.T) {
	_, _, nodeTraces := sharedFleet(t)
	orderings := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{2, 0, 3, 1},
	}
	var ref []byte
	for _, ord := range orderings {
		perm := make([]*trace.Trace, len(ord))
		for i, j := range ord {
			perm[i] = nodeTraces[j]
		}
		merged := trace.Merge(perm...)
		for _, workers := range []int{1, 4} {
			var buf bytes.Buffer
			c := core.CharacterizeOpts(merged, core.Options{Workers: workers})
			if err := report.RenderAll(&buf, c); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = buf.Bytes()
				continue
			}
			if !bytes.Equal(ref, buf.Bytes()) {
				t.Fatalf("report differs for ordering %v workers %d", ord, workers)
			}
		}
	}
	if len(ref) == 0 {
		t.Fatal("no report rendered")
	}
}

func TestFleetShardingIsByGUIDNotArrivalOrder(t *testing.T) {
	// Growing the fleet must keep the assignment consistent: the sessions
	// recorded by a 2-node fleet's node 0 are largely the same sessions
	// node 0 records in a 3-node fleet (jump-hash moves only ≈1/3).
	key := func(c *trace.Conn) [2]int64 {
		return [2]int64{int64(c.Start), int64(c.Addr.As4()[3])<<32 | int64(c.Addr.As4()[2])}
	}
	node0 := func(nodes int) map[[2]int64]bool {
		tr := vantageTraces(fleetCfg(5, 0.01, 1, nodes))[0]
		out := map[[2]int64]bool{}
		for i := range tr.Conns {
			out[key(&tr.Conns[i])] = true
		}
		return out
	}
	two, three := node0(2), node0(3)
	if len(two) == 0 || len(three) == 0 {
		t.Fatal("node 0 recorded nothing")
	}
	stayed := 0
	for k := range three {
		if two[k] {
			stayed++
		}
	}
	// Jump-hash consistency: everything node 0 holds at N=3 it already
	// held at N=2 (keys only ever move *to* the new node), minus noise
	// from cap/probe timing interactions.
	frac := float64(stayed) / float64(len(three))
	if frac < 0.95 {
		t.Errorf("only %.2f of node 0's N=3 sessions were on node 0 at N=2; sharding is not consistent", frac)
	}
}

// TestOverlappingProbesGoldenHash pins a trace in which probe machinery
// events of one connection overlap: with ProbeIdle and ProbeRearmIdle at
// 5 s and ProbeTimeout at 15 s, an answered probe is followed by the next
// one while up to three earlier deadlines are still pending, each holding
// a different probe instant. An event loop that kept one deadline record
// per connection would close live connections (or keep dead ones) and
// change the hash, which was recorded with the closure-based loop that
// preceded the typed events.
func TestOverlappingProbesGoldenHash(t *testing.T) {
	cfg := fleetCfg(2004, 0.02, 1, 2)
	cfg.Fleet.Node.ProbeIdle = 5 * time.Second
	cfg.Fleet.Node.ProbeTimeout = 15 * time.Second
	cfg.Fleet.Node.ProbeRearmIdle = 5 * time.Second
	h, err := engine.New(cfg).Run(nil).Hash()
	if err != nil {
		t.Fatal(err)
	}
	const want = "8664419e58da76d80ccb836aec8e74871c4ac432312620d12414ff7a50d5ec7d"
	if got := fmt.Sprintf("%x", h); got != want {
		t.Fatalf("trace hash %s, want %s", got, want)
	}
}
