package engine

// The full-chain-replay engine — the determinism mechanism this package
// used before the keyed tie-break — lives on here as the independent test
// oracle: every node replays the whole global arrival chain, one trivial
// event per foreign arrival, relying on nothing but the schedulers'
// implicit FIFO order, exactly as one global FIFO scheduler dispatching
// the chain would order that node's events. The engine must reproduce its
// traces byte for byte at every node count (grid tests, a 256-node case,
// and a fuzz target below), while scheduling O(global arrivals) fewer
// events per node — which TestScheduledPerNodeScaling pins.

import (
	"bytes"
	"testing"

	"repro/internal/behavior"
	"repro/internal/capture"
	"repro/internal/guid"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
)

func heapSched() simtime.Scheduler     { return simtime.NewScheduler() }
func calendarSched() simtime.Scheduler { return simtime.NewCalendarScheduler() }

// replayPart is the chain-replay oracle's partition, drawn eagerly: every
// arrival instant, each arrival's owner, and the sessions split per node.
type replayPart struct {
	starts  []simtime.Time
	owner   []uint32
	perNode [][]*behavior.Session
}

func replayPartition(cfg capture.FleetConfig) (*replayPart, *capture.SharedModel) {
	gen := behavior.NewGenerator(cfg.Node.Workload)
	shared := capture.NewSharedModel(gen)
	guids := guid.NewSource(cfg.Node.Workload.Seed, capture.SessionGUIDSalt)
	p := &replayPart{perNode: make([][]*behavior.Session, cfg.Nodes)}
	for sess := gen.Next(); sess != nil; sess = gen.Next() {
		g := guids.Next()
		n := g.Shard(cfg.Nodes)
		p.starts = append(p.starts, sess.Start)
		p.owner = append(p.owner, uint32(n))
		p.perNode[n] = append(p.perNode[n], sess)
	}
	return p, shared
}

// replayRun is the oracle's event loop: schedule the next chain event
// first, then dispatch the arrival if it is ours — the exact statement
// order of the reference dispatcher, which the implicit FIFO tie-break
// makes observable.
type replayRun struct {
	sched  simtime.Scheduler
	node   *capture.Node
	part   *replayPart
	idx    uint32
	k      int
	cursor int
}

func (r *replayRun) Fire(now simtime.Time) {
	k := r.k
	r.k++
	if r.k < len(r.part.starts) {
		r.sched.Schedule(r.part.starts[r.k], r)
	}
	if r.part.owner[k] == r.idx {
		sess := r.part.perNode[r.idx][r.cursor]
		r.cursor++
		r.node.Arrive(now, sess)
	}
}

// oracleRun is one chain-replay fleet: per-node drained traces, stats
// and scheduled-event counts, plus the global arrival count.
type oracleRun struct {
	traces    []*trace.Trace
	stats     []capture.NodeStats
	scheduled []uint64
	arrivals  uint64
}

// hash is the canonical hash of the oracle's batch trace.Merge.
func (o *oracleRun) hash(t testing.TB) [32]byte {
	t.Helper()
	h, err := trace.Merge(o.traces...).Hash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// chainReplay runs the chain-replay oracle over every node, one after
// another, each on its own scheduler, and drains each node's stream
// through its own one-input merge.
func chainReplay(cfg capture.FleetConfig, newSched func() simtime.Scheduler) *oracleRun {
	part, shared := replayPartition(cfg)
	horizon := simtime.Time(cfg.Node.Workload.Days) * simtime.Day
	o := &oracleRun{
		traces:    make([]*trace.Trace, cfg.Nodes),
		stats:     make([]capture.NodeStats, cfg.Nodes),
		scheduled: make([]uint64, cfg.Nodes),
		arrivals:  uint64(len(part.starts)),
	}
	for i := 0; i < cfg.Nodes; i++ {
		m := stream.NewMerger(1, nil)
		done := make(chan *trace.Trace)
		go func() { done <- m.Run() }()
		sched := newSched()
		node := capture.NewNode(cfg.Node, i, sched, shared, stream.NewProducer(0, m.Intake()))
		r := &replayRun{sched: sched, node: node, part: part, idx: uint32(i)}
		if len(part.starts) > 0 {
			sched.Schedule(part.starts[0], r)
		}
		sched.RunUntil(horizon)
		node.Finish(horizon)
		o.traces[i] = <-done
		o.stats[i] = node.Stats()
		o.scheduled[i] = sched.Scheduled()
	}
	return o
}

// drainVantage runs NodeStream(cfg, idx) alone into a one-input merger
// and returns the drained trace and the vantage's accounting row.
func drainVantage(t *testing.T, cfg Config, idx int) (*trace.Trace, capture.NodeStats) {
	t.Helper()
	m := stream.NewMerger(1, nil)
	m.SetWindow(DefaultMergeWindow)
	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()
	st, err := NodeStream(cfg, idx, stream.NewProducer(0, m.Intake()))
	if err != nil {
		t.Fatal(err)
	}
	return <-done, st
}

// TestKeyedMatchesChainReplayOracle pins the tentpole equivalence: at
// several node counts the engine's drained trace hashes equal to batch
// trace.Merge over the chain-replay oracle's per-node traces, under both
// scheduler implementations.
func TestKeyedMatchesChainReplayOracle(t *testing.T) {
	scheds := map[string]func() simtime.Scheduler{"heap": heapSched, "calendar": calendarSched}
	for name, newSched := range scheds {
		for _, nodes := range []int{1, 3, 4, 48} {
			cfg := testCfg(2004, 2, nodes)
			want := chainReplay(cfg, newSched).hash(t)
			e := New(Config{Fleet: cfg})
			e.newSched = newSched
			got, err := e.Run(nil).Hash()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s nodes=%d: merged hash differs from the chain-replay oracle's", name, nodes)
			}
		}
	}
}

// TestNodeStreamMatchesOracle checks the per-vantage claim behind the
// merge identity: each vantage's own stream, drained alone, equals the
// oracle's trace for that node — not just the merged union.
func TestNodeStreamMatchesOracle(t *testing.T) {
	for _, nodes := range []int{1, 3, 4, 48} {
		cfg := testCfg(2004, 2, nodes)
		oracle := chainReplay(cfg, calendarSched)
		for i := 0; i < nodes; i++ {
			got, st := drainVantage(t, Config{Fleet: cfg}, i)
			if !bytes.Equal(traceBytes(t, trace.Merge(oracle.traces[i])), traceBytes(t, got)) {
				t.Fatalf("nodes=%d: vantage %d stream differs from the oracle's node trace", nodes, i)
			}
			if st != oracle.stats[i] {
				t.Fatalf("nodes=%d: vantage %d stats = %+v, oracle %+v", nodes, i, st, oracle.stats[i])
			}
		}
	}
}

// TestKeyed256NodesMatchesOracle pushes the equivalence far beyond the
// grid tests' node counts: at 256 nodes (most nodes own a handful of
// sessions, so foreign-arrival ordering dominates) the engine's merged
// trace must still hash equal to the oracle's merge.
func TestKeyed256NodesMatchesOracle(t *testing.T) {
	cfg := testCfg(2004, 1, 256)
	want := chainReplay(cfg, calendarSched).hash(t)
	for _, lookahead := range []int{0, 64} {
		got, err := New(Config{Fleet: cfg, lookahead: lookahead}).Run(nil).Hash()
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("lookahead=%d: 256-node merge hash differs from chain-replay oracle", lookahead)
		}
	}
}

// TestScheduledPerNodeScaling pins the scaling win the keyed tie-break
// buys, exactly: the traces being byte-identical means both engines run
// the same internal (probe/query/close) events, so the only difference
// per node is the arrival bookkeeping — one event per *global* arrival
// under chain replay versus one per *own* arrival under keys. At 48
// nodes each keyed node must therefore schedule exactly
// (arrivals − ownArrivals) fewer events than the oracle's same node.
func TestScheduledPerNodeScaling(t *testing.T) {
	cfg := testCfg(2004, 2, 48)
	part, _ := replayPartition(cfg)
	arrivals := uint64(len(part.starts))
	oracle := chainReplay(cfg, calendarSched).scheduled

	e := New(Config{Fleet: cfg})
	per := e.ScheduledPerNode()
	if len(per) != 48 {
		t.Fatalf("ScheduledPerNode rows = %d, want 48", len(per))
	}
	for i, n := range per {
		if n == 0 {
			t.Fatalf("node %d scheduled no events", i)
		}
		own := uint64(len(part.perNode[i]))
		if want := oracle[i] - (arrivals - own); n != want {
			t.Fatalf("node %d scheduled %d events, want %d (oracle %d − %d foreign arrivals)",
				i, n, want, oracle[i], arrivals-own)
		}
		// The absolute point of the keyed tie-break, stated directly: no
		// node pays for the full global chain.
		if n >= oracle[i] {
			t.Fatalf("node %d scheduled %d events ≥ oracle's %d — chain replay cost is back", i, n, oracle[i])
		}
	}
}

// FuzzKeyedReplayEquivalence fuzzes the engine against the chain-replay
// oracle the way FuzzCalendarHeapEquivalence pins the two scheduler
// implementations: whatever the seed, fleet size and producer window, the
// merged traces must hash equal.
func FuzzKeyedReplayEquivalence(f *testing.F) {
	f.Add(uint64(2004), uint8(4), false)
	f.Add(uint64(1), uint8(1), true)
	f.Add(uint64(7), uint8(17), false)
	f.Add(uint64(42), uint8(64), true)
	f.Fuzz(func(t *testing.T, seed uint64, nodes uint8, narrow bool) {
		n := int(nodes%64) + 1
		cfg := capture.DefaultConfig(seed, 0.005)
		cfg.Workload.Days = 1
		fleet := capture.FleetConfig{Node: cfg, Nodes: n}
		want := chainReplay(fleet, calendarSched).hash(t)
		ecfg := Config{Fleet: fleet}
		if narrow {
			ecfg.lookahead = 32
		}
		got, err := New(ecfg).Run(nil).Hash()
		if err != nil {
			t.Fatal(err)
		}
		if want != got {
			t.Fatalf("seed=%d nodes=%d narrow=%v: merged hash differs from chain-replay oracle", seed, n, narrow)
		}
	})
}
