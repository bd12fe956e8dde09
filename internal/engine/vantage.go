package engine

import (
	"fmt"
	"sync"

	"repro/internal/behavior"
	"repro/internal/capture"
	"repro/internal/simtime"
	"repro/internal/stream"
)

// NodeStream runs exactly one vantage of the configured fleet, emitting
// its event stream — opens, session records, pongs, hits, trailer — into
// sink. This is the emitter-process entrypoint of the distributed ingest
// pipeline (cmd/vantage): the arrival process is deterministic in the
// seed, so each vantage process regenerates the full global arrival chain
// locally through the same produceArrivals, keeps only the sessions
// guid.Shard assigns to idx (every other queue is nil), and runs the same
// runNodeBounded loop as Run's node idx — so its per-input event stream
// is bit-equal to that node's. N such processes feeding a collector
// therefore drain to a trace byte-identical to Run's, the acceptance the
// ingest tests pin. It also makes emitter restart cheap: a fresh process
// replays the same stream from the start and the ingest resume protocol
// discards the already-delivered prefix.
//
// The bounded producer (DefaultLookahead) paces regeneration, so a
// vantage process holds only its lookahead window of sessions no matter
// how large the fleet-wide arrival volume is. Foreign sessions cost only
// their generation.
func NodeStream(cfg Config, idx int, sink *stream.Producer) (capture.NodeStats, error) {
	if cfg.Fleet.Nodes < 1 {
		cfg.Fleet.Nodes = 1
	}
	if idx < 0 || idx >= cfg.Fleet.Nodes {
		return capture.NodeStats{}, fmt.Errorf("engine: vantage %d out of range [0,%d)", idx, cfg.Fleet.Nodes)
	}
	nodeCfg := cfg.Fleet.Node
	gen := behavior.NewGenerator(nodeCfg.Workload)
	shared := capture.NewSharedModel(gen)
	horizon := simtime.Time(nodeCfg.Workload.Days) * simtime.Day

	ch := newChain()
	queues := make([]chan ownedSession, cfg.Fleet.Nodes)
	queues[idx] = make(chan ownedSession, cfg.queueDepth())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		produceArrivals(cfg.Fleet, gen, ch, queues)
	}()

	arrivals := cfg.Obs.Counter("engine_arrivals_total", "arrival events fired by this vantage")
	node := runNodeBounded(nodeCfg, idx, simtime.NewCalendarScheduler(), shared, ch, queues[idx], horizon, sink, arrivals)
	wg.Wait()
	return node.Stats(), nil
}
