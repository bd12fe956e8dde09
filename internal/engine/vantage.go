package engine

import (
	"fmt"

	"repro/internal/capture"
	"repro/internal/simtime"
	"repro/internal/stream"
)

// NodeStream runs exactly one vantage of the configured fleet, emitting
// its event stream — opens, session records, pongs, hits, trailer — into
// sink. This is the emitter-process entrypoint of the distributed ingest
// pipeline (cmd/vantage): the arrival process is deterministic in the
// seed, so each vantage process regenerates the full global arrival chain
// locally through the same runFleet as Run, with a scheduler for idx
// alone, so the producer keeps only the sessions guid.Shard assigns to
// idx and the one loop that runs is Run's node idx — its per-input event
// stream is bit-equal to that node's. N such processes feeding a collector
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
	e := New(cfg)
	if idx < 0 || idx >= e.cfg.Fleet.Nodes {
		return capture.NodeStats{}, fmt.Errorf("engine: vantage %d out of range [0,%d)", idx, e.cfg.Fleet.Nodes)
	}
	scheds := make([]simtime.Scheduler, e.cfg.Fleet.Nodes)
	sinks := make([]*stream.Producer, e.cfg.Fleet.Nodes)
	scheds[idx], sinks[idx] = e.newSched(), sink
	arrivals := cfg.Obs.Counter("engine_arrivals_total", "arrival events fired by this vantage")
	_, nodes := runFleet(e.cfg, scheds, sinks, arrivals)
	return nodes[idx].Stats(), nil
}
