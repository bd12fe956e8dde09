// Package obs is the repository's dependency-free observability layer:
// a concurrency-safe metrics registry, phase/span tracing with a JSONL
// run journal, Prometheus text exposition, and the shared HTTP surface
// (with optional net/http/pprof) every long-running command mounts.
//
// # Handles and the overhead contract
//
// All instrumentation flows through one *Observer handle threaded into
// configs (engine.Config.Obs, p2pquery.RunConfig.Obs,
// ingest.CollectorConfig.Obs, …). Every method on Observer, Registry,
// Journal, Span, Counter, Gauge and Histogram is nil-receiver safe, so
// production code is instrumented unconditionally and the disabled path
// costs a nil check per call site — no branches on "is observability
// on", no interface dispatch. Handle operations on that path allocate
// nothing: counter, gauge and histogram updates, the handle lookups on a
// nil Observer, and attr-less spans, events and metric snapshots
// (TestNilObserverAllocatesNothing pins each). Attrs are the exception:
// an A(...) value boxes at the call site whether or not an observer is
// installed, so Begin(…, A("conns", n)).End(A(…)) costs two small
// allocations even when disabled — which is why attrs belong on
// per-phase spans and events, never in a per-event loop. The enabled
// hot path is one atomic op per counter/gauge update (histograms: two
// atomics plus a CAS accumulate). The merged-trace byte-identity
// (full-scale SHA-256) is untouched because instrumentation never
// perturbs RNG streams or scheduling order.
//
// # Metric naming conventions
//
// Names are snake_case with a subsystem prefix matching the package that
// owns the value: engine_* (arrival/scheduler facts), merge_* (the
// streaming k-way merge), ingest_* (collector) / emitter_* (vantage
// emitters), online_* (stream.Online sketches), gnutellad_* (daemon),
// scenario_check_* (declarative-spec check results) and process_*
// (RSS/heap/goroutines). Counters end in _total; gauges are bare nouns;
// histograms carry a unit suffix (_seconds). Per-entity breakdowns use
// labels (input="3", metric="under64_share"), never name splicing.
//
// Scrape-time values that depend on the wall clock or the host — RSS,
// snapshot ages, liveness states — are GaugeFuncs: they appear in the
// Prometheus exposition but are excluded from Registry.Samples and
// therefore from journal metric snapshots, which keeps the journal a
// deterministic function of the run. Wall-clock histograms (per-frame
// codec time, ack RTTs — Registry.WallHistogram) get the same split:
// exposition and the journal's "latency" snapshot carry them, the
// deterministic metrics snapshot does not.
//
// dashboards/p2pquery.json charts every family across these
// subsystems; dashboard_test.go at the repo root pins its panel exprs
// against a live registry's FamilyNames in both directions, so a
// rename or an uncharted new family fails `go test .`.
//
// # Journal schema
//
// A Journal is JSONL, one self-contained object per line, ordered by
// emission under one mutex. Common fields: "kind", "t_ms"
// (monotonic-clock milliseconds since the journal opened) and an
// optional "src" lane (see below). Kinds:
//
//	span_start  {kind,t_ms,src?,id,parent?,name,attrs?}
//	span_end    {kind,t_ms,src?,id,name,dur_ms,attrs?}
//	event       {kind,t_ms,src?,name,attrs?}        discrete transitions
//	                                                (input_stalled, input_evicted,
//	                                                input_recovered, scenario_check…)
//	heartbeat   {kind,t_ms,src?,attrs?}             periodic progress
//	metrics     {kind,t_ms,src?,samples{name:val}}  registry snapshot
//	latency     {kind,t_ms,src?,samples{name:val}}  wall-histogram snapshot
//
// Span ids are sequential and parent links give the phase tree
// (simulate → characterize for an `analyze -simulate` run).
// Canonical(r) normalizes a journal for determinism comparison: it
// drops heartbeat and latency lines, strips t_ms/dur_ms, and
// stable-sorts the survivors by src lane, leaving span structure,
// per-lane ordering, attributes and metric values — two runs of the
// same spec must compare equal (pinned by TestJournalDeterminism… at
// paper40d smoke scale, and fleet-wide by `make distfleet-smoke`).
//
// # Fleet journals and lanes
//
// One journal can hold many processes' records. SetSource stamps every
// locally written line with a lane name; IngestLine appends a line
// produced by another process's journal, stamping its lane and
// rebasing its t_ms by a clock offset the caller derived (internal/
// ingest does this for shipped emitter journals, offset-sampled from
// the connection handshake). The result is a single time-ordered fleet
// journal where the collector's "collector" lane, its per-input
// "collector/<source>" liveness lanes, and each emitter's own
// "vantage<N>" lane interleave on one clock. Render it with
//
//	go run ./cmd/analyze -timeline fleet.jsonl
//
// which prints per-lane span/event timelines with durations, heartbeat
// compression, gap markers and final metric/latency rollups.
//
// # HTTP surface
//
// NewHTTPHandler serves Prometheus text at /metrics (Content-Type
// version=0.0.4) and — behind a -pprof flag — net/http/pprof under
// /debug/pprof/ for profiling the hot paths the ROADMAP targets. It
// returns the mux, so a daemon can mount its own endpoints beside them.
package obs
