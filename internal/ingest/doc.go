// Package ingest is the fault-tolerant distributed collection layer: it
// carries the typed event streams of internal/stream across process and
// machine boundaries, from per-vantage emitter processes to a central
// collector, and guarantees that the collector's drained merged trace is
// byte-identical to an in-process engine.Run over the same
// configuration — under connection drops, delays, duplicated and
// reordered frames, slow readers, partitions, and emitter crashes with
// restart. When an emitter dies and never comes back, the collector
// degrades instead of deadlocking: the input is evicted from the merge
// barrier after a configurable silence and the loss is reported
// explicitly (DeadInputs, LostSessions), never silently absorbed.
//
// # Wire protocol
//
// Every message is one frame: a 4-byte big-endian payload length, then
// the payload, written with a single Write call. One-frame-per-Write is
// what makes the protocol survive write-granular duplication and
// reordering (a duplicated or swapped frame is still a well-formed frame
// — the seq layer below discards it). Each frame is stateless: it
// decodes alone, with no dictionary or type descriptor carried over from
// an earlier one, so torn frames only arise from a dying connection.
//
// The payload is a kind byte and a fixed layout per kind (frame.go's
// codec walks each layout once, in both directions). Integers are
// uvarints; signed ones (times, hello ints) are zigzag uvarints; floats
// are the 8 raw IEEE bytes, little-endian; bools one byte, 0 or 1. A
// string is its uvarint length and bytes. A slice is its uvarint length
// plus one (0 for nil) and its items; a journal line is such a byte
// slice. The exchange, per connection (the collector closes on a hello
// whose proto is not 4, the one version it speaks):
//
//	dir  kind            payload after the kind byte
//	e→c  1 hello         proto, input, source, journalTMs
//	c→e  2 welcome       resume, journalResume, evicted
//	e→c  3 data          firstSeq, events[]            (repeated)
//	c→e  4 ack           seq                           (after each data frame)
//	e→c  5 journal       firstSeq, lines[]             (interleaved with data)
//	c→e  6 journalAck    seq                           (after each journal frame)
//	e→c  7 bye           —                             (once both lanes are acked)
//
// An event is kind, presence flags (1 Sess, 2 Done, 4 Pong, 8 Hit: what
// is set, never what the kind implies), ID and Time, then each present
// part in flag order: Sess (Conn: ID, Start, End, Addr, Ultrapeer,
// UserAgent, SilentClose; then queries[], each ConnID, At, Text, SHA1,
// TTL, Hops, Hits), Done (the seven message counts, Seed, Scale, Days,
// Nodes, PongSampleRate, HitSampleRate), Pong (At, Addr, SharedFiles,
// Hops), Hit (At, Addr, Hops). An Addr is netip.Addr's binary form with
// a uvarint length: 0 bytes for none, 4 for IPv4, 16 plus the zone for
// IPv6.
//
// Decoding is strict, so every frame it accepts re-encodes to the same
// bytes: minimal varints, bools 0 or 1, no unknown kind or flag, no
// trailing byte. A count is checked against the bytes left before
// anything is allocated for it, and the read buffer grows only as bytes
// arrive, so a hostile length or count costs an error, not memory. The
// collector counts every connection it refuses at the first frame
// (ingest_hellos_refused_total): an undecodable frame, such as a
// version-3 emitter's gob hello, or another version, or an unknown input.
//
// # Sequencing and resume
//
// A connection carries two sequenced lanes, events (lane 0) and shipped
// journal lines (lane 1), each with its own seq space from 1, its own
// frame kinds and cumulative ack, and one generic implementation
// (lane.go) used for both. The emitter's sendQueue keeps every item
// until an ack covers it; the collector's recvLane applies items in seq
// order exactly once — duplicates (seq ≤ applied) are dropped, a frame
// past a gap is held in a reorder buffer of at most 1<<15 items — and
// acks the highest contiguous seq applied. On reconnect the welcome
// carries both watermarks (resume, journalResume): the emitter drops
// each acked prefix and retransmits the rest. A *restarted* emitter
// (fresh process) regenerates its deterministic event stream from seq 1
// and drops every event ≤ resume as it is pushed, converging to the
// exact suffix the collector is missing; journal lines are not
// regenerated, so it numbers its first line journalResume+1. Either way
// every item applies exactly once, in order. Backpressure (the emitter
// stops draining its intake at 1<<16 unacked events), ack timing
// (ingest_ack_rtt_seconds) and ingest_reordered_events belong to the
// events lane alone.
//
// # Liveness and degradation
//
// The collector tracks per-input progress wall-clock time. An input that
// stops sending stalls the merge barrier (that is the merge's
// correctness doing its job — nothing may retire past a watermark that
// could still move); Health reports it stalled after StallAfter. If the
// silence reaches EvictAfter, the collector evicts the input: it injects
// an EvEvict into the merge (internal/stream), which removes the input
// from the barrier, counts it in DeadInputs, counts its never-closed
// sessions in LostSessions, and lets the merge drain. The drained trace
// is exactly the merge of what arrived; what is missing is reported.
// Ingest applies the End-of-run accounting to analyze -perf and the
// collector's observability surface (internal/obs): stall, recovery and
// eviction transitions land as journal events and ingest_* counters, the
// MetricsHandler serves the registry as Prometheus text at /metrics, and
// the Health JSON at /metrics.json.
//
// # Journal lane: fleet-wide observability in-band
//
// An emitter given a JournalShip ships its own obs run journal to the
// collector on the same connection as the event stream, as the journal
// lane: journal frames interleave with data frames, journalAck frames
// carry its acks, and the lane machinery above makes every line land in
// the collector's fleet journal exactly once, in emission order, across
// any number of connection losses.
//
// The collector merges shipped lines into one fleet journal via
// obs.Journal.IngestLine, rebasing each line's t_ms onto its own clock:
// the hello carries the emitter's journal clock reading (journalTMs)
// at connect time, the collector computes offset = now − journalTMs at
// receipt, and keeps the minimum offset across reconnects — the sample
// with the least network delay. Each emitter's lines land in a lane
// named by the hello's source ("vantage0", …); the collector's own
// spans and per-input liveness events interleave in collector time.
//
// Shutdown is handshaked end to end, for every input alike: once an
// emitter's intake (and JournalShip, if it ships) is closed and it holds
// cumulative acks for everything on both lanes, it writes a bye frame
// and closes; a bye whose write fails goes out again on a reconnect. The
// collector's Run returns only after the merge completes and every input
// it did not evict has said bye, bounded by EvictAfter. So no connection
// closes under an emitter still owed its final ack, and the trailing
// lines every emitter writes after its events drain (final
// metrics/latency snapshots) survive a connection cut at exactly the
// wrong moment. Trace byte-identity is untouched: the journal lane rides
// the wire but never enters the merge.
//
// Wire latency is measured per frame on both ends: encode/decode
// time (ingest_frame_encode_seconds / ingest_frame_decode_seconds) and
// the emitter's data-send → covering-ack round trip
// (ingest_ack_rtt_seconds), as wall histograms — Prometheus exposition
// plus a final journal "latency" snapshot, excluded from deterministic
// metrics snapshots (see internal/obs).
package ingest
