// Package stream is the streaming counterpart of the batch measurement
// pipeline: a typed, backpressured event stream that vantage nodes emit
// into as they simulate (or as a live daemon ingests wire traffic), a
// k-way online merge that unions per-node streams into the global
// time-ordered deduplicated order incrementally, and an online
// characterization layer of bounded-memory sketches — Space-Saving top-K
// keyword ranking, Greenwald–Khanna quantile summaries, sliding-window
// arrival and query rates.
//
// # Why a stream layer
//
// The batch path materializes every per-node trace plus the merged trace
// in RAM before characterization starts; at paper scale that is the
// simulate phase's multi-gigabyte peak. The paper itself, and the
// continuous-capture systems in the related literature (distributed
// eDonkey honeypots, the ten-week eDonkey server capture), observe a live
// query stream and must characterize it as it arrives with bounded state.
// This package is that mode: producers emit session open / close, query,
// pong and hit records into bounded channels; the merge consumes them
// incrementally and retires each session record into its final merged
// position the moment no earlier-keyed record can still appear; the
// online layer answers "what does the stream look like right now" from
// sketches whose size does not grow with the stream.
//
// # Contracts
//
//   - Merge order: draining a Merger to completion yields a trace
//     byte-identical to trace.Merge over the same per-node traces (pinned
//     by test). The emission order of sessions — and therefore everything
//     an Online sink computes — is deterministic, independent of how the
//     producer goroutines interleave.
//   - Bounded memory: a producer blocked on a full channel stops
//     simulating (backpressure). The merger holds one queue of sessions
//     per input — the open ones, and the completed ones not yet past the
//     emission barrier — and, until finish, what becomes the trace: the
//     retired sessions' query lists and each input's run of pongs and
//     hits, which finish sweeps and merges into the record sections.
//   - Sketch accuracy: TopK is exact while the distinct-key count fits its
//     capacity and ε-bounded beyond it (ErrBound reports the bound);
//     Quantile answers every query within rank error ε·n (default
//     ε = 0.001). Both bounds are pinned by test.
package stream

import (
	"repro/internal/trace"
)

// Kind discriminates stream events.
type Kind uint8

// Event kinds.
const (
	// EvOpen announces a session arrival: ID is the producer-local
	// connection id, Time the handshake completion (= trace.Conn.Start).
	// The merge needs opens to bound emission: a completed session may
	// retire only once no still-open or future session can precede it.
	EvOpen Kind = iota
	// EvClose carries the completed session record (connection plus its
	// full hop-1 query list); Time is the observed session end.
	EvClose
	// EvPong carries one shared-library report.
	EvPong
	// EvHit carries one QUERYHIT observation.
	EvHit
	// EvDone is the producer's final event: aggregate message counts and
	// trace metadata. Exactly one per input, after which the input's
	// channel closes.
	EvDone
	// EvEvict declares the input dead without a trailer: a liveness layer
	// (internal/ingest's collector) injects it when an input's watermark
	// has stopped advancing for longer than its timeout, so the merge
	// degrades gracefully instead of stalling the emission barrier
	// forever. The merger removes the input from the barrier, counts its
	// still-open sessions as lost (LostSessions), counts the input dead
	// (DeadInputs), and folds the event's optional partial trailer —
	// everything already closed stays in the merged trace. After an
	// eviction the drained trace is exactly the merge of what was
	// received; what is missing is reported, never silently absorbed.
	EvEvict
)

// SessionRecord is one completed connection with its query stream, the
// unit of the merge's total order. Conn.ID and the queries' ConnID are
// producer-local and ignored by the merge, which assigns fresh dense IDs
// in merged order (exactly as trace.Merge does).
type SessionRecord struct {
	Conn    trace.Conn
	Queries []trace.Query
}

// End carries a producer's stream trailer: the aggregate counters and
// trace metadata the merged trace needs (the per-input equivalents of
// what trace.Merge reads off whole traces).
type End struct {
	Counts trace.MessageCounts
	Seed   uint64
	Scale  float64
	Days   int
	// Nodes is how many vantage points this input itself represents: 1
	// (or 0, which means 1) for a per-node stream, N when a whole merged
	// trace is replayed as one input.
	Nodes          int
	PongSampleRate float64
	HitSampleRate  float64
}

// Event is one element of a producer's stream.
type Event struct {
	Kind Kind
	// ID is the producer-local connection id (EvOpen/EvClose).
	ID uint64
	// Time is the event instant, and doubles as the input's watermark:
	// producers emit in nondecreasing Time order, so after seeing Time = t
	// the merge knows input arrivals before t are complete.
	Time trace.Time
	// Sess is the completed record (EvClose).
	Sess *SessionRecord
	// Pong and Hit are record payloads for their kinds.
	Pong trace.Pong
	Hit  trace.Hit
	// Done is the stream trailer (EvDone).
	Done *End
}

// Batch is a run of events from one input, in emission order. Events
// travel in batches to amortize channel synchronization across the
// millions of records of a full-scale run.
//
// A sent batch is read-only: a consumer (the Merger, an ingest emitter)
// reads Events and the records they point to and never writes them, and
// the sender does not touch a batch after sending it. Consumers keep a
// batch without copying it, and one batch may be fed to several
// consumers, at once or one after another.
//
// Return, when set, is where the sender takes event arrays back to
// refill, and it makes the Merger the batch's one consumer: once the
// Merger has applied the batch it offers Events on Return without
// blocking (a full channel drops the array) and never touches the array
// again, so the sender may overwrite it. Any other consumer ignores
// Return. Such a batch may go to more consumers only once its sender has
// stopped reading Return, as when a recording of a finished producer's
// batches is replayed; the records Events point to are never recycled,
// only the array.
type Batch struct {
	Input  int
	Events []Event
	Return chan<- []Event
}

// recycle offers b's event array back to its sender, if it asked for
// it; the caller must be done with the array.
func (b *Batch) recycle() {
	if b.Return == nil {
		return
	}
	select {
	case b.Return <- b.Events:
	default:
	}
}

// batchSize is the producer-side slab length. 256 events ≈ 30 KB per
// slab: large enough that channel operations vanish from profiles, small
// enough that per-input buffering stays in cache.
const batchSize = 256

// Producer accumulates one input's events and ships them to the merger's
// shared intake in slabs. Not safe for concurrent use: each producer
// belongs to exactly one goroutine (one vantage node's event loop).
//
// Every batch it sends carries the producer's own return channel, and a
// flush refills from the arrays the merger has handed back before it
// allocates one, so a producer feeding a merger settles on the few
// arrays in flight. A consumer that keeps batches (an ingest emitter's
// unacked queue, a recording) returns nothing, and the producer then
// allocates a fresh array per batch.
//
// The session records it emits are handed out of slabs of recordSlab
// records, one allocation per slab. A record is never recycled, only the
// event arrays are, so a consumer may keep one as long as it likes; the
// merger keeps none past its window (its spill copies them).
type Producer struct {
	input    int
	out      chan<- Batch
	buf      []Event
	returned chan []Event    // arrays the merger has handed back
	recs     []SessionRecord // the current slab's unused records
}

// recordSlab is how many session records one slab holds.
const recordSlab = 256

// NewProducer builds the producer for input (one of the merger's k
// declared inputs). All producers of one merger share its intake channel;
// per-producer order is preserved because each producer is single-
// threaded and channel sends are FIFO per sender.
//
// The channel returned arrays come back on holds one more than out: a
// producer's arrays in flight are at most those queued on out and the one
// the merger is applying, so every array the merger hands back fits, and
// the producer allocates only while more of its arrays are in flight than
// ever before.
func NewProducer(input int, out chan<- Batch) *Producer {
	return &Producer{input: input, out: out, buf: make([]Event, 0, batchSize), returned: make(chan []Event, cap(out)+1)}
}

// Emit appends one event, flushing the batch when full. A full intake
// channel blocks here — that is the backpressure that bounds how far a
// fast producer can run ahead of the merge.
func (p *Producer) Emit(ev Event) {
	p.buf = append(p.buf, ev)
	if len(p.buf) == batchSize {
		p.Flush()
	}
}

// Open emits a session-arrival announcement.
func (p *Producer) Open(id uint64, at trace.Time) {
	p.Emit(Event{Kind: EvOpen, ID: id, Time: at})
}

// Close emits a completed session record of conn and its query list,
// which the record then owns. The record comes from the producer's slab.
func (p *Producer) Close(id uint64, at trace.Time, conn trace.Conn, queries []trace.Query) {
	if len(p.recs) == 0 {
		p.recs = make([]SessionRecord, recordSlab)
	}
	rec := &p.recs[0]
	p.recs = p.recs[1:]
	*rec = SessionRecord{Conn: conn, Queries: queries}
	p.Emit(Event{Kind: EvClose, ID: id, Time: at, Sess: rec})
}

// Pong emits a shared-library report.
func (p *Producer) Pong(rec trace.Pong) {
	p.Emit(Event{Kind: EvPong, ID: 0, Time: rec.At, Pong: rec})
}

// Hit emits a QUERYHIT observation.
func (p *Producer) Hit(rec trace.Hit) {
	p.Emit(Event{Kind: EvHit, ID: 0, Time: rec.At, Hit: rec})
}

// Done emits the stream trailer and flushes. The producer must not be
// used afterwards.
func (p *Producer) Done(at trace.Time, end *End) {
	p.Emit(Event{Kind: EvDone, Time: at, Done: end})
	p.Flush()
}

// Flush ships the buffered events and takes the next array from the
// returned ones, or allocates it.
func (p *Producer) Flush() {
	if len(p.buf) == 0 {
		return
	}
	p.out <- Batch{Input: p.input, Events: p.buf, Return: p.returned}
	select {
	case buf := <-p.returned:
		p.buf = buf[:0]
	default:
		p.buf = make([]Event, 0, batchSize)
	}
}
