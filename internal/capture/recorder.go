package capture

import (
	"maps"
	"math/rand/v2"
	"net/netip"
	"slices"

	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Record is one open connection's record: its trace.Conn, the hop-1
// queries kept so far and its state under the observation policy. The
// driver owns it (the simulator embeds it in its connection), so the
// Recorder allocates nothing per connection.
type Record struct {
	conn     trace.Conn
	queries  []trace.Query
	lastRecv simtime.Time // the probe rule's evidence of life
	pongSeen bool         // the hop-1 self-pong was kept
	closed   bool
	planned  uint32 // the queries Open was told to expect: the list's capacity
}

// Recorder is one vantage's observation policy, what the paper's passive
// ultrapeer writes down about every message it receives: admission at
// MaxConns, connection IDs, per-type message counts, hop-1 queries kept
// whole, the first self-pong kept and remote pongs and hits sampled, each
// session record emitted at close, and the stream trailer. Every instant
// is an argument, so the simulated vantage and cmd/gnutellad both drive
// it. It is not safe for concurrent use.
type Recorder struct {
	cfg    Config
	rng    *rand.Rand
	sink   *stream.Producer
	open   map[uint64]*Record
	counts trace.MessageCounts
	// nextID counts admitted connections; peak is the most open at once.
	nextID   uint64
	peak     int
	rejected uint64
	done     bool
}

// NewRecorder builds a recorder under cfg's cap and sample rates,
// stamping its seed and scale on the trailer. rng draws the samples: the
// simulator passes its vantage's own stream, keeping every draw in place.
func NewRecorder(cfg Config, rng *rand.Rand, sink *stream.Producer) *Recorder {
	return &Recorder{cfg: cfg, rng: rng, sink: sink, open: make(map[uint64]*Record)}
}

// Admit reports whether a connection that completed its handshake may be
// recorded: not when MaxConns are open (a counted rejection), nor after
// Finish.
func (r *Recorder) Admit() bool {
	if r.done {
		return false
	}
	if len(r.open) >= r.cfg.MaxConns {
		r.rejected++
		return false
	}
	return true
}

// Open starts c as an admitted connection's record at instant at and
// returns the connection's ID. queries is how many hop-1 queries the
// connection is expected to send, or 0 when that is not known: the first
// Query sizes the list to it, so a session that sends them all allocates
// its list once.
func (r *Recorder) Open(c *Record, at simtime.Time, addr netip.Addr, ultrapeer bool, userAgent string, queries int) uint64 {
	id := r.nextID
	r.nextID++
	*c = Record{conn: trace.Conn{ID: id, Start: at, Addr: addr, Ultrapeer: ultrapeer, UserAgent: userAgent}, lastRecv: at, planned: uint32(queries)}
	r.open[id] = c
	r.sink.Open(id, at)
	r.peak = max(r.peak, len(r.open))
	return id
}

// Query keeps a hop-1 QUERY and returns its index in c's query list.
func (r *Recorder) Query(c *Record, at simtime.Time, text string, sha1 bool, ttl uint8) int {
	c.lastRecv = at
	r.counts.Query++
	r.counts.QueryHop1++
	if c.queries == nil && c.planned > 0 {
		c.queries = make([]trace.Query, 0, c.planned)
	}
	c.queries = append(c.queries, trace.Query{ConnID: c.conn.ID, At: at, Text: text, SHA1: sha1, TTL: ttl, Hops: 1})
	return len(c.queries) - 1
}

// Count counts a message that is not kept: a PING, BYE or PUSH, or a
// QUERY from beyond the peer.
func (r *Recorder) Count(c *Record, at simtime.Time, t wire.Type) {
	c.lastRecv = at
	switch t {
	case wire.TypeQuery:
		r.counts.Query++
	case wire.TypePing:
		r.counts.Ping++
	case wire.TypeBye:
		r.counts.Bye++
	case wire.TypePush:
		r.counts.Push++
	}
}

// Pong keeps c's first self-pong (hop 1; repeats name the same peer and
// library) and remote pongs at PongSampleRate.
func (r *Recorder) Pong(c *Record, at simtime.Time, addr netip.Addr, files uint32, hops uint8) {
	c.lastRecv = at
	r.counts.Pong++
	if hops == 1 {
		if !c.pongSeen {
			c.pongSeen = true
			r.sink.Pong(trace.Pong{At: at, Addr: addr, SharedFiles: files, Hops: 1})
		}
	} else if r.rng.Float64() < r.cfg.PongSampleRate {
		r.sink.Pong(trace.Pong{At: at, Addr: addr, SharedFiles: files, Hops: hops})
	}
}

// Hit keeps a QUERYHIT at HitSampleRate.
func (r *Recorder) Hit(c *Record, at simtime.Time, addr netip.Addr, hops uint8) {
	c.lastRecv = at
	r.counts.QueryHit++
	if r.rng.Float64() < r.cfg.HitSampleRate {
		r.sink.Hit(trace.Hit{At: at, Addr: addr, Hops: hops})
	}
}

// Wire records a message received off the network, reading its payload
// without retaining it. Nothing is recorded on a closed record, such as
// one Finish censored while its socket stayed up.
func (r *Recorder) Wire(c *Record, at simtime.Time, env wire.Envelope) {
	if c.closed {
		return
	}
	switch m := env.Payload.(type) {
	case *wire.Query:
		if env.Header.Hops == 1 {
			r.Query(c, at, m.SearchText, m.HasSHA1(), env.Header.TTL)
		} else {
			r.Count(c, at, wire.TypeQuery)
		}
	case *wire.Pong:
		r.Pong(c, at, m.Addr, m.SharedFiles, env.Header.Hops)
	case *wire.QueryHit:
		r.Hit(c, at, m.Addr, env.Header.Hops)
	default:
		r.Count(c, at, env.Header.Type)
	}
}

// Close ends c's record at instant at (silent: the probe rule inferred
// the end) and emits it. It returns c's own copy of the connection, the
// emitted one being the stream's, or nil when c was already closed, as
// every record is after Finish.
func (r *Recorder) Close(c *Record, at simtime.Time, silent bool) *trace.Conn {
	if c.closed {
		return nil
	}
	c.closed = true
	delete(r.open, c.conn.ID)
	c.conn.End, c.conn.SilentClose = at, silent
	r.sink.Close(c.conn.ID, at, c.conn, c.queries)
	c.queries = nil
	return &c.conn
}

// Finish right-censors the connections still open at horizon, as a real
// capture ends, in ID order so a rerun emits the same events (ingest's
// resume-by-seq relies on it). It then emits the trailer, whose Days is
// the horizon rounded up to whole days, and flushes. After it the
// recorder records nothing.
func (r *Recorder) Finish(horizon simtime.Time) {
	for _, id := range slices.Sorted(maps.Keys(r.open)) {
		r.Close(r.open[id], horizon, false)
	}
	r.done = true
	r.sink.Done(horizon, &stream.End{
		Counts:         r.counts,
		Seed:           r.cfg.Workload.Seed,
		Scale:          r.cfg.Workload.Scale,
		Days:           int((horizon + simtime.Day - 1) / simtime.Day),
		Nodes:          1,
		PongSampleRate: r.cfg.PongSampleRate,
		HitSampleRate:  r.cfg.HitSampleRate,
	})
}
