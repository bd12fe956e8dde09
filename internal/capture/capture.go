// Package capture simulates the paper's measurement deployment: a passive
// ultrapeer (the modified mutella client) holding up to 200 simultaneous
// overlay connections for 40 days, recording every message it receives.
//
// The simulation reproduces the measurement *methodology*, not just the
// data: sessions end either with an observed TCP close or by falling
// silent, in which case the node applies the paper's liveness rule — after
// 15 seconds of idleness it sends a single PING, and if nothing arrives
// for another 15 seconds it closes the connection, overestimating the
// session end by up to ~30 seconds exactly as the paper reports.
//
// Traffic has three sources:
//
//   - the synthetic peer population (internal/behavior): handshakes,
//     hop-1 queries with client automation, keepalive pings, pong
//     responses to probes;
//   - the wider network: forwarded queries (hops 2–7) on ultrapeer
//     connections, remote pongs and query hits, at per-connection rates
//     calibrated so full-scale totals land near Table 1;
//   - the node itself: probe pings (sent, therefore not part of the
//     received-message counts).
//
// The vantage records; it does not route. What it writes down is decided
// by one observation policy, the clock- and transport-agnostic Recorder
// (admission at the cap, per-type counts, hop-1 queries, the self-pong
// and sampled pong and hit records, close and censoring, the trailer),
// which cmd/gnutellad drives from real sockets (Recorder.Wire). The
// simulated vantage delivers each message as a typed Recorder call, so
// nothing the trace never sees is computed: no GUIDs, envelopes or
// reverse routes, and no text for forwarded queries.
//
// Beyond the paper's single vantage, the deployment grows the way the
// distributed-measurement literature does (Allali et al.'s distributed
// honeypots): N cooperating ultrapeer vantage points sharding the
// arrival stream, each the same Node running the same capture code, whose
// streams merge into one full-volume trace. The package defines the
// vantage (Node) and the fleet's shape and accounting (FleetConfig,
// FleetStats); internal/engine drives them.
package capture

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"time"

	"repro/internal/behavior"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/vocab"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Config parameterizes a measurement run.
type Config struct {
	// Workload configures the peer population (seed, scale, days).
	Workload workload.Config
	// MaxConns caps simultaneous connections (the paper's node held 200).
	// In a fleet the cap applies to each vantage node independently.
	MaxConns int
	// ProbeIdle is the idle time before the node sends its single probe
	// PING (15 s in the paper).
	ProbeIdle time.Duration
	// ProbeTimeout is how long the node waits for a probe response before
	// closing (another 15 s).
	ProbeTimeout time.Duration
	// ProbeRearmIdle is the idle window applied after a probe was already
	// answered, so alive-but-quiet peers are not probed every 15 seconds.
	// It bounds how late a truly silent death is detected (probe cadence
	// + 15 s timeout), so it trades pong volume against the accuracy of
	// recorded durations for silently closed sessions.
	ProbeRearmIdle time.Duration
	// PongSampleRate and HitSampleRate subsample remote pong/hit records
	// in the trace (all are counted; only a sample is stored).
	PongSampleRate float64
	HitSampleRate  float64
}

// DefaultConfig returns the paper-calibrated configuration at the given
// seed and scale.
func DefaultConfig(seed uint64, scale float64) Config {
	return Config{
		Workload:       workload.DefaultConfig(seed, scale),
		MaxConns:       200,
		ProbeIdle:      15 * time.Second,
		ProbeTimeout:   15 * time.Second,
		ProbeRearmIdle: 140 * time.Second,
		PongSampleRate: 0.1,
		HitSampleRate:  0.1,
	}
}

// The client and wider-network traffic rates.
//
// Calibration note: the real node capped concurrency at 200, which bounds
// its connection-seconds; with the paper's own session-duration
// distributions the simulated population accumulates roughly an order of
// magnitude more connection-time than that cap admits (the paper's
// Table 1 volume and Figure 5 tails are not mutually consistent). The
// rates below are therefore calibrated so the *composition* of Table 1 —
// QUERY : PING : PONG : QUERYHIT ≈ 26 : 20 : 13 : 1, with hop-1 queries
// ≈5% of QUERY — holds for a 40-day run at scales where the 200-slot cap
// is not binding (the heavy-tailed session durations take a few days to
// reach steady-state concurrency, so shorter runs see lower background
// ratios). A fleet with enough nodes that no per-node cap binds records
// the entire arrival stream (see FleetConfig).
const (
	// keepaliveMean is the mean gap between a client's own keepalive
	// PINGs.
	keepaliveMean = 168 * time.Second
	// remoteQueryEvery is the mean gap between forwarded wider-network
	// queries per ultrapeer connection.
	remoteQueryEvery = 52 * time.Second
	// remotePongEvery is the mean gap between forwarded pongs per
	// connection.
	remotePongEvery = 2000 * time.Second
	// remoteHitEvery is the mean gap between observed query hits per
	// connection.
	remoteHitEvery = 7000 * time.Second
)

// silentCloseFraction is the share of user sessions that end without an
// observed TCP close. The paper notes most clients skip the BYE message,
// but a BYE-less exit still produces a TCP FIN the node observes
// immediately; only crashes, NAT timeouts and network drops are truly
// silent and pay the ~30 s probe overestimate.
const silentCloseFraction = 0.05

// quickSilentFraction is the share of quick system disconnects that end
// silently; system-initiated disconnects are normally proper TCP closes.
const quickSilentFraction = 0.05

// byeFraction is the share of actively closed sessions that announce
// departure with a BYE message (most 2004 clients did not).
const byeFraction = 0.05

// simConn is one accepted connection. Of its session it keeps only what
// later events read: the immutable query stream, shared with the
// caller's value until the connection goes back to the pool, and the
// library size its pongs advertise. The peer's address is the record's
// own (conn.Addr, set by Recorder.Open).
//
// pending counts the connection's queued events: scheduling raises it,
// and firing, or cancelling the probe while it is still queued, lowers
// it. A closed connection with none pending is named by nothing in the
// scheduler, so it goes back to its node's pool for a later arrival to
// reuse; every event that outlives the close (the chains that stop at
// closed) has fired by then.
type simConn struct {
	Record                        // the connection's record, from acceptance to close
	v       *Node                 // nil until the connection first leaves the pool
	plan    []behavior.TimedQuery // the session's query stream
	end     simtime.Time          // client's true end (trace time)
	files   uint32                // the session's shared-file count
	id      uint32                // the connection's name in v.conns
	pending int32
	silent  bool
	probeH  simtime.Handle
	// fixed holds the connection's argument-less event records, one per
	// kind below numFixedKinds (see fixedEvent).
	fixed [numFixedKinds]fixedEvent
}

// Node is one measurement vantage, the unit internal/engine drives: its
// random stream and recorder, driven by a caller-owned scheduler and the
// arrivals its driver hands it, so its event loop can live on its own
// goroutine with its own clock. All methods must be called from that one
// goroutine (nodes share only the read-only SharedModel). Node 0's random
// stream is the historical single-node simulator's, so a one-node fleet
// reproduces the paper's deployment.
type Node struct {
	cfg     Config
	nodeIdx int
	sched   simtime.Scheduler
	rng     *rand.Rand
	shared  *SharedModel
	// rec records every delivery into the vantage's stream producer. It
	// is held by value, so it costs no allocation of its own.
	rec Recorder
	// droppedQueryEvents counts client query events that found their
	// connection already closed (diagnostic).
	droppedQueryEvents uint64
	// events recycles the argument-carrying event records (see
	// connEvent) and conns the closed connections nothing queued names
	// (see simConn); counts tallies scheduled events by kind.
	events simtime.Pool[connEvent]
	conns  simtime.Pool[simConn]
	counts EventCounts
	// recycle receives every query stream the node is done with (see
	// SetRecycle); nil drops them.
	recycle func([]behavior.TimedQuery)
	// dayKeyCount tracks how often each keyword set was queried today at
	// this vantage, the popularity proxy of the hit-response model (each
	// monitor estimates popularity from its own shard, as a real
	// distributed deployment would). key is the buffer a query's keyword
	// key is built in.
	dayKeyCount wire.KeyCounts
	dayOfCount  int
	key         []byte
}

// NewNode builds vantage idx of an N-node deployment around the given
// scheduler. The node emits every record into sink the moment it is
// final — session records at close, pong/hit records at receipt — and
// keeps none. Its random stream is salted by idx (index 0 reproduces the
// historical single-node stream exactly), so the stream depends only on
// the arrivals delivered and the order the scheduler fires them.
func NewNode(cfg Config, idx int, sched simtime.Scheduler, sh *SharedModel, sink *stream.Producer) *Node {
	salt := uint64(idx) * 0x9e3779b97f4a7c15
	rng := rand.New(rand.NewPCG(cfg.Workload.Seed, 0xca9107e^salt))
	return &Node{
		cfg:     cfg,
		nodeIdx: idx,
		sched:   sched,
		rng:     rng,
		shared:  sh,
		rec:     *NewRecorder(cfg, rng, sink),
	}
}

// SetRecycle has the node hand fn every session query stream it is done
// with: a rejected arrival's at once, and an accepted one's when its
// connection goes back to the pool, closed with no event queued. Each
// stream is handed over once, and the node reads it no more. Call it
// before the first arrival.
func (s *Node) SetRecycle(fn func([]behavior.TimedQuery)) { s.recycle = fn }

// release hands a query stream the node is done with to its recycle hook.
func (s *Node) release(qs []behavior.TimedQuery) {
	if s.recycle != nil && qs != nil {
		s.recycle(qs)
	}
}

// Arrive delivers one session arrival assigned to this vantage: the node
// accepts it subject to its MaxConns cap and schedules the session's
// message events on its scheduler. It keeps no reference to sess, so the
// caller may reuse it at once: an accepted session's query stream and
// library size are copied into its connection, and a rejected one's
// stream goes straight to the recycle hook (SetRecycle), which is all a
// rejection costs. A connection taken from the pool for the first time
// gets its fixed records; a recycled one's already name it.
func (s *Node) Arrive(now simtime.Time, sess *behavior.Session) {
	if !s.rec.Admit() {
		s.release(sess.Queries)
		return
	}
	id := s.conns.Get()
	c := s.conns.At(id)
	if c.v == nil {
		c.v, c.id = s, id
		for k := range c.fixed {
			c.fixed[k] = fixedEvent{kind: EventKind(k), c: c}
		}
	}
	c.plan, c.end, c.files = sess.Queries, sess.End(), uint32(sess.SharedFiles)
	c.probeH = simtime.Handle{}
	if sess.Quick {
		c.silent = s.rng.Float64() < quickSilentFraction
	} else {
		c.silent = s.rng.Float64() < silentCloseFraction
	}
	s.rec.Open(&c.Record, now, sess.Addr(), sess.Ultrapeer, sess.UserAgent, len(c.plan))

	// The client announces itself with a pong shortly after the
	// handshake.
	s.scheduleFixed(s.sched.Now()+300*time.Millisecond, c, KindSelfPong)

	// Schedule the client's query stream.
	for i := range sess.Queries {
		s.scheduleArg(sess.Start+sess.Queries[i].Offset, c, KindClientQuery, int64(i))
	}

	// Keepalive pings.
	s.scheduleKeepalive(c)

	// Wider-network traffic through this connection.
	s.scheduleRemote(c, KindRemotePong)
	s.scheduleRemote(c, KindRemoteHit)
	if sess.Ultrapeer {
		s.scheduleRemote(c, KindRemoteQuery)
	}

	// Session end: an observed close, or silence for the probe machinery
	// to detect.
	if !c.silent {
		s.scheduleFixed(c.end, c, KindSessionEnd)
	}
	s.rearmProbe(c, s.cfg.ProbeIdle)
}

// selfPongFire records the pong a client announces itself with. The
// client's own messages rearm the probe with the short idle window.
func (s *Node) selfPongFire(c *simConn, now simtime.Time) {
	if c.closed {
		return
	}
	s.rec.Pong(&c.Record, now, c.conn.Addr, c.files, 1)
	s.rearmProbe(c, s.cfg.ProbeIdle)
}

// clientQueryFire records and answers the client's query number i.
func (s *Node) clientQueryFire(c *simConn, i int, now simtime.Time) {
	if c.closed {
		s.droppedQueryEvents++
		return
	}
	q := &c.plan[i]
	s.scheduleResponses(c, s.rec.Query(&c.Record, now, q.Text, q.SHA1, 6), q, now)
	s.rearmProbe(c, s.cfg.ProbeIdle)
}

// scheduleKeepalive chains the client's own periodic PINGs.
func (s *Node) scheduleKeepalive(c *simConn) {
	gap := time.Duration(s.rng.ExpFloat64() * float64(keepaliveMean))
	at := s.sched.Now() + gap
	if at >= c.end {
		return
	}
	s.scheduleFixed(at, c, KindKeepalive)
}

func (s *Node) keepaliveFire(c *simConn, now simtime.Time) {
	if c.closed {
		return
	}
	// A keepalive is liveness evidence, so the probe is rearmed with
	// the long window: probing 15 s after every keepalive would
	// double the pong volume for no information.
	s.rec.Count(&c.Record, now, wire.TypePing)
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
	s.scheduleKeepalive(c)
}

// scheduleRemote chains one kind of wider-network traffic on a
// connection. Inbound forwarded traffic arrives through the peer, so it
// stops at the peer's true end — this is precisely why a silently dead
// connection goes idle and the probe machinery can detect it.
func (s *Node) scheduleRemote(c *simConn, kind EventKind) {
	var every time.Duration
	switch kind {
	case KindRemoteQuery:
		every = remoteQueryEvery
	case KindRemotePong:
		every = remotePongEvery
	case KindRemoteHit:
		every = remoteHitEvery
	}
	gap := time.Duration(s.rng.ExpFloat64() * float64(every))
	s.scheduleFixed(s.sched.Now()+gap, c, kind)
}

func (s *Node) remoteFire(c *simConn, kind EventKind, now simtime.Time) {
	if c.closed || now >= c.end {
		return
	}
	switch kind {
	case KindRemoteQuery:
		s.remoteQuery(c, now)
	case KindRemotePong:
		s.remotePong(c, now)
	case KindRemoteHit:
		s.remoteHit(c, now)
	}
	s.scheduleRemote(c, kind)
}

// remoteAddr samples an address for a wider-network peer following the
// hour's geographic mix (this is what makes the "all peers" series of
// Figure 1 track the region curves).
func (s *Node) remoteAddr(at simtime.Time) netip.Addr {
	region := s.shared.params.PickRegion(s.rng, simtime.HourOfDay(at))
	return s.shared.geoReg.Sample(region, s.rng)
}

// skipRemoteDraws advances the random stream exactly as remoteAddr then
// remoteHops would, without making the address or the hop count.
func (s *Node) skipRemoteDraws(at simtime.Time) {
	region := s.shared.params.PickRegion(s.rng, simtime.HourOfDay(at))
	s.shared.geoReg.SkipSample(region, s.rng)
	s.rng.Uint64()
}

// remoteHops draws a plausible overlay distance for forwarded traffic:
// flooding fan-out makes higher hop counts more common.
func (s *Node) remoteHops() uint8 {
	u := s.rng.Float64()
	switch {
	case u < 0.05:
		return 2
	case u < 0.15:
		return 3
	case u < 0.35:
		return 4
	case u < 0.65:
		return 5
	case u < 0.90:
		return 6
	default:
		return 7
	}
}

func (s *Node) remotePong(c *simConn, at simtime.Time) {
	addr := s.remoteAddr(at)
	hops := s.remoteHops()
	files := uint32(s.shared.params.SampleSharedFiles(s.rng))
	s.rec.Pong(&c.Record, at, addr, files, hops)
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
}

func (s *Node) remoteHit(c *simConn, at simtime.Time) {
	addr := s.remoteAddr(at)
	hops := s.remoteHops()
	s.rec.Hit(&c.Record, at, addr, hops)
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
}

// remoteQuery counts a forwarded query. Its address, hop count and text
// are never made, but their draws are, so the random stream stays the one
// the recorded traffic was calibrated on: the region pick and the address
// offset (geo.Registry.SkipSample), the one Uint64 remoteHops' Float64
// draws, and the vocabulary's two uniforms.
func (s *Node) remoteQuery(c *simConn, at simtime.Time) {
	s.skipRemoteDraws(at)
	vocab.SkipSample(s.rng)
	s.rec.Count(&c.Record, at, wire.TypeQuery)
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
}

// scheduleResponses models the wider network answering a direct peer's
// query: QUERYHIT messages routed back through the node over the next few
// seconds. The hit count follows the query's popularity — each repetition
// of a keyword set observed on the same day raises the expected number of
// sources — so the hit-rate extension analysis can recover the
// hit-rate/popularity correlation. Responses are received messages and
// count toward Table 1's QUERYHIT row.
func (s *Node) scheduleResponses(c *simConn, queryIdx int, q *behavior.TimedQuery, at simtime.Time) {
	if q.SHA1 {
		// Source hunts answer rarely; the sources are already known.
		if s.rng.Float64() > 0.10 {
			return
		}
	}
	if s.key = wire.AppendKeywordKey(s.key[:0], q.Text); len(s.key) == 0 {
		return
	}
	// Reset the popularity proxy at day boundaries (hot sets drift).
	if day := simtime.DayIndex(at); day != s.dayOfCount {
		s.dayOfCount = day
		s.dayKeyCount.Reset()
	}
	reps := float64(s.dayKeyCount.Add(s.key))

	// P(no hit) shrinks and the expected source count grows with the
	// day's repetition count of the keyword set.
	pMiss := 0.60 / (1 + 0.20*math.Log2(1+reps))
	if s.rng.Float64() < pMiss {
		return
	}
	mean := 0.30 + 0.22*math.Log2(1+reps)
	n := 1 + int(s.rng.ExpFloat64()*mean)
	if n > 15 {
		n = 15
	}
	for i := 0; i < n; i++ {
		delay := 500*time.Millisecond + time.Duration(s.rng.Float64()*float64(8*time.Second))
		s.scheduleArg(s.sched.Now()+delay, c, KindResponseHit, int64(queryIdx))
	}
}

// responseHitFire delivers one routed-back QUERYHIT for the connection's
// query record queryIdx.
func (s *Node) responseHitFire(c *simConn, queryIdx int, now simtime.Time) {
	if c.closed || now >= c.end {
		return
	}
	addr := s.remoteAddr(now)
	hops := s.remoteHops()
	// The query record is still in flight (its session has not closed —
	// checked above), so the hit counter can be bumped in place.
	c.queries[queryIdx].Hits++
	s.rec.Hit(&c.Record, now, addr, hops)
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
}

// rearmProbe (re)schedules the idle probe at now+idle. The handle it
// cancels has usually fired already (every delivered message rearms);
// simtime guarantees that is a no-op.
func (s *Node) rearmProbe(c *simConn, idle time.Duration) {
	if c.closed {
		return
	}
	s.cancelProbe(c)
	c.probeH = s.scheduleFixed(s.sched.Now()+idle, c, KindProbe)
}

// cancelProbe cancels the connection's probe, counting it off the
// connection's pending events when it was still queued.
func (s *Node) cancelProbe(c *simConn) {
	if !c.probeH.Cancelled() {
		c.pending--
	}
	s.sched.Cancel(c.probeH)
}

// probeFire implements the paper's liveness rule.
func (s *Node) probeFire(c *simConn, now simtime.Time) {
	if c.closed {
		return
	}
	// The probe PING is sent, not received: nothing to record.
	if now < c.end {
		// Client is alive: it answers with a pong after a network RTT.
		// If it dies right after the probe, the deadline below still
		// closes the connection.
		rtt := 100*time.Millisecond + time.Duration(s.rng.Float64()*float64(300*time.Millisecond))
		s.scheduleFixed(s.sched.Now()+rtt, c, KindProbeReply)
	}
	s.scheduleArg(now+s.cfg.ProbeTimeout, c, KindProbeDeadline, int64(now))
}

func (s *Node) probeReplyFire(c *simConn, now simtime.Time) {
	if c.closed || now >= c.end {
		return // died between probe and response
	}
	// The reply is the client's own hop-1 pong.
	s.rec.Pong(&c.Record, now, c.conn.Addr, c.files, 1)
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
}

// probeDeadlineFire closes the connection unless something arrived since
// the probe sent at probedAt.
func (s *Node) probeDeadlineFire(c *simConn, probedAt, now simtime.Time) {
	if c.closed || c.lastRecv >= probedAt {
		return
	}
	s.finalize(c, now, true)
}

func (s *Node) sessionEndFire(c *simConn, now simtime.Time) {
	if c.closed {
		return
	}
	if s.rng.Float64() < byeFraction {
		s.rec.Count(&c.Record, now, wire.TypeBye)
	}
	s.finalize(c, now, false)
}

// finalize closes a connection: it cancels the probe and has the
// recorder emit the record. The record is final: no response event bumps
// a hit counter after close (they check closed first).
func (s *Node) finalize(c *simConn, end simtime.Time, silent bool) {
	s.cancelProbe(c)
	s.rec.Close(&c.Record, end, silent)
}
