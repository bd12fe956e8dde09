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
//   - the node itself: probe pings and pong replies (sent, therefore not
//     part of the received-message counts).
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
	"repro/internal/geo"
	"repro/internal/guid"
	"repro/internal/model"
	"repro/internal/overlay"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
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

type simConn struct {
	id       int
	v        *vantage
	sess     *behavior.Session
	end      simtime.Time // client's true end (trace time)
	silent   bool
	lastRecv simtime.Time
	probeH   simtime.Handle
	probed   bool
	closed   bool
	// pongSeen marks that the connection's hop-1 self-pong was recorded.
	pongSeen bool
	// fixed holds the connection's argument-less event records, one per
	// kind below numFixedKinds (see connEvent).
	fixed [numFixedKinds]connEvent
	// rec and queries accumulate the connection's record until it closes,
	// when the vantage emits it into its sink and releases it.
	rec     trace.Conn
	queries []trace.Query
}

// vantage is one measurement node of a fleet: its own overlay node,
// connection slots, random streams and output stream, driven by its own
// scheduler and the arrivals its driver hands it. The zero-indexed
// node's random streams coincide with the historical single-node
// simulator, so a one-node fleet reproduces the paper's deployment.
type vantage struct {
	cfg     Config
	nodeIdx int
	sched   simtime.Scheduler
	node    *overlay.Node
	rng     *rand.Rand
	guids   *guid.Source
	params  *model.Params
	geoReg  *geo.Registry
	vocab   *vocab.Vocabulary
	// received tallies every received message by type: the aggregate
	// counters the stream trailer carries.
	received trace.MessageCounts
	conns    map[int]*simConn
	nextID   int
	// peak tracks the maximum simultaneous connection count, the
	// cap-sizing diagnostic of FleetStats.
	peak int
	// rejected counts arrivals refused because all MaxConns slots were
	// busy.
	rejected uint64
	// droppedQueryEvents counts client query events that found their
	// connection already closed (diagnostic).
	droppedQueryEvents uint64
	// cur is the connection whose message is being delivered — what the
	// record tap, which the overlay node calls with a bare connection id,
	// attributes the message to.
	cur *simConn
	// freeEvents recycles the argument-carrying event records (see
	// connEvent); counts tallies scheduled events by kind.
	freeEvents []*connEvent
	counts     EventCounts
	// Scratch payloads, overwritten by every delivery: overlay.Node.Receive
	// and the record tap copy what they keep (see overlay.Config.OnMessage).
	pong      wire.Pong
	query     wire.Query
	hit       wire.QueryHit
	hitResult [1]wire.HitResult
	// sink receives every record the moment it is final — session records
	// at close, pong/hit records at receipt — and, at the end of the run,
	// the trailer with the aggregate counters.
	sink *stream.Producer
	// dayKeyCount tracks how often each keyword set was queried today at
	// this vantage, the popularity proxy of the hit-response model (each
	// monitor estimates popularity from its own shard, as a real
	// distributed deployment would).
	dayKeyCount map[string]int
	dayOfCount  int
}

// newVantage builds node idx of a fleet deployment around the given
// scheduler. Per-node random streams are salted by the node index; index
// 0 reproduces the historical single-node streams exactly.
func newVantage(cfg Config, idx int, sched simtime.Scheduler, sh *SharedModel, sink *stream.Producer) *vantage {
	salt := uint64(idx) * 0x9e3779b97f4a7c15
	s := &vantage{
		cfg:         cfg,
		nodeIdx:     idx,
		sched:       sched,
		rng:         rand.New(rand.NewPCG(cfg.Workload.Seed, 0xca9107e^salt)),
		guids:       guid.NewSource(cfg.Workload.Seed, 0x600d^salt),
		params:      sh.params,
		geoReg:      sh.geoReg,
		vocab:       sh.vocab,
		conns:       make(map[int]*simConn),
		sink:        sink,
		dayKeyCount: make(map[string]int),
	}
	s.node = overlay.New(overlay.Config{
		Self:      s.guids.Next(),
		Ultrapeer: true,
		// University of Dortmund space; each fleet node gets its own host
		// address.
		Addr:      netip.AddrFrom4([4]byte{129, 217, 0, byte(1 + idx%254)}),
		Port:      6346,
		Now:       func() time.Duration { return s.sched.Now() },
		Send:      func(int, wire.Envelope) {}, // passive: forwards vanish into the ether
		OnMessage: s.record,
		GUIDs:     s.guids,
		Rand:      func() float64 { return s.rng.Float64() },
		// Forwarding to the no-op Send would cost O(connections) per
		// received query — quadratic in scale — for zero recorded effect.
		Passive: true,
	})
	return s
}

// arrive handles one session arrival assigned to this vantage.
func (s *vantage) arrive(now simtime.Time, sess *behavior.Session) {
	if s.node.ConnCount() >= s.cfg.MaxConns {
		s.rejected++
		return
	}
	id := s.nextID
	s.nextID++
	c := &simConn{
		id:       id,
		v:        s,
		sess:     sess,
		end:      sess.End(),
		lastRecv: now,
	}
	for k := range c.fixed {
		c.fixed[k] = connEvent{kind: EventKind(k), c: c}
	}
	if sess.Quick {
		c.silent = s.rng.Float64() < quickSilentFraction
	} else {
		c.silent = s.rng.Float64() < silentCloseFraction
	}
	s.conns[id] = c
	c.rec = trace.Conn{
		ID:        uint64(id),
		Start:     now,
		Addr:      sess.Addr(),
		Ultrapeer: sess.Ultrapeer,
		UserAgent: sess.UserAgent,
	}
	s.sink.Open(uint64(id), now)
	s.node.AddConn(id, sess.Ultrapeer)
	if cc := s.node.ConnCount(); cc > s.peak {
		s.peak = cc
	}

	// The client announces itself with a pong shortly after the
	// handshake.
	s.after(300*time.Millisecond, &c.fixed[KindSelfPong])

	// Schedule the client's query stream.
	for i := range sess.Queries {
		s.schedule(sess.Start+sess.Queries[i].Offset, s.event(KindClientQuery, c, int64(i)))
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
		s.schedule(c.end, &c.fixed[KindSessionEnd])
	}
	s.rearmProbe(c, s.cfg.ProbeIdle)
}

// clientMessage delivers a client-initiated message and rearms the probe
// with the short idle window.
func (s *vantage) clientMessage(c *simConn, at simtime.Time, env wire.Envelope) {
	if c.closed {
		if env.Header.Type == wire.TypeQuery {
			s.droppedQueryEvents++
		}
		return
	}
	s.deliver(c, at, env)
	s.rearmProbe(c, s.cfg.ProbeIdle)
}

// deliver hands a message to the node (which records it via the OnMessage
// tap) and updates idle bookkeeping.
func (s *vantage) deliver(c *simConn, at simtime.Time, env wire.Envelope) {
	c.lastRecv = at
	c.probed = false
	s.cur = c
	s.node.Receive(c.id, env)
}

func (s *vantage) selfPong(c *simConn) wire.Envelope {
	s.pong = wire.Pong{
		Port:        6346,
		Addr:        c.sess.Addr(),
		SharedFiles: uint32(c.sess.SharedFiles),
	}
	return wire.Envelope{
		Header:  wire.Header{GUID: s.guids.Next(), Type: wire.TypePong, TTL: 1, Hops: 1},
		Payload: &s.pong,
	}
}

// sha1Extension is the extension block of every source-hunt query; shared
// and never written.
var sha1Extension = []string{"urn:sha1:PLSTHIPQGSSZTS5FJUPAKUZWUGYQYPFB"}

func (s *vantage) queryEnvelope(q *behavior.TimedQuery) wire.Envelope {
	s.query = wire.Query{SearchText: q.Text}
	if q.SHA1 {
		s.query.Extensions = sha1Extension
	}
	return wire.Envelope{
		Header:  wire.Header{GUID: s.guids.Next(), Type: wire.TypeQuery, TTL: 6, Hops: 1},
		Payload: &s.query,
	}
}

// scheduleKeepalive chains the client's own periodic PINGs.
func (s *vantage) scheduleKeepalive(c *simConn) {
	gap := time.Duration(s.rng.ExpFloat64() * float64(keepaliveMean))
	at := s.sched.Now() + gap
	if at >= c.end {
		return
	}
	s.schedule(at, &c.fixed[KindKeepalive])
}

func (s *vantage) keepaliveFire(c *simConn, now simtime.Time) {
	if c.closed {
		return
	}
	// A keepalive is liveness evidence, so the probe is rearmed with
	// the long window: probing 15 s after every keepalive would
	// double the pong volume for no information.
	s.deliver(c, now, wire.Envelope{
		Header:  wire.Header{GUID: s.guids.Next(), Type: wire.TypePing, TTL: 1, Hops: 1},
		Payload: &wire.Ping{},
	})
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
	s.scheduleKeepalive(c)
}

// scheduleRemote chains one kind of wider-network traffic on a
// connection. Inbound forwarded traffic arrives through the peer, so it
// stops at the peer's true end — this is precisely why a silently dead
// connection goes idle and the probe machinery can detect it.
func (s *vantage) scheduleRemote(c *simConn, kind EventKind) {
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
	s.after(gap, &c.fixed[kind])
}

func (s *vantage) remoteFire(c *simConn, kind EventKind, now simtime.Time) {
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

// remoteRegionAddr samples an address for a wider-network peer following
// the hour's geographic mix (this is what makes the "all peers" series of
// Figure 1 track the region curves).
func (s *vantage) remoteRegionAddr(at simtime.Time) (geo.Region, [4]byte) {
	region := s.params.PickRegion(s.rng, simtime.HourOfDay(at))
	addr := s.geoReg.Sample(region, s.rng)
	return region, addr.As4()
}

// remoteHops draws a plausible overlay distance for forwarded traffic:
// flooding fan-out makes higher hop counts more common.
func (s *vantage) remoteHops() uint8 {
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

func (s *vantage) remotePong(c *simConn, at simtime.Time) {
	_, a4 := s.remoteRegionAddr(at)
	hops := s.remoteHops()
	g := s.guids.Next()
	s.pong = wire.Pong{
		Port:        6346,
		Addr:        netip.AddrFrom4(a4),
		SharedFiles: uint32(s.params.SampleSharedFiles(s.rng)),
	}
	s.deliver(c, at, wire.Envelope{
		Header:  wire.Header{GUID: g, Type: wire.TypePong, TTL: 7 - hops, Hops: hops},
		Payload: &s.pong,
	})
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
}

// hitEnvelope fills the scratch QUERYHIT with one result and wraps it.
// The header GUID is drawn before the servent GUID.
func (s *vantage) hitEnvelope(a4 [4]byte, hops uint8, res wire.HitResult) wire.Envelope {
	g := s.guids.Next()
	s.hitResult[0] = res
	s.hit = wire.QueryHit{
		Port:    6346,
		Addr:    netip.AddrFrom4(a4),
		Speed:   350,
		Results: s.hitResult[:],
		Servent: s.guids.Next(),
	}
	return wire.Envelope{
		Header:  wire.Header{GUID: g, Type: wire.TypeQueryHit, TTL: 7 - hops, Hops: hops},
		Payload: &s.hit,
	}
}

func (s *vantage) remoteHit(c *simConn, at simtime.Time) {
	_, a4 := s.remoteRegionAddr(at)
	hops := s.remoteHops()
	s.deliver(c, at, s.hitEnvelope(a4, hops, wire.HitResult{FileIndex: 1, FileSize: 3800, FileName: "remote.mp3"}))
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
}

func (s *vantage) remoteQuery(c *simConn, at simtime.Time) {
	region, _ := s.remoteRegionAddr(at)
	day := simtime.DayIndex(at)
	if day >= s.cfg.Workload.Days {
		day = s.cfg.Workload.Days - 1
	}
	hops := s.remoteHops()
	g := s.guids.Next()
	s.query = wire.Query{SearchText: s.vocab.Sample(s.rng, region, day)}
	s.deliver(c, at, wire.Envelope{
		Header:  wire.Header{GUID: g, Type: wire.TypeQuery, TTL: 7 - hops, Hops: hops},
		Payload: &s.query,
	})
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
}

// scheduleResponses models the wider network answering a direct peer's
// query: QUERYHIT messages routed back through the node over the next few
// seconds. The hit count follows the query's popularity — each repetition
// of a keyword set observed on the same day raises the expected number of
// sources — so the hit-rate extension analysis can recover the
// hit-rate/popularity correlation. Responses are received messages and
// count toward Table 1's QUERYHIT row.
func (s *vantage) scheduleResponses(c *simConn, queryIdx int, q *wire.Query, at simtime.Time) {
	if q.HasSHA1() {
		// Source hunts answer rarely; the sources are already known.
		if s.rng.Float64() > 0.10 {
			return
		}
	}
	key := wire.KeywordKey(q.SearchText)
	if key == "" {
		return
	}
	// Reset the popularity proxy at day boundaries (hot sets drift).
	if day := simtime.DayIndex(at); day != s.dayOfCount {
		s.dayOfCount = day
		s.dayKeyCount = make(map[string]int)
	}
	s.dayKeyCount[key]++
	reps := float64(s.dayKeyCount[key])

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
		s.after(delay, s.event(KindResponseHit, c, int64(queryIdx)))
	}
}

// responseHitFire delivers one routed-back QUERYHIT for the connection's
// query record queryIdx.
func (s *vantage) responseHitFire(c *simConn, queryIdx int, now simtime.Time) {
	if c.closed || now >= c.end {
		return
	}
	_, a4 := s.remoteRegionAddr(now)
	hops := s.remoteHops()
	// The query record is still in flight (its session has not closed —
	// checked above), so the hit counter can be bumped in place; the
	// record is also where the query's text is kept.
	q := &c.queries[queryIdx]
	q.Hits++
	s.deliver(c, now, s.hitEnvelope(a4, hops, wire.HitResult{FileIndex: 1, FileSize: 3700, FileName: q.Text + ".mp3"}))
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
}

// rearmProbe (re)schedules the idle probe at now+idle. The handle it
// cancels has usually fired already (every delivered message rearms);
// simtime guarantees that is a no-op.
func (s *vantage) rearmProbe(c *simConn, idle time.Duration) {
	if c.closed {
		return
	}
	s.sched.Cancel(c.probeH)
	c.probeH = s.after(idle, &c.fixed[KindProbe])
}

// probeFire implements the paper's liveness rule.
func (s *vantage) probeFire(c *simConn, now simtime.Time) {
	if c.closed {
		return
	}
	c.probed = true
	s.node.Probe(c.id) // sent by the node; not a received message
	if now < c.end {
		// Client is alive: it answers with a pong after a network RTT.
		// If it dies right after the probe, the deadline below still
		// closes the connection.
		rtt := 100*time.Millisecond + time.Duration(s.rng.Float64()*float64(300*time.Millisecond))
		s.after(rtt, &c.fixed[KindProbeReply])
	}
	s.schedule(now+s.cfg.ProbeTimeout, s.event(KindProbeDeadline, c, int64(now)))
}

func (s *vantage) probeReplyFire(c *simConn, now simtime.Time) {
	if c.closed || now >= c.end {
		return // died between probe and response
	}
	s.deliver(c, now, s.selfPong(c))
	s.rearmProbe(c, s.cfg.ProbeRearmIdle)
}

// probeDeadlineFire closes the connection unless something arrived since
// the probe sent at probedAt.
func (s *vantage) probeDeadlineFire(c *simConn, probedAt, now simtime.Time) {
	if c.closed || c.lastRecv >= probedAt {
		return
	}
	s.finalize(c, now, true)
}

func (s *vantage) sessionEndFire(c *simConn, now simtime.Time) {
	if c.closed {
		return
	}
	if s.rng.Float64() < byeFraction {
		s.deliver(c, now, wire.NewEnvelope(s.guids.Next(), 1, &wire.Bye{Code: 200, Reason: "bye"}))
	}
	s.finalize(c, now, false)
}

// finalize closes a connection, then emits and releases its record. The
// record is final: no response event bumps a hit counter after close
// (they check closed first).
func (s *vantage) finalize(c *simConn, end simtime.Time, silent bool) {
	if c.closed {
		return
	}
	c.closed = true
	s.sched.Cancel(c.probeH)
	s.node.RemoveConn(c.id)
	delete(s.conns, c.id)
	c.rec.End = end
	c.rec.SilentClose = silent
	s.sink.Close(uint64(c.id), end, &stream.SessionRecord{Conn: c.rec, Queries: c.queries})
	c.queries = nil
}

// record is the node's OnMessage tap: it observes every received message
// exactly as the modified mutella logged its traffic. The payload is one
// of the vantage's scratch values, so only copies of its fields are kept.
func (s *vantage) record(conn int, env wire.Envelope) {
	at := s.sched.Now()
	c := s.cur
	switch m := env.Payload.(type) {
	case *wire.Ping:
		s.received.Ping++
	case *wire.Bye:
		s.received.Bye++
	case *wire.Push:
		s.received.Push++
	case *wire.Query:
		s.received.Query++
		if env.Header.Hops == 1 {
			s.received.QueryHop1++
			q := trace.Query{
				ConnID: uint64(conn),
				At:     at,
				Text:   m.SearchText,
				SHA1:   m.HasSHA1(),
				TTL:    env.Header.TTL,
				Hops:   env.Header.Hops,
			}
			c.queries = append(c.queries, q)
			s.scheduleResponses(c, len(c.queries)-1, m, at)
		}
	case *wire.Pong:
		s.received.Pong++
		if env.Header.Hops == 1 {
			// Record the first self-pong per connection; repeats carry
			// no new information (same peer, same library).
			if !c.pongSeen {
				c.pongSeen = true
				s.sink.Pong(trace.Pong{At: at, Addr: m.Addr, SharedFiles: m.SharedFiles, Hops: 1})
			}
		} else if s.rng.Float64() < s.cfg.PongSampleRate {
			s.sink.Pong(trace.Pong{At: at, Addr: m.Addr, SharedFiles: m.SharedFiles, Hops: env.Header.Hops})
		}
	case *wire.QueryHit:
		s.received.QueryHit++
		if s.rng.Float64() < s.cfg.HitSampleRate {
			s.sink.Hit(trace.Hit{At: at, Addr: m.Addr, Hops: env.Header.Hops})
		}
	}
}
