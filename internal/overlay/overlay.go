// Package overlay implements a Gnutella servent's message-routing engine:
// duplicate suppression and TTL handling for flooded QUERY/PING messages,
// GUID-based reverse routing for QUERYHIT and PONG responses with the
// specification's 10-minute route expiry, pong caching, leaf/ultrapeer
// forwarding rules, and local query matching against a shared-file
// library.
//
// The engine is transport-agnostic and clock-agnostic: the embedder
// supplies a Send callback and a Now function, which lets the same code
// run under the discrete-event simulator (internal/capture), over real
// TCP connections (internal/transport, cmd/gnutellad), and inside the
// search-protocol evaluation example.
package overlay

import (
	"net/netip"
	"strings"
	"time"

	"repro/internal/guid"
	"repro/internal/wire"
)

// SharedFile is one entry of a node's shared library.
type SharedFile struct {
	Index  uint32
	Name   string
	SizeKB uint32
}

// Config parameterizes a Node.
type Config struct {
	// Self is the node's servent GUID.
	Self guid.GUID
	// Ultrapeer selects ultrapeer mode (the measurement node runs as one).
	Ultrapeer bool
	// Addr and Port identify the node in generated PONG/QUERYHIT payloads.
	Addr netip.Addr
	Port uint16
	// Library is the node's shared-file list; queries matching it produce
	// QUERYHIT responses.
	Library []SharedFile
	// RouteTTL is how long reverse routes live; the specification
	// suggests 10 minutes, which is the default when zero.
	RouteTTL time.Duration
	// LeafForwardProb approximates query-routing-protocol behavior: the
	// probability that a query is forwarded to a given leaf connection
	// ("only ... to the leaf nodes that have a high probability of
	// responding"). Defaults to 0.05.
	LeafForwardProb float64
	// Passive disables query forwarding entirely. The measurement
	// simulator uses it: its Send callback discards everything anyway,
	// and iterating a few hundred connections per received query turns
	// the simulation quadratic in scale. Reverse routes, duplicate
	// suppression and local hit serving still work. PING replies are
	// counted (Stats.PongsSent) but not built or sent.
	Passive bool
	// Now supplies the node's clock (simulated, or monotonic wall time
	// since start). It must never run backward: route expiry relies on
	// insertion order being time order.
	Now func() time.Duration
	// Send delivers an envelope to a connection. Required. The payload is
	// the callee's to keep: the node never sends one that aliases a
	// received message (forwards are cloned) and holds no reference to
	// what it sent, so a transport may retain it past the call.
	Send func(conn int, env wire.Envelope)
	// OnMessage, when set, observes every received message before
	// processing (the measurement tap). The payload is on loan from
	// Receive's caller, who may overwrite it as soon as Receive returns
	// (a parser's buffer, the simulator's per-vantage scratch values):
	// copy whatever must outlive the call — field values, never the
	// payload pointer or a slice inside it.
	OnMessage func(conn int, env wire.Envelope)
	// OnQueryHit, when set, receives hits for queries this node
	// originated.
	OnQueryHit func(env wire.Envelope, hit *wire.QueryHit)
	// GUIDs generates identifiers for originated messages. Required for
	// Originate and pong generation.
	GUIDs *guid.Source
	// Rand supplies the [0,1) variates used for probabilistic leaf
	// forwarding. Defaults to a small deterministic LCG when nil.
	Rand func() float64
}

// Stats counts the node's routing activity.
type Stats struct {
	Received       wire.MessageCountsByType
	ForwardedPing  uint64
	ForwardedQry   uint64
	RoutedPong     uint64
	RoutedHit      uint64
	DroppedDup     uint64
	DroppedTTL     uint64
	DroppedNoRoute uint64
	HitsServed     uint64
	PongsSent      uint64
}

type connState struct {
	ultrapeer bool
}

type route struct {
	conn int
	at   time.Duration
}

// stamp records one insertion into routes (origin false) or origin
// (origin true) for maybeSweep's expiry queue.
type stamp struct {
	g      guid.GUID
	at     time.Duration
	origin bool
}

// Node is the routing engine. It is not safe for concurrent use: the
// simulator is single-threaded, and the TCP embedding serializes access.
type Node struct {
	cfg    Config
	conns  map[int]*connState
	routes map[guid.GUID]route
	// origin tracks GUIDs of messages this node originated, so returning
	// responses are delivered locally instead of forwarded.
	origin map[guid.GUID]time.Duration
	// pongCache holds recently seen pongs for ping replies.
	pongCache []wire.Pong
	pongNext  int
	// library index: file index → lower-cased name keywords.
	libKeywords [][]string
	stats       Stats
	lcg         uint64
	lastSweep   time.Duration
	// expiry lists every routes/origin insertion in insertion order,
	// which is time order; see maybeSweep.
	expiry []stamp
}

// New builds a node.
func New(cfg Config) *Node {
	if cfg.Send == nil {
		panic("overlay: Config.Send is required")
	}
	if cfg.Now == nil {
		panic("overlay: Config.Now is required")
	}
	if cfg.RouteTTL == 0 {
		cfg.RouteTTL = 10 * time.Minute
	}
	if cfg.LeafForwardProb == 0 {
		cfg.LeafForwardProb = 0.05
	}
	n := &Node{
		cfg:       cfg,
		conns:     make(map[int]*connState),
		routes:    make(map[guid.GUID]route),
		origin:    make(map[guid.GUID]time.Duration),
		pongCache: make([]wire.Pong, 0, 8),
		lcg:       uint64(cfg.Self[0])<<8 | uint64(cfg.Self[1]) | 0x1,
	}
	for _, f := range cfg.Library {
		n.libKeywords = append(n.libKeywords, strings.Fields(strings.ToLower(f.Name)))
	}
	return n
}

// Stats returns a copy of the node's counters.
func (n *Node) Stats() Stats { return n.stats }

// ConnCount returns the number of attached connections.
func (n *Node) ConnCount() int { return len(n.conns) }

// HasConn reports whether the connection is attached.
func (n *Node) HasConn(id int) bool {
	_, ok := n.conns[id]
	return ok
}

// AddConn attaches a connection after its handshake completes.
func (n *Node) AddConn(id int, ultrapeer bool) {
	n.conns[id] = &connState{ultrapeer: ultrapeer}
}

// RemoveConn detaches a closed connection. Routes through it expire
// lazily.
func (n *Node) RemoveConn(id int) {
	delete(n.conns, id)
}

func (n *Node) rand() float64 {
	if n.cfg.Rand != nil {
		return n.cfg.Rand()
	}
	// xorshift64*, deterministic per node.
	x := n.lcg
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	n.lcg = x
	return float64(x*0x2545F4914F6CDD1D>>11) / float64(1<<53)
}

// Receive processes one message arriving on a connection. The envelope's
// payload may alias a parser; the node copies whatever it retains.
func (n *Node) Receive(conn int, env wire.Envelope) {
	if n.cfg.OnMessage != nil {
		n.cfg.OnMessage(conn, env)
	}
	n.stats.Received.Add(env.Header.Type)
	n.maybeSweep()

	switch m := env.Payload.(type) {
	case *wire.Ping:
		n.handlePing(conn, env)
	case *wire.Pong:
		n.handlePong(conn, env, m)
	case *wire.Query:
		n.handleQuery(conn, env, m)
	case *wire.QueryHit:
		n.handleQueryHit(conn, env, m)
	case *wire.Bye:
		// The peer announced departure; the embedder tears the
		// connection down when the transport closes.
	case *wire.Push:
		// PUSH routing by servent GUID is out of scope for the
		// measurement study; counted and dropped.
	}
}

func (n *Node) handlePing(conn int, env wire.Envelope) {
	// Remember the reverse route so PONGs can flow back.
	n.setRoute(env.Header.GUID, conn)
	if n.cfg.Passive {
		// The replies below would be built only for Send to drop them;
		// count them as sent and skip the work.
		n.stats.PongsSent += 1 + uint64(min(len(n.pongCache), 3))
		return
	}
	// Reply with our own pong...
	pong := &wire.Pong{
		Port:        n.cfg.Port,
		Addr:        n.cfg.Addr,
		SharedFiles: uint32(len(n.cfg.Library)),
	}
	n.send(conn, wire.Envelope{
		Header:  wire.Header{GUID: env.Header.GUID, Type: wire.TypePong, TTL: env.Header.Hops + 1},
		Payload: pong,
	})
	n.stats.PongsSent++
	// ...plus a few cached pongs, the modern replacement for ping
	// flooding.
	for i := 0; i < len(n.pongCache) && i < 3; i++ {
		p := n.pongCache[i]
		n.send(conn, wire.Envelope{
			Header:  wire.Header{GUID: env.Header.GUID, Type: wire.TypePong, TTL: env.Header.Hops + 1, Hops: 1},
			Payload: &p,
		})
		n.stats.PongsSent++
	}
}

func (n *Node) handlePong(conn int, env wire.Envelope, m *wire.Pong) {
	// Cache for future ping replies.
	cp := *m
	if len(n.pongCache) < cap(n.pongCache) {
		n.pongCache = append(n.pongCache, cp)
	} else {
		n.pongCache[n.pongNext] = cp
		n.pongNext = (n.pongNext + 1) % cap(n.pongCache)
	}
	// Route toward the ping's origin.
	if _, ours := n.origin[env.Header.GUID]; ours {
		return // response to our own ping
	}
	r, ok := n.lookupRoute(env.Header.GUID)
	if !ok || r.conn == conn {
		n.stats.DroppedNoRoute++
		return
	}
	if fwd, ok := env.Forwarded(); ok {
		n.send(r.conn, wire.Clone(fwd))
		n.stats.RoutedPong++
	} else {
		n.stats.DroppedTTL++
	}
}

func (n *Node) handleQuery(conn int, env wire.Envelope, m *wire.Query) {
	// Duplicate suppression by GUID.
	if _, dup := n.routes[env.Header.GUID]; dup {
		n.stats.DroppedDup++
		return
	}
	if _, ours := n.origin[env.Header.GUID]; ours {
		n.stats.DroppedDup++
		return
	}
	n.setRoute(env.Header.GUID, conn)

	// Serve hits from the local library.
	if hits := n.match(m); len(hits) > 0 {
		qh := &wire.QueryHit{
			Port:    n.cfg.Port,
			Addr:    n.cfg.Addr,
			Speed:   1000,
			Results: hits,
			Servent: n.cfg.Self,
		}
		n.send(conn, wire.Envelope{
			Header:  wire.Header{GUID: env.Header.GUID, Type: wire.TypeQueryHit, TTL: env.Header.Hops + 1},
			Payload: qh,
		})
		n.stats.HitsServed++
	}

	// Flood onward.
	if n.cfg.Passive {
		return
	}
	fwd, ok := env.Forwarded()
	if !ok {
		n.stats.DroppedTTL++
		return
	}
	fwd = wire.Clone(fwd)
	for id, st := range n.conns {
		if id == conn {
			continue
		}
		// Ultrapeers receive every query; leaves only those likely to
		// match (QRP approximation).
		if !st.ultrapeer && n.rand() >= n.cfg.LeafForwardProb {
			continue
		}
		n.send(id, fwd)
		n.stats.ForwardedQry++
	}
}

func (n *Node) handleQueryHit(conn int, env wire.Envelope, m *wire.QueryHit) {
	if _, ours := n.origin[env.Header.GUID]; ours {
		if n.cfg.OnQueryHit != nil {
			cp := wire.Clone(env)
			n.cfg.OnQueryHit(cp, cp.Payload.(*wire.QueryHit))
		}
		return
	}
	r, ok := n.lookupRoute(env.Header.GUID)
	if !ok || r.conn == conn {
		n.stats.DroppedNoRoute++
		return
	}
	if fwd, ok := env.Forwarded(); ok {
		n.send(r.conn, wire.Clone(fwd))
		n.stats.RoutedHit++
	} else {
		n.stats.DroppedTTL++
	}
}

// match returns library entries containing every query keyword.
func (n *Node) match(q *wire.Query) []wire.HitResult {
	if len(n.libKeywords) == 0 || q.SearchText == "" {
		return nil
	}
	want := strings.Fields(strings.ToLower(q.SearchText))
	if len(want) == 0 {
		return nil
	}
	var out []wire.HitResult
	for i, kws := range n.libKeywords {
		if containsAll(kws, want) {
			f := n.cfg.Library[i]
			out = append(out, wire.HitResult{FileIndex: f.Index, FileSize: f.SizeKB, FileName: f.Name})
			if len(out) == 64 {
				break
			}
		}
	}
	return out
}

func containsAll(have, want []string) bool {
	for _, w := range want {
		found := false
		for _, h := range have {
			if h == w {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Originate floods a message from this node to every connection and
// registers its GUID so responses are delivered to the local callbacks.
// It returns the message GUID.
func (n *Node) Originate(m wire.Message, ttl uint8) guid.GUID {
	if n.cfg.GUIDs == nil {
		panic("overlay: Originate requires Config.GUIDs")
	}
	g := n.cfg.GUIDs.Next()
	n.setOrigin(g)
	env := wire.Envelope{
		Header:  wire.Header{GUID: g, Type: m.Type(), TTL: ttl, Hops: 1},
		Payload: m,
	}
	for id := range n.conns {
		n.send(id, env)
		if m.Type() == wire.TypeQuery {
			n.stats.ForwardedQry++
		} else if m.Type() == wire.TypePing {
			n.stats.ForwardedPing++
		}
	}
	return g
}

// Probe sends a single PING on one connection — the measurement node's
// idle-liveness check.
func (n *Node) Probe(conn int) guid.GUID {
	if n.cfg.GUIDs == nil {
		panic("overlay: Probe requires Config.GUIDs")
	}
	g := n.cfg.GUIDs.Next()
	n.setOrigin(g)
	n.send(conn, wire.Envelope{
		Header:  wire.Header{GUID: g, Type: wire.TypePing, TTL: 1, Hops: 0},
		Payload: &wire.Ping{},
	})
	return g
}

func (n *Node) send(conn int, env wire.Envelope) {
	if _, ok := n.conns[conn]; !ok {
		return
	}
	n.cfg.Send(conn, env)
}

// setRoute records a reverse route through conn and queues it for expiry.
func (n *Node) setRoute(g guid.GUID, conn int) {
	now := n.cfg.Now()
	n.routes[g] = route{conn: conn, at: now}
	n.expiry = append(n.expiry, stamp{g: g, at: now})
}

// setOrigin marks g as originated here and queues it for expiry.
func (n *Node) setOrigin(g guid.GUID) {
	now := n.cfg.Now()
	n.origin[g] = now
	n.expiry = append(n.expiry, stamp{g: g, at: now, origin: true})
}

func (n *Node) lookupRoute(g guid.GUID) (route, bool) {
	r, ok := n.routes[g]
	if !ok {
		return route{}, false
	}
	if n.cfg.Now()-r.at > n.cfg.RouteTTL {
		delete(n.routes, g)
		return route{}, false
	}
	if _, alive := n.conns[r.conn]; !alive {
		delete(n.routes, g)
		return route{}, false
	}
	return r, true
}

// RouteCount returns the number of live reverse-routing entries
// (post-sweep value may be smaller).
func (n *Node) RouteCount() int { return len(n.routes) }

// maybeSweep expires old routes at most once per RouteTTL/2 of simulated
// time, keeping the table bounded without a timer dependency.
//
// It deletes exactly the routes and origin entries older than RouteTTL,
// without walking either map: every insertion also queued a stamp in
// expiry, and since the clock never runs backward the queue is in time
// order, so the expired entries are a prefix of it. A stamp can be stale —
// its entry was since overwritten (a re-sent PING's GUID) or deleted
// (lookupRoute drops expired and dead routes) — so an entry is deleted
// only when the map still holds that stamp's exact instant; a newer
// insertion under the same GUID has its own stamp, no earlier. Popped
// stamps are compacted out in place, so the queue's backing array is
// reused.
func (n *Node) maybeSweep() {
	now := n.cfg.Now()
	if now-n.lastSweep < n.cfg.RouteTTL/2 {
		return
	}
	n.lastSweep = now
	q := n.expiry
	i := 0
	for ; i < len(q) && now-q[i].at > n.cfg.RouteTTL; i++ {
		e := q[i]
		if e.origin {
			if at, ok := n.origin[e.g]; ok && at == e.at {
				delete(n.origin, e.g)
			}
		} else if r, ok := n.routes[e.g]; ok && r.at == e.at {
			delete(n.routes, e.g)
		}
	}
	n.expiry = q[:copy(q, q[i:])]
}
