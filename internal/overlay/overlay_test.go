package overlay

import (
	"maps"
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"repro/internal/guid"
	"repro/internal/wire"
)

// sent captures outgoing envelopes per connection.
type sent struct {
	conn int
	env  wire.Envelope
}

type harness struct {
	node *Node
	out  []sent
	now  time.Duration
}

func newHarness(t *testing.T, ultrapeer bool, lib []SharedFile) *harness {
	t.Helper()
	h := &harness{}
	src := guid.NewSource(1, 99)
	h.node = New(Config{
		Self:      src.Next(),
		Ultrapeer: ultrapeer,
		Addr:      netip.MustParseAddr("193.1.1.1"),
		Port:      6346,
		Library:   lib,
		Now:       func() time.Duration { return h.now },
		Send:      func(conn int, env wire.Envelope) { h.out = append(h.out, sent{conn, env}) },
		GUIDs:     guid.NewSource(2, 2),
	})
	return h
}

func (h *harness) sentTo(conn int) []wire.Envelope {
	var out []wire.Envelope
	for _, s := range h.out {
		if s.conn == conn {
			out = append(out, s.env)
		}
	}
	return out
}

func (h *harness) reset() { h.out = nil }

var msgGUIDs = guid.NewSource(7, 7)

func query(text string, ttl, hops uint8) wire.Envelope {
	return wire.Envelope{
		Header:  wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypeQuery, TTL: ttl, Hops: hops},
		Payload: &wire.Query{SearchText: text},
	}
}

func TestConfigValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(Config{Now: func() time.Duration { return 0 }}) },
		func() { New(Config{Send: func(int, wire.Envelope) {}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for missing required config")
				}
			}()
			f()
		}()
	}
}

func TestAddRemoveConn(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.AddConn(2, false)
	if h.node.ConnCount() != 2 || !h.node.HasConn(1) {
		t.Fatal("conn bookkeeping")
	}
	h.node.RemoveConn(1)
	if h.node.ConnCount() != 1 || h.node.HasConn(1) {
		t.Fatal("remove failed")
	}
}

func TestQueryFloodsToUltrapeers(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.AddConn(2, true)
	h.node.AddConn(3, true)
	env := query("some song", 5, 1)
	h.node.Receive(1, env)
	// Forwarded to conns 2 and 3, not back to 1.
	if len(h.sentTo(1)) != 0 {
		t.Error("query echoed to its source")
	}
	for _, c := range []int{2, 3} {
		got := h.sentTo(c)
		if len(got) != 1 {
			t.Fatalf("conn %d got %d messages", c, len(got))
		}
		if got[0].Header.TTL != 4 || got[0].Header.Hops != 2 {
			t.Errorf("conn %d: TTL/hops = %d/%d, want 4/2", c, got[0].Header.TTL, got[0].Header.Hops)
		}
	}
}

func TestQueryLeafForwardingIsSelective(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	for i := 2; i < 102; i++ {
		h.node.AddConn(i, false) // 100 leaves
	}
	for i := 0; i < 50; i++ {
		h.node.Receive(1, query("text", 5, 1))
	}
	// With leafForwardProb = 0.05, about 250 of 5000 leaf deliveries.
	n := len(h.out)
	if n < 100 || n > 500 {
		t.Errorf("leaf deliveries = %d, want ≈250", n)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.AddConn(2, true)
	env := query("dup", 5, 1)
	h.node.Receive(1, env)
	first := len(h.out)
	h.node.Receive(2, env) // same GUID from elsewhere
	if len(h.out) != first {
		t.Error("duplicate was forwarded")
	}
	if h.node.Stats().DroppedDup != 1 {
		t.Errorf("dup counter = %d", h.node.Stats().DroppedDup)
	}
}

func TestTTLExhaustedNotForwarded(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.AddConn(2, true)
	h.node.Receive(1, query("last hop", 1, 6))
	if len(h.sentTo(2)) != 0 {
		t.Error("TTL-1 query forwarded")
	}
	if h.node.Stats().DroppedTTL != 1 {
		t.Errorf("ttl counter = %d", h.node.Stats().DroppedTTL)
	}
}

// TestOversizedTTLClampedOnFlood: a query claiming TTL 200 is flooded on
// with the TTL the MaxTTL limit leaves, not 199.
func TestOversizedTTLClampedOnFlood(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.AddConn(2, true)
	h.node.AddConn(3, true)
	h.node.Receive(1, query("loud", 200, 2))
	for _, c := range []int{2, 3} {
		got := h.sentTo(c)
		if len(got) != 1 {
			t.Fatalf("conn %d got %d messages, want the flooded query", c, len(got))
		}
		if hd := got[0].Header; hd.TTL != wire.MaxTTL-3 || hd.Hops != 3 {
			t.Errorf("conn %d got TTL %d hops %d, want TTL %d hops 3", c, hd.TTL, hd.Hops, wire.MaxTTL-3)
		}
	}
}

func TestLibraryMatchProducesHit(t *testing.T) {
	lib := []SharedFile{
		{Index: 1, Name: "Blue Mountain Song.mp3", SizeKB: 4000},
		{Index: 2, Name: "Other Tune.ogg", SizeKB: 3000},
	}
	h := newHarness(t, true, lib)
	h.node.AddConn(1, true)
	env := query("blue song.mp3", 5, 1)
	h.node.Receive(1, env)
	got := h.sentTo(1)
	if len(got) != 1 {
		t.Fatalf("expected 1 hit back, got %d messages", len(got))
	}
	qh := got[0].Payload.(*wire.QueryHit)
	if len(qh.Results) != 1 || qh.Results[0].FileIndex != 1 {
		t.Fatalf("results = %+v", qh.Results)
	}
	if got[0].Header.GUID != env.Header.GUID {
		t.Error("hit must carry the query GUID for reverse routing")
	}
	if h.node.Stats().HitsServed != 1 {
		t.Error("hit counter")
	}
}

func TestNoMatchNoHit(t *testing.T) {
	h := newHarness(t, true, []SharedFile{{Index: 1, Name: "abc def"}})
	h.node.AddConn(1, true)
	h.node.Receive(1, query("abc xyz", 5, 1))
	for _, e := range h.sentTo(1) {
		if e.Header.Type == wire.TypeQueryHit {
			t.Fatal("partial keyword match must not hit")
		}
	}
}

func TestQueryHitReverseRouting(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.AddConn(2, true)
	env := query("route me", 5, 1)
	h.node.Receive(1, env) // route: GUID → conn 1
	h.reset()
	// A hit for that GUID arrives from conn 2.
	hit := wire.Envelope{
		Header: wire.Header{GUID: env.Header.GUID, Type: wire.TypeQueryHit, TTL: 4, Hops: 2},
		Payload: &wire.QueryHit{
			Addr: netip.MustParseAddr("80.2.2.2"), Port: 6346,
			Results: []wire.HitResult{{FileIndex: 9, FileName: "route me.mp3"}},
			Servent: msgGUIDs.Next(),
		},
	}
	h.node.Receive(2, hit)
	got := h.sentTo(1)
	if len(got) != 1 || got[0].Header.Type != wire.TypeQueryHit {
		t.Fatalf("hit not routed back: %d messages", len(got))
	}
	if got[0].Header.Hops != 3 {
		t.Errorf("hops = %d", got[0].Header.Hops)
	}
	if h.node.Stats().RoutedHit != 1 {
		t.Error("routed-hit counter")
	}
}

func TestQueryHitWithoutRouteDropped(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	hit := wire.Envelope{
		Header: wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypeQueryHit, TTL: 4, Hops: 2},
		Payload: &wire.QueryHit{
			Addr:    netip.MustParseAddr("80.2.2.2"),
			Results: []wire.HitResult{{FileIndex: 1, FileName: "x"}},
			Servent: msgGUIDs.Next(),
		},
	}
	h.node.Receive(1, hit)
	if len(h.out) != 0 {
		t.Error("unroutable hit was sent somewhere")
	}
	if h.node.Stats().DroppedNoRoute != 1 {
		t.Error("no-route counter")
	}
}

func TestRouteExpiry(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.AddConn(2, true)
	env := query("expiring", 5, 1)
	h.node.Receive(1, env)
	h.reset()
	h.now += 11 * time.Minute // beyond the 10-minute route TTL
	hit := wire.Envelope{
		Header: wire.Header{GUID: env.Header.GUID, Type: wire.TypeQueryHit, TTL: 4, Hops: 2},
		Payload: &wire.QueryHit{
			Addr:    netip.MustParseAddr("80.2.2.2"),
			Results: []wire.HitResult{{FileIndex: 1, FileName: "x"}},
			Servent: msgGUIDs.Next(),
		},
	}
	h.node.Receive(2, hit)
	if len(h.sentTo(1)) != 0 {
		t.Error("expired route still used")
	}
}

func TestPingAnsweredWithPong(t *testing.T) {
	h := newHarness(t, true, []SharedFile{{Index: 1, Name: "a"}, {Index: 2, Name: "b"}})
	h.node.AddConn(1, false)
	ping := wire.Envelope{
		Header:  wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypePing, TTL: 1, Hops: 0},
		Payload: &wire.Ping{},
	}
	h.node.Receive(1, ping)
	got := h.sentTo(1)
	if len(got) < 1 {
		t.Fatal("no pong reply")
	}
	pong := got[0].Payload.(*wire.Pong)
	if pong.SharedFiles != 2 || pong.Addr != netip.MustParseAddr("193.1.1.1") {
		t.Fatalf("pong = %+v", pong)
	}
	if got[0].Header.GUID != ping.Header.GUID {
		t.Error("pong must carry the ping GUID")
	}
}

func TestPongCacheServedOnPing(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.AddConn(2, true)
	// Seed the cache with remote pongs arriving on conn 2.
	for i := 0; i < 5; i++ {
		h.node.Receive(2, wire.Envelope{
			Header:  wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypePong, TTL: 3, Hops: 2},
			Payload: &wire.Pong{Addr: netip.AddrFrom4([4]byte{61, 0, 0, byte(i)}), SharedFiles: uint32(i)},
		})
	}
	h.reset()
	h.node.Receive(1, wire.Envelope{
		Header:  wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypePing, TTL: 1, Hops: 0},
		Payload: &wire.Ping{},
	})
	got := h.sentTo(1)
	if len(got) != 4 { // own pong + 3 cached
		t.Fatalf("ping reply = %d messages, want 4", len(got))
	}
}

// TestPingRepliesOwnPongThenCached pins a PING's replies: the node's own
// pong, then up to three cached ones, each counted in Stats.PongsSent.
func TestPingRepliesOwnPongThenCached(t *testing.T) {
	for _, cached := range []int{0, 2, 5} {
		var out []wire.Envelope
		node := New(Config{
			Self: guid.NewSource(1, 99).Next(),
			Addr: netip.MustParseAddr("193.1.1.1"),
			Port: 6346,
			Now:  func() time.Duration { return 0 },
			Send: func(_ int, env wire.Envelope) { out = append(out, env) },
		})
		node.AddConn(1, true)
		node.AddConn(2, true)
		var pongs []wire.Pong
		for i := 0; i < cached; i++ {
			p := wire.Pong{Port: 6346, Addr: netip.AddrFrom4([4]byte{61, 0, 0, byte(i)}), SharedFiles: uint32(i)}
			pongs = append(pongs, p)
			node.Receive(2, wire.Envelope{
				Header:  wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypePong, TTL: 3, Hops: 2},
				Payload: &p,
			})
		}
		out = nil
		before := node.Stats().PongsSent
		ping := wire.Envelope{
			Header:  wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypePing, TTL: 1, Hops: 1},
			Payload: &wire.Ping{},
		}
		node.Receive(1, ping)

		want := 1 + min(3, cached)
		if got := node.Stats().PongsSent - before; got != uint64(want) {
			t.Errorf("cached=%d: PongsSent advanced by %d, want %d", cached, got, want)
		}
		if len(out) != want {
			t.Fatalf("cached=%d: %d replies sent, want %d", cached, len(out), want)
		}
		for i, env := range out {
			wantHdr := wire.Header{GUID: ping.Header.GUID, Type: wire.TypePong, TTL: 2}
			wantPong := wire.Pong{Port: 6346, Addr: netip.MustParseAddr("193.1.1.1")}
			if i > 0 {
				wantHdr.Hops = 1
				wantPong = pongs[i-1]
			}
			if env.Header != wantHdr || *env.Payload.(*wire.Pong) != wantPong {
				t.Errorf("cached=%d reply %d = %+v %+v, want %+v %+v", cached, i, env.Header, env.Payload, wantHdr, wantPong)
			}
		}
	}
}

func TestPongRoutedBackToPingOrigin(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.AddConn(2, true)
	ping := wire.Envelope{
		Header:  wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypePing, TTL: 3, Hops: 1},
		Payload: &wire.Ping{},
	}
	h.node.Receive(1, ping)
	h.reset()
	pong := wire.Envelope{
		Header:  wire.Header{GUID: ping.Header.GUID, Type: wire.TypePong, TTL: 3, Hops: 1},
		Payload: &wire.Pong{Addr: netip.MustParseAddr("61.1.1.1")},
	}
	h.node.Receive(2, pong)
	if len(h.sentTo(1)) != 1 {
		t.Fatalf("pong not routed to ping origin: %v", len(h.sentTo(1)))
	}
}

// TestHitToOwnProbeNotForwarded: a QUERYHIT under a GUID this node
// originated ends at the node, neither forwarded nor counted as a miss.
func TestHitToOwnProbeNotForwarded(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.AddConn(2, true)
	g := h.node.Probe(2)
	h.reset()
	hit := wire.Envelope{
		Header: wire.Header{GUID: g, Type: wire.TypeQueryHit, TTL: 6, Hops: 1},
		Payload: &wire.QueryHit{
			Addr:    netip.MustParseAddr("66.3.3.3"),
			Results: []wire.HitResult{{FileIndex: 5, FileName: "mine.mp3"}},
			Servent: msgGUIDs.Next(),
		},
	}
	h.node.Receive(1, hit)
	if len(h.out) != 0 {
		t.Error("hit answering our own message must not be forwarded")
	}
	if st := h.node.Stats(); st.DroppedNoRoute != 0 || st.RoutedHit != 0 {
		t.Errorf("hit answering our own message counted: %+v", st)
	}
}

func TestProbeSendsSinglePing(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, false)
	g := h.node.Probe(1)
	got := h.sentTo(1)
	if len(got) != 1 || got[0].Header.Type != wire.TypePing {
		t.Fatalf("probe sent %d messages", len(got))
	}
	if got[0].Header.GUID != g {
		t.Error("probe GUID mismatch")
	}
}

func TestSendToDetachedConnDropped(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	env := query("x", 5, 1)
	h.node.Receive(1, env)
	h.node.RemoveConn(1)
	h.reset()
	// A hit routed toward the removed conn must be dropped, not sent.
	hit := wire.Envelope{
		Header: wire.Header{GUID: env.Header.GUID, Type: wire.TypeQueryHit, TTL: 4, Hops: 2},
		Payload: &wire.QueryHit{
			Addr:    netip.MustParseAddr("80.2.2.2"),
			Results: []wire.HitResult{{FileIndex: 1, FileName: "x"}},
			Servent: msgGUIDs.Next(),
		},
	}
	h.node.AddConn(2, true)
	h.node.Receive(2, hit)
	if len(h.out) != 0 {
		t.Error("message sent to detached connection")
	}
}

// TestStatsCounting pins the routing counters of a query and a ping on
// a lone connection: the ping is answered with the node's own pong, and
// the query has nowhere to go. Counting received messages by type is the
// recorder's (internal/capture's TestRecorderWireCounts).
func TestStatsCounting(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.Receive(1, query("a", 5, 1))
	h.node.Receive(1, wire.Envelope{
		Header:  wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypePing, TTL: 1, Hops: 0},
		Payload: &wire.Ping{},
	})
	if st := h.node.Stats(); st != (Stats{PongsSent: 1}) {
		t.Errorf("stats = %+v, want only PongsSent = 1", st)
	}
}

func TestRouteSweepBoundsTable(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	for i := 0; i < 1000; i++ {
		h.node.Receive(1, query("q", 2, 1))
		h.now += time.Second
	}
	// 1000 seconds on; entries older than 10 minutes must have been swept.
	if n := h.node.RouteCount(); n > 700 {
		t.Errorf("route table has %d entries; sweep not working", n)
	}
}

func TestProbeRequiresGUIDs(t *testing.T) {
	n := New(Config{
		Now:  func() time.Duration { return 0 },
		Send: func(int, wire.Envelope) {},
	})
	n.AddConn(1, true)
	defer func() {
		if recover() == nil {
			t.Error("expected panic without Config.GUIDs")
		}
	}()
	n.Probe(1)
}

func TestPongToOwnPingNotForwarded(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, false)
	g := h.node.Probe(1)
	h.reset()
	h.node.Receive(1, wire.Envelope{
		Header:  wire.Header{GUID: g, Type: wire.TypePong, TTL: 1, Hops: 1},
		Payload: &wire.Pong{Addr: netip.MustParseAddr("66.1.1.1")},
	})
	if len(h.out) != 0 {
		t.Error("pong answering our own probe must not be forwarded")
	}
}

func TestEmptyQueryTextNoHit(t *testing.T) {
	h := newHarness(t, true, []SharedFile{{Index: 1, Name: "anything"}})
	h.node.AddConn(1, true)
	h.node.Receive(1, query("", 5, 1))
	for _, e := range h.sentTo(1) {
		if e.Header.Type == wire.TypeQueryHit {
			t.Fatal("empty query must not match")
		}
	}
}

// TestByeAndPushCounted: BYE and PUSH end at the node, generating no
// traffic and moving no routing counter; the recorder counts them
// (internal/capture's TestRecorderWireCounts).
func TestByeAndPushCounted(t *testing.T) {
	h := newHarness(t, true, nil)
	h.node.AddConn(1, true)
	h.node.Receive(1, wire.Envelope{
		Header:  wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypeBye, TTL: 1},
		Payload: &wire.Bye{Code: 200},
	})
	h.node.Receive(1, wire.Envelope{
		Header:  wire.Header{GUID: msgGUIDs.Next(), Type: wire.TypePush, TTL: 1},
		Payload: &wire.Push{Addr: netip.MustParseAddr("66.1.1.1")},
	})
	if len(h.out) != 0 {
		t.Error("bye/push must not generate traffic in this configuration")
	}
	if st := h.node.Stats(); st != (Stats{}) {
		t.Errorf("bye/push moved routing counters: %+v", st)
	}
}

func TestDefaultRandDeterministic(t *testing.T) {
	// The node's internal generator drives leaf forwarding
	// deterministically per self GUID.
	build := func() *Node {
		return New(Config{
			Self: guid.NewSource(5, 5).Next(),
			Now:  func() time.Duration { return 0 },
			Send: func(int, wire.Envelope) {},
		})
	}
	a, b := build(), build()
	for i := 0; i < 100; i++ {
		if a.rand() != b.rand() {
			t.Fatal("internal rand must be deterministic per GUID")
		}
	}
}

// TestRouteExpiryMatchesFullWalk checks the insertion-order expiry queue
// against the rule it replaces: at every sweep, the routes and origin
// tables must equal what a walk over both maps deleting every entry older
// than routeTTL leaves. A seeded random mix of inserts, same-GUID
// overwrites (re-sent PINGs, some at the same instant), lookupRoute
// deletions (hits on expired routes and on routes through closed
// connections), originated messages, connection churn and clock advances
// crosses many routeTTL/2 boundaries, so the queue holds plenty of stale
// stamps.
func TestRouteExpiryMatchesFullWalk(t *testing.T) {
	var now time.Duration
	n := New(Config{
		Self:  guid.NewSource(3, 3).Next(),
		Now:   func() time.Duration { return now },
		Send:  func(int, wire.Envelope) {},
		GUIDs: guid.NewSource(4, 4),
	})
	ttl := routeTTL
	rng := rand.New(rand.NewPCG(2004, 10))
	ids := guid.NewSource(5, 5)
	var seen []guid.GUID // GUIDs sent to the node, for overwrites and hits
	pick := func() guid.GUID { return seen[rng.IntN(len(seen))] }
	const conns = 8
	for c := range conns {
		n.AddConn(c, true)
	}
	sweeps, deleted := 0, 0
	for step := 0; step < 20000; step++ {
		if rng.IntN(4) == 0 {
			// Mostly short steps, now and then past a whole TTL.
			now += time.Duration(rng.Int64N(int64(ttl / 4)))
		}
		// Sweep explicitly so the full walk can be applied to the same
		// snapshot; Receive's own call below is then a no-op.
		if now-n.lastSweep >= ttl/2 {
			wantRoutes := maps.Clone(n.routes)
			maps.DeleteFunc(wantRoutes, func(_ guid.GUID, r route) bool { return now-r.at > ttl })
			wantOrigin := maps.Clone(n.origin)
			maps.DeleteFunc(wantOrigin, func(_ guid.GUID, at time.Duration) bool { return now-at > ttl })
			deleted += len(n.routes) - len(wantRoutes) + len(n.origin) - len(wantOrigin)
			n.maybeSweep()
			if !maps.Equal(n.routes, wantRoutes) || !maps.Equal(n.origin, wantOrigin) {
				t.Fatalf("step %d: sweep kept %d routes / %d origins, full walk %d / %d",
					step, len(n.routes), len(n.origin), len(wantRoutes), len(wantOrigin))
			}
			sweeps++
		}
		conn := rng.IntN(conns)
		switch op := rng.IntN(10); {
		case op < 3 || len(seen) == 0: // a fresh query: a new route
			g := ids.Next()
			seen = append(seen, g)
			n.Receive(conn, wire.Envelope{Header: wire.Header{GUID: g, Type: wire.TypeQuery, TTL: 3, Hops: 1}, Payload: &wire.Query{}})
		case op < 5: // a PING under a known GUID: overwrites the route
			n.Receive(conn, wire.Envelope{Header: wire.Header{GUID: pick(), Type: wire.TypePing, TTL: 1}, Payload: &wire.Ping{}})
		case op < 7: // a hit: lookupRoute may delete the route
			n.Receive(conn, wire.Envelope{Header: wire.Header{GUID: pick(), Type: wire.TypeQueryHit, TTL: 3, Hops: 1}, Payload: &wire.QueryHit{}})
		case op < 8: // an originated message
			seen = append(seen, n.Probe(conn))
		default: // connection churn
			if n.HasConn(conn) {
				n.RemoveConn(conn)
			} else {
				n.AddConn(conn, true)
			}
		}
	}
	if sweeps < 100 || deleted < 1000 {
		t.Fatalf("only %d sweeps deleting %d entries: the mix does not exercise expiry", sweeps, deleted)
	}
}
