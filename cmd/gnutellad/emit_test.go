package main

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/guid"
	"repro/internal/ingest"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// locked evaluates cond under the daemon's lock.
func (d *daemon) locked(cond func() bool) func() bool {
	return func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return cond()
	}
}

// liveCapture is a daemon serving every peer that dials addr, optionally
// recording into an in-process ingest collector.
type liveCapture struct {
	d      *daemon
	addr   string
	served chan struct{} // one receive per serve call that returned

	col      *ingest.Collector
	emitDone chan error
	traceCh  chan *trace.Trace
}

// startLiveCapture starts the daemon and its accept loop. With collect
// set the record stream goes to a collector over the ingest wire, as
// with -emit; otherwise it is dropped, as without. A non-nil now
// replaces the daemon's wall clock.
func startLiveCapture(t *testing.T, collect bool, now func() time.Duration) *liveCapture {
	t.Helper()
	l, err := transport.Listen("127.0.0.1:0", transport.Options{UserAgent: "repro-gnutellad/1.0", Ultrapeer: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	lc := &liveCapture{d: newDaemon(nil, l.Addr()), addr: l.Addr().String(), served: make(chan struct{}, 8)}
	if now != nil {
		lc.d.now = now
	}
	if collect {
		col, err := ingest.NewCollector(ingest.CollectorConfig{Inputs: 1, EvictAfter: 30 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		lc.col = col
		lc.traceCh = make(chan *trace.Trace, 1)
		go func() {
			tr, err := col.Run()
			if err != nil {
				t.Errorf("collector: %v", err)
			}
			lc.traceCh <- tr
		}()
		em := ingest.NewEmitter(ingest.EmitterConfig{Addr: col.Addr(), Input: 0})
		lc.d.recordTo(0, em.Intake())
		lc.emitDone = make(chan error, 1)
		go func() { lc.emitDone <- em.Run() }()
	} else {
		lc.d.recordTo(0, nil)
	}
	go func() {
		for {
			peer, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				lc.d.serve(peer, 0)
				lc.served <- struct{}{}
			}()
		}
	}()
	return lc
}

// dial connects a client with the given user agent.
func (lc *liveCapture) dial(t *testing.T, userAgent string) *transport.Peer {
	t.Helper()
	peer, err := transport.Dial(lc.addr, transport.Options{
		UserAgent: userAgent,
		Retry:     transport.Retry{Max: 3, Base: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return peer
}

// drain runs the daemon's shutdown and returns the trace the collector
// merged from the record stream.
func (lc *liveCapture) drain(t *testing.T) *trace.Trace {
	t.Helper()
	lc.d.finish()
	if err := <-lc.emitDone; err != nil {
		t.Fatalf("emitter: %v", err)
	}
	tr := <-lc.traceCh
	if lc.col.DeadInputs() != 0 {
		t.Fatalf("clean shutdown reported %d dead inputs", lc.col.DeadInputs())
	}
	return tr
}

// message builds an envelope that arrives having travelled hops hops.
func message(guids *guid.Source, hops uint8, m wire.Message) wire.Envelope {
	return wire.Envelope{
		Header:  wire.Header{GUID: guids.Next(), Type: m.Type(), TTL: 7 - hops, Hops: hops},
		Payload: m,
	}
}

func send(t *testing.T, peer *transport.Peer, envs ...wire.Envelope) {
	t.Helper()
	for _, env := range envs {
		if err := peer.Send(env); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDaemonEmitStreamsSessionRecords drives the -emit path end to end:
// a real client handshakes with the daemon, sends one hop-1 query, and
// disconnects; the closed session record must arrive at an ingest
// collector, and the daemon's shutdown trailer must drain the merge to a
// trace holding exactly that session.
func TestDaemonEmitStreamsSessionRecords(t *testing.T) {
	lc := startLiveCapture(t, true, nil)
	peer := lc.dial(t, "testclient/2.0")
	send(t, peer, message(guid.NewSource(7, 9), 1, &wire.Query{SearchText: "warcraft iii"}))
	peer.Close()
	<-lc.served
	tr := lc.drain(t)

	if len(tr.Conns) != 1 {
		t.Fatalf("merged trace has %d conns, want 1", len(tr.Conns))
	}
	c := tr.Conns[0]
	if c.UserAgent != "testclient/2.0" || c.End <= c.Start {
		t.Fatalf("bad session record: %+v", c)
	}
	if len(tr.Queries) != 1 || tr.Queries[0].Text != "warcraft iii" || tr.Queries[0].Hops != 1 {
		t.Fatalf("bad queries: %+v", tr.Queries)
	}
	if tr.Counts.QueryHop1 != 1 {
		t.Fatalf("trailer counts not folded: %+v", tr.Counts)
	}
}

// TestDaemonLiveTraceIsFullTrace: what the daemon records is a trace the
// characterization reads in full. One client sends every message type
// and leaves; a second stays connected through shutdown. The drained
// trace must carry Table 1's count for every type, the first client's
// self-pong record and the second client's session censored at the
// trailer instant, and must characterize and render Table 1.
func TestDaemonLiveTraceIsFullTrace(t *testing.T) {
	lc := startLiveCapture(t, true, nil)
	d := lc.d
	stay := lc.dial(t, "stayer/1.0")
	defer stay.Close()
	waitUntil(t, "first peer admitted", d.locked(func() bool { return len(d.peers) == 1 }))

	peer := lc.dial(t, "talker/1.0")
	guids := guid.NewSource(11, 3)
	self := netip.MustParseAddr("10.1.2.3")
	send(t, peer,
		message(guids, 1, &wire.Ping{}),
		message(guids, 1, &wire.Pong{Port: 6346, Addr: self, SharedFiles: 42}),
		message(guids, 1, &wire.Query{SearchText: "metallica one"}),
		message(guids, 1, &wire.Query{SearchText: "led zeppelin iv"}),
		message(guids, 3, &wire.Query{SearchText: "forwarded from afar"}),
		message(guids, 2, &wire.QueryHit{
			Addr:    netip.MustParseAddr("10.9.9.9"),
			Results: []wire.HitResult{{FileIndex: 1, FileName: "one.mp3"}},
			Servent: guids.Next(),
		}),
		message(guids, 1, &wire.Bye{Code: 200, Reason: "done"}),
	)
	peer.Close()
	<-lc.served // the serve loop has read every message and closed

	before := d.now()
	tr := lc.drain(t)
	after := d.now()

	want := trace.MessageCounts{Ping: 1, Pong: 1, Query: 3, QueryHop1: 2, QueryHit: 1, Bye: 1}
	if tr.Counts != want {
		t.Errorf("counts = %+v, want %+v", tr.Counts, want)
	}
	if len(tr.Pongs) != 1 || tr.Pongs[0].Addr != self || tr.Pongs[0].SharedFiles != 42 || tr.Pongs[0].Hops != 1 {
		t.Errorf("pong records = %+v, want the one self-pong", tr.Pongs)
	}
	if len(tr.Conns) != 2 || len(tr.Queries) != 2 {
		t.Fatalf("trace has %d conns and %d queries, want 2 and 2", len(tr.Conns), len(tr.Queries))
	}
	censored := tr.Conns[0]
	if censored.UserAgent != "stayer/1.0" || censored.End < before || censored.End > after {
		t.Errorf("open session %+v not censored at the trailer instant (in [%v, %v])", censored, before, after)
	}
	if tr.Days != 1 {
		t.Errorf("Days = %d, want 1", tr.Days)
	}

	c := core.Characterize(tr)
	t1 := c.Table1
	if t1.TracePeriodDays != 1 || t1.Queries != 3 || t1.QueriesHop1 != 2 || t1.QueryHits != 1 ||
		t1.Pings != 1 || t1.Pongs != 1 || t1.DirectConnections != 2 {
		t.Errorf("Table 1 = %+v", t1)
	}
	var buf bytes.Buffer
	if err := report.RenderTable1(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "QUERYHIT messages") {
		t.Errorf("Table 1 lacks its QUERYHIT row:\n%s", buf.String())
	}

	stay.Close()
	<-lc.served
}

// TestDaemonLateCloseAfterFinish: a peer still connected when the daemon
// shuts down, and sending or leaving afterwards, records nothing — finish
// censored its session — instead of panicking on a send to the closed
// record stream.
func TestDaemonLateCloseAfterFinish(t *testing.T) {
	lc := startLiveCapture(t, false, nil)
	d := lc.d
	peer := lc.dial(t, "late/1.0")
	waitUntil(t, "peer admitted", d.locked(func() bool { return len(d.peers) == 1 }))
	d.finish()
	send(t, peer, message(guid.NewSource(5, 1), 1, &wire.Query{SearchText: "after the trailer"}))
	peer.Close()
	<-lc.served
}

// TestDaemonClosesConnBeyondCap: with every slot taken, a connection
// that completes its handshake is closed at once and recorded nowhere.
// The cap is the recorder's MaxConns, lowered here from the paper's 200.
func TestDaemonClosesConnBeyondCap(t *testing.T) {
	lc := startLiveCapture(t, false, nil)
	d := lc.d
	cfg := capture.DefaultConfig(0, 0)
	cfg.MaxConns = 1
	d.mu.Lock()
	d.rec = capture.NewRecorder(cfg, rand.New(rand.NewPCG(1, 1)), d.prod)
	d.mu.Unlock()
	defer d.finish()
	first := lc.dial(t, "first/1.0")
	defer first.Close()
	waitUntil(t, "first peer admitted", d.locked(func() bool { return len(d.peers) == 1 }))

	second := lc.dial(t, "second/1.0")
	defer second.Close()
	<-lc.served
	_ = second.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := second.Recv(); err == nil {
		t.Fatal("connection beyond the cap was not closed")
	}
	if n := d.mConns.Value(); n != 1 {
		t.Errorf("%d connections accepted, want 1", n)
	}
}

// TestServeReapsIdleConns pins the idle-timeout satellite: a client that
// handshakes and then goes silent must be reaped by the read deadline,
// not held forever.
func TestServeReapsIdleConns(t *testing.T) {
	l, err := transport.Listen("127.0.0.1:0", transport.Options{UserAgent: "repro-gnutellad/1.0", Ultrapeer: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d := newDaemon(nil, l.Addr())
	d.recordTo(0, nil)
	defer d.finish()
	go func() {
		peer, err := l.Accept()
		if err != nil {
			return
		}
		d.serve(peer, 100*time.Millisecond)
	}()

	peer, err := transport.Dial(l.Addr().String(), transport.Options{UserAgent: "silent/1.0"})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	waitUntil(t, "idle conn reaped", d.locked(func() bool { return len(d.peers) == 0 && d.mConns.Value() == 1 }))
	// The daemon closed its side; the silent client's next read must fail.
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := peer.Recv(); err == nil {
		t.Fatal("client read succeeded after daemon reaped the conn")
	}
}

// TestDaemonAdvertisesListenPort: the daemon's own PONG names the address
// and port it listens on, whatever -listen chose, so a peer that learns
// of it from a PONG (or a downloader from a QUERYHIT) can reach it.
func TestDaemonAdvertisesListenPort(t *testing.T) {
	lc := startLiveCapture(t, false, nil)
	defer lc.d.finish()
	peer := lc.dial(t, "pinger/1.0")
	defer peer.Close()
	send(t, peer, message(guid.NewSource(3, 1), 1, &wire.Ping{}))
	_ = peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	env, err := peer.Recv()
	if err != nil {
		t.Fatal(err)
	}
	pong, ok := env.Payload.(*wire.Pong)
	if !ok {
		t.Fatalf("reply to a PING is %T, want *wire.Pong", env.Payload)
	}
	if want := netip.MustParseAddrPort(lc.addr); pong.Addr != want.Addr() || pong.Port != want.Port() {
		t.Errorf("PONG advertises %v:%d, want %v", pong.Addr, pong.Port, want)
	}
}
