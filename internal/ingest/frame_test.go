package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
)

func roundTrip(t *testing.T, f *frame) *frame {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f, nil); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return got
}

func TestFrameRoundTrip(t *testing.T) {
	rec := &stream.SessionRecord{
		Conn: trace.Conn{
			Start: time.Second, End: time.Minute,
			Addr: netip.MustParseAddr("10.1.2.3"), Ultrapeer: true, UserAgent: "LimeWire/4.0",
		},
		Queries: []trace.Query{{At: 2 * time.Second, Text: "free mp3", TTL: 7, Hops: 1, Hits: 3}},
	}
	frames := []*frame{
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, Input: 2, Source: "vantage2", JournalTMs: 123.5}},
		{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, Input: 0, JournalTMs: -1}},
		{Kind: frameWelcome, Welcome: &welcomeFrame{Resume: 77, JournalResume: 12, Evicted: true}},
		{Kind: frameJournal, Journal: &journalFrame{FirstSeq: 13, Lines: [][]byte{
			[]byte(`{"kind":"event","t_ms":1,"name":"x"}`),
			[]byte(`{"kind":"heartbeat","t_ms":2}`),
		}}},
		{Kind: frameJournalAck, JAck: &ackFrame{Seq: 14}},
		{Kind: frameData, Data: &dataFrame{FirstSeq: 9, Events: []stream.Event{
			{Kind: stream.EvOpen, ID: 4, Time: time.Second},
			{Kind: stream.EvClose, ID: 4, Time: time.Minute, Sess: rec},
			{Kind: stream.EvPong, Time: 3 * time.Second, Pong: trace.Pong{At: 3 * time.Second, SharedFiles: 120}},
			{Kind: stream.EvDone, Time: time.Hour, Done: &stream.End{Seed: 1, Scale: 0.5, Days: 2, Nodes: 1}},
		}}},
		{Kind: frameAck, Ack: &ackFrame{Seq: 1 << 40}},
		{Kind: frameBye},
	}
	for _, f := range frames {
		got := roundTrip(t, f)
		if !reflect.DeepEqual(f, got) {
			t.Fatalf("kind %d round trip:\n got %+v\nwant %+v", f.Kind, got, f)
		}
	}
}

// TestFrameSingleWrite pins the one-frame-per-Write property that makes
// whole-write fault injection (dup, reorder) safe: swapping or doubling
// Write calls can never tear a frame.
func TestFrameSingleWrite(t *testing.T) {
	var w countingWriter
	if err := writeFrame(&w, &frame{Kind: frameAck, Ack: &ackFrame{Seq: 5}}, nil); err != nil {
		t.Fatal(err)
	}
	if w.calls != 1 {
		t.Fatalf("frame used %d Write calls, want exactly 1", w.calls)
	}
}

type countingWriter struct {
	calls int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.calls++
	return len(p), nil
}

func TestFrameRejectsBadLength(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameLen+1)
	if _, err := readFrame(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("oversized length accepted")
	}
	binary.BigEndian.PutUint32(hdr[:], 0)
	if _, err := readFrame(bytes.NewReader(hdr[:]), nil); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestFrameTornPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &frame{Kind: frameAck, Ack: &ackFrame{Seq: 5}}, nil); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-3]
	if _, err := readFrame(bytes.NewReader(torn), nil); err == nil {
		t.Fatal("torn frame accepted")
	}
}

// TestCollectorRawFrames speaks the protocol by hand over a real
// connection: a hello of any version but protoVersion is closed on with
// no welcome, a current hello is welcomed, journal frames sent out of
// order (seq 2, then 1) are acked cumulatively, land in the fleet journal
// in seq order, and are not counted as reordered events, and the bye
// after the trailer's ack ends the run.
func TestCollectorRawFrames(t *testing.T) {
	var fleet bytes.Buffer
	col, err := NewCollector(CollectorConfig{Inputs: 1, Obs: &obs.Observer{Journal: obs.NewJournal(&fleet)}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { _, _ = col.Run(); close(done) }()
	exchange := func(c net.Conn, f *frame) (*frame, error) {
		if err := writeFrame(c, f, nil); err != nil {
			return nil, err
		}
		return readFrame(c, nil)
	}
	var conns [2]net.Conn
	for i, proto := range []int{2, protoVersion} {
		if conns[i], err = net.Dial("tcp", col.Addr()); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
		_ = conns[i].SetDeadline(time.Now().Add(10 * time.Second))
		f, err := exchange(conns[i], &frame{Kind: frameHello, Hello: &helloFrame{Proto: proto, Source: "raw"}})
		if welcomed := err == nil && f.Kind == frameWelcome; welcomed != (proto == protoVersion) {
			t.Fatalf("version-%d hello: welcomed %v (frame %+v, err %v)", proto, welcomed, f, err)
		}
	}
	c := conns[1]
	line := func(n int) []byte { return []byte(fmt.Sprintf(`{"kind":"event","t_ms":%d,"name":"line%d"}`, n, n)) }
	for _, step := range []struct {
		f    *frame
		lane int
		ack  uint64
	}{
		{newJournalFrame(2, [][]byte{line(2)}), laneJournal, 0},
		{newJournalFrame(1, [][]byte{line(1)}), laneJournal, 2},
		{newDataFrame(1, []stream.Event{{Kind: stream.EvDone, Time: time.Second, Done: &stream.End{Nodes: 1}}}), laneEvents, 1},
	} {
		if got, err := exchange(c, step.f); err != nil || !reflect.DeepEqual(got, newAck(step.lane, step.ack)) {
			t.Fatalf("after frame kind %d: got %+v, err %v; want ack %d on lane %d", step.f.Kind, got, err, step.ack, step.lane)
		}
	}
	if h := col.Health().Inputs[0]; h.JournalSeq != 2 || h.Reordered != 0 {
		t.Fatalf("health %+v, want journal seq 2 and no reordered events", h)
	}
	// Every ack is in; the bye lets Run return.
	if err := writeFrame(c, &frame{Kind: frameBye}, nil); err != nil {
		t.Fatal(err)
	}
	<-done
	var names []string
	for dec := json.NewDecoder(&fleet); dec.More(); {
		var rec struct{ Src, Name string }
		if err := dec.Decode(&rec); err != nil {
			t.Fatal(err)
		}
		if rec.Src == "raw" {
			names = append(names, rec.Name)
		}
	}
	if want := []string{"line1", "line2"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("raw lane = %v, want %v", names, want)
	}
}

// TestCollectorWaitsForGoodbye pins the end-of-input handshake from the
// collector's side: a completed merge alone does not end Run while an
// input still owes its bye, the bye ends it promptly, and an input that
// vanishes after its trailer's ack releases Run at EvictAfter.
func TestCollectorWaitsForGoodbye(t *testing.T) {
	// start runs a one-input collector, then hellos, sends the trailer and
	// reads its ack. It returns the connection, Run's completion signal,
	// and when the trailer was sent.
	start := func(t *testing.T, evictAfter time.Duration) (net.Conn, <-chan struct{}, time.Time) {
		t.Helper()
		col, err := NewCollector(CollectorConfig{Inputs: 1, EvictAfter: evictAfter})
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { _, _ = col.Run(); close(done) }()
		c, err := net.Dial("tcp", col.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		if err := writeFrame(c, &frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, JournalTMs: -1}}, nil); err != nil {
			t.Fatal(err)
		}
		if f, err := readFrame(c, nil); err != nil || f.Kind != frameWelcome {
			t.Fatalf("welcome: frame %+v, err %v", f, err)
		}
		sent := time.Now()
		trailer := newDataFrame(1, []stream.Event{{Kind: stream.EvDone, Time: time.Second, Done: &stream.End{Nodes: 1}}})
		if err := writeFrame(c, trailer, nil); err != nil {
			t.Fatal(err)
		}
		if f, err := readFrame(c, nil); err != nil || !reflect.DeepEqual(f, newAck(laneEvents, 1)) {
			t.Fatalf("trailer ack: frame %+v, err %v", f, err)
		}
		return c, done, sent
	}

	t.Run("bye", func(t *testing.T) {
		c, done, _ := start(t, 30*time.Second)
		select {
		case <-done:
			t.Fatal("Run returned before the bye")
		case <-time.After(200 * time.Millisecond):
		}
		if err := writeFrame(c, &frame{Kind: frameBye}, nil); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatal("Run still running 1 s after the bye")
		}
	})

	t.Run("no bye", func(t *testing.T) {
		const evictAfter = 300 * time.Millisecond
		c, done, sent := start(t, evictAfter)
		c.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Run hung on an input that left without a bye")
		}
		if waited := time.Since(sent); waited < evictAfter {
			t.Fatalf("Run returned %v after the trailer, before EvictAfter (%v)", waited, evictAfter)
		}
	})
}

// TestEmitterByeAfterCollectorGone pins the emitter's half: once
// everything is acked, a bye whose write fails is retried through a
// reconnect, and a refused dial there means the collector has finished,
// so Run returns nil at once instead of spending its retry budget.
func TestEmitterByeAfterCollectorGone(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { // a one-connection collector that closes its listener first
		c, err := l.Accept()
		l.Close()
		if err != nil {
			return
		}
		defer c.Close()
		if f, err := readFrame(c, nil); err != nil || f.Kind != frameHello {
			return
		}
		_ = writeFrame(c, &frame{Kind: frameWelcome, Welcome: &welcomeFrame{}}, nil)
		if f, err := readFrame(c, nil); err == nil && f.Kind == frameData {
			_ = writeFrame(c, newAck(laneEvents, uint64(len(f.Data.Events))), nil)
		}
		_, _ = readFrame(c, nil) // until the emitter closes
	}()
	em := NewEmitter(EmitterConfig{
		Addr:  l.Addr().String(),
		Retry: transport.Retry{Max: 2, Base: time.Millisecond},
		Dial: func(addr string, timeout time.Duration) (net.Conn, error) {
			c, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return &failByeConn{Conn: c}, nil
		},
	})
	em.Intake() <- stream.Batch{Events: []stream.Event{{Kind: stream.EvDone, Time: time.Second, Done: &stream.End{Nodes: 1}}}}
	close(em.Intake())
	done := make(chan error, 1)
	go func() { done <- em.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after full ack and a refused redial: %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung after full ack")
	}
}

// failByeConn fails its third write: the bye, after hello and trailer.
type failByeConn struct {
	net.Conn
	writes int
}

func (c *failByeConn) Write(p []byte) (int, error) {
	if c.writes++; c.writes == 3 {
		return 0, errors.New("bye lost")
	}
	return c.Conn.Write(p)
}
