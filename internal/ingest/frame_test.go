package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
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
// no welcome, a current hello is welcomed, and journal frames sent out of
// order (seq 2, then 1) are acked cumulatively, land in the fleet journal
// in seq order, and are not counted as reordered events.
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
	for i, proto := range []int{1, protoVersion} {
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
	// The end-of-journal sentinel lets Run return; its ack may lose the
	// race with shutdown, so it is not read.
	if err := writeFrame(c, newJournalFrame(3, [][]byte{{}}), nil); err != nil {
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
