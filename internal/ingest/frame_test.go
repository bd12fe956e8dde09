package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/netip"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
)

// writeFrame and readFrame speak one frame with fresh buffers, for tests
// that drive the protocol by hand.
func writeFrame(w io.Writer, f *frame) error { return new(frameWriter).write(w, f) }

func readFrame(r io.Reader) (*frame, error) { return new(frameReader).read(r) }

// goldenFrames pins the wire layout: one vector per frame kind (hello
// twice), each the frame's full wire bytes, length prefix included. A
// layout change shows here as a changed vector.
var goldenFrames = []struct {
	f   *frame
	hex string
}{
	{&frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, Input: 2, Source: "vantage2", JournalTMs: 123.5}}, "000000140108040876616e74616765320000000000e05e40"},
	{&frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, Input: 0, JournalTMs: -1}}, "0000000c01080000000000000000f0bf"},
	{&frame{Kind: frameWelcome, Welcome: &welcomeFrame{Resume: 77, JournalResume: 12, Evicted: true}}, "00000004024d0c01"},
	{&frame{Kind: frameJournal, Journal: &journalFrame{FirstSeq: 13, Lines: [][]byte{
		[]byte(`{"kind":"event","t_ms":1,"name":"x"}`),
		[]byte(`{"kind":"heartbeat","t_ms":2}`),
	}}}, "00000046050d03257b226b696e64223a226576656e74222c22745f6d73223a312c226e616d65223a2278227d1e7b226b696e64223a22686561727462656174222c22745f6d73223a327d"},
	{&frame{Kind: frameJournalAck, JAck: &ackFrame{Seq: 14}}, "00000002060e"},
	{&frame{Kind: frameData, Data: &dataFrame{FirstSeq: 9, Events: []stream.Event{
		{Kind: stream.EvOpen, ID: 4, Time: time.Second},
		{Kind: stream.EvClose, ID: 4, Time: time.Minute, Sess: &stream.SessionRecord{
			Conn: trace.Conn{
				Start: time.Second, End: time.Minute,
				Addr: netip.MustParseAddr("10.1.2.3"), Ultrapeer: true, UserAgent: "LimeWire/4.0",
			},
			Queries: []trace.Query{{At: 2 * time.Second, Text: "free mp3", TTL: 7, Hops: 1, Hits: 3}},
		}},
		{Kind: stream.EvPong, Time: 3 * time.Second, Pong: trace.Pong{At: 3 * time.Second, Addr: netip.MustParseAddr("2001:db8::1"), SharedFiles: 120, Hops: 2}},
		{Kind: stream.EvDone, Time: time.Hour, Done: &stream.End{Seed: 1, Scale: 0.5, Days: 2, Nodes: 1}},
	}}}, "00000094" + "03" + "09" + "05" + // length, kind, FirstSeq, 4 events
		"00" + "00" + "04" + "80a8d6b907" + // open: kind, flags, ID, Time
		"01" + "01" + "04" + "80e0ba84bf03" + // close, Sess:
		"00" + "80a8d6b907" + "80e0ba84bf03" + "04" + "0a010203" + "01" + "0c" + "4c696d65576972652f342e30" + "00" + // Conn
		"02" + "00" + "80d0acf30e" + "08" + "66726565206d7033" + "00" + "07" + "01" + "03" + // 1 query
		"02" + "04" + "00" + "80f882ad16" + // pong, Pong:
		"80f882ad16" + "10" + "20010db8000000000000000000000001" + "78" + "02" +
		"04" + "02" + "00" + "8080c58bc6d101" + // done, Done:
		"00000000000000" + "01" + "000000000000e03f" + "04" + "02" + "0000000000000000" + "0000000000000000"},
	{&frame{Kind: frameAck, Ack: &ackFrame{Seq: 1 << 40}}, "0000000704808080808020"},
	{&frame{Kind: frameBye}, "0000000107"},
}

func TestFrameRoundTrip(t *testing.T) {
	for _, g := range goldenFrames {
		var buf bytes.Buffer
		if err := writeFrame(&buf, g.f); err != nil {
			t.Fatalf("kind %d: write: %v", g.f.Kind, err)
		}
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("kind %d: read: %v", g.f.Kind, err)
		}
		if !reflect.DeepEqual(g.f, got) {
			t.Fatalf("kind %d round trip:\n got %+v\nwant %+v", g.f.Kind, got, g.f)
		}
	}
}

func TestFrameGoldenBytes(t *testing.T) {
	for _, g := range goldenFrames {
		b, err := appendFrame(nil, g.f)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != g.hex {
			t.Errorf("kind %d encodes as\n%s\nwant\n%s", g.f.Kind, got, g.hex)
		}
	}
}

// TestFrameRandomRoundTrip encodes seeded random frames of every kind,
// including shapes the pipeline never sends (parts set on kinds that
// normally lack them, seqs near the top of uint64), and requires each to
// decode to a deeply equal frame that re-encodes to the same bytes.
func TestFrameRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(2004, 29))
	for i := 0; i < 3000; i++ {
		want := randFrame(r)
		b, err := appendFrame(nil, want)
		if err != nil {
			t.Fatalf("frame %d: encode: %v", i, err)
		}
		got, err := decodeFrame(b[4:])
		if err != nil {
			t.Fatalf("frame %d (kind %d): decode: %v", i, want.Kind, err)
		}
		again, err := appendFrame(nil, got)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("frame %d: re-encoding differs (err %v)", i, err)
		}
		// DeepEqual never equates NaNs: compare a NaN clock by its bits.
		if want.Hello != nil && math.IsNaN(want.Hello.JournalTMs) {
			if math.Float64bits(got.Hello.JournalTMs) != math.Float64bits(want.Hello.JournalTMs) {
				t.Fatalf("frame %d: NaN JournalTMs bits changed", i)
			}
			want.Hello.JournalTMs, got.Hello.JournalTMs = 0, 0
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d (kind %d) round trip:\n got %+v\nwant %+v", i, want.Kind, got, want)
		}
	}
}

func randFrame(r *rand.Rand) *frame {
	seq := func() uint64 {
		if r.IntN(4) == 0 {
			return math.MaxUint64 - r.Uint64N(4)
		}
		return r.Uint64N(1 << 20)
	}
	switch kind := frameKind(1 + r.IntN(int(frameBye))); kind {
	case frameHello:
		tms := []float64{-1, math.NaN(), r.Float64() * 1e7}[r.IntN(3)]
		return &frame{Kind: kind, Hello: &helloFrame{Proto: r.IntN(8) - 2, Input: r.IntN(100), Source: randString(r), JournalTMs: tms}}
	case frameWelcome:
		return &frame{Kind: kind, Welcome: &welcomeFrame{Resume: seq(), JournalResume: seq(), Evicted: r.IntN(2) == 0}}
	case frameData:
		var evs []stream.Event
		if n := r.IntN(12); n > 0 {
			evs = make([]stream.Event, n-1)
		}
		for i := range evs {
			evs[i] = randEvent(r)
		}
		return newDataFrame(seq(), evs)
	case frameJournal:
		var lines [][]byte
		if n := r.IntN(6); n > 0 {
			lines = make([][]byte, n-1)
		}
		for i := range lines {
			if r.IntN(4) > 0 {
				lines[i] = []byte(randString(r))
			}
		}
		return newJournalFrame(seq(), lines)
	case frameAck:
		return newAck(laneEvents, seq())
	case frameJournalAck:
		return newAck(laneJournal, seq())
	default:
		return &frame{Kind: kind}
	}
}

// randEvent sets each optional part independently of Kind.
func randEvent(r *rand.Rand) stream.Event {
	at := func() trace.Time { return trace.Time(r.Int64N(1<<50) - 1<<40) }
	ev := stream.Event{Kind: stream.Kind(r.IntN(int(stream.EvEvict) + 1)), ID: r.Uint64() >> r.IntN(64), Time: at()}
	if r.IntN(2) == 0 {
		ev.Sess = &stream.SessionRecord{Conn: trace.Conn{
			ID: r.Uint64N(1 << 30), Start: at(), End: at(), Addr: randAddr(r),
			Ultrapeer: r.IntN(2) == 0, UserAgent: randString(r), SilentClose: r.IntN(2) == 0,
		}}
		if n := r.IntN(5); n > 0 {
			ev.Sess.Queries = make([]trace.Query, n-1)
		}
		for i := range ev.Sess.Queries {
			ev.Sess.Queries[i] = trace.Query{
				ConnID: r.Uint64N(1 << 30), At: at(), Text: randString(r), SHA1: r.IntN(2) == 0,
				TTL: uint8(r.Uint32()), Hops: uint8(r.Uint32()), Hits: r.Uint32(),
			}
		}
	}
	if r.IntN(2) == 0 {
		ev.Pong = trace.Pong{At: at(), Addr: randAddr(r), SharedFiles: r.Uint32(), Hops: uint8(r.Uint32())}
	}
	if r.IntN(2) == 0 {
		ev.Hit = trace.Hit{At: at(), Addr: randAddr(r), Hops: uint8(r.Uint32())}
	}
	if r.IntN(3) == 0 {
		ev.Done = &stream.End{
			Counts: trace.MessageCounts{Ping: r.Uint64(), Pong: r.Uint64(), Query: r.Uint64(), QueryHit: r.Uint64(), Push: r.Uint64(), Bye: r.Uint64(), QueryHop1: r.Uint64()},
			Seed:   r.Uint64(), Scale: r.Float64(), Days: r.IntN(100), Nodes: r.IntN(50) - 1,
			PongSampleRate: r.Float64(), HitSampleRate: r.Float64(),
		}
	}
	return ev
}

// randAddr is the zero Addr, IPv4, IPv6, zoned IPv6 or IPv4-mapped IPv6.
func randAddr(r *rand.Rand) netip.Addr {
	var b [16]byte
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	switch r.IntN(5) {
	case 0:
		return netip.Addr{}
	case 1:
		return netip.AddrFrom4([4]byte(b[:4]))
	case 2:
		return netip.AddrFrom16(b)
	case 3:
		return netip.AddrFrom16(b).WithZone(fmt.Sprintf("eth%d", r.IntN(4)))
	default:
		return netip.AddrFrom16(netip.AddrFrom4([4]byte(b[:4])).As16())
	}
}

func randString(r *rand.Rand) string {
	return strings.Repeat("é√x", r.IntN(4)) + strings.Repeat("q", r.IntN(200))
}

// TestFrameCodecCoversEveryField pins the field counts of every struct
// the frame codec walks. A new field must be encoded by codec in
// frame.go, or it would silently arrive as its zero value.
func TestFrameCodecCoversEveryField(t *testing.T) {
	for _, c := range []struct {
		v      any
		fields int
	}{
		{stream.Event{}, 7},
		{stream.End{}, 7},
		{stream.SessionRecord{}, 2},
		{trace.Conn{}, 7},
		{trace.Query{}, 7},
		{trace.Pong{}, 4},
		{trace.Hit{}, 3},
		{trace.MessageCounts{}, 7},
	} {
		if got := reflect.TypeOf(c.v).NumField(); got != c.fields {
			t.Errorf("%T has %d fields; the ingest frame codec (codec in frame.go) walks %d: encode the new field there, then update this count", c.v, got, c.fields)
		}
	}
}

// TestFrameRejectsMalformed feeds the decoder payloads that are not
// frames: each must be refused as a bad frame.
func TestFrameRejectsMalformed(t *testing.T) {
	ack := func(b ...byte) []byte { return append([]byte{byte(frameAck)}, b...) }
	for name, payload := range map[string][]byte{
		"unknown kind":      {0x5d},
		"kind zero":         {0},
		"trailing byte":     ack(5, 0),
		"short read":        ack(0x80),
		"overlong varint":   ack(0x85, 0x00),
		"bool 2":            {byte(frameWelcome), 1, 1, 2},
		"count past end":    {byte(frameData), 1, 0xff, 0xff, 0xff, 0x07},
		"line past end":     {byte(frameJournal), 1, 2, 9, 'x'},
		"unknown flag":      {byte(frameData), 1, 2, 0, 0x10, 0, 0},
		"zero pong present": {byte(frameData), 1, 2, 2, hasPong, 0, 0, 0, 0, 0, 0},
		"bad address":       {byte(frameData), 1, 2, 3, hasHit, 0, 0, 2, 3, 1, 2, 3, 0},
		"hop overflow":      {byte(frameData), 1, 2, 3, hasHit, 0, 0, 2, 0, 0x80, 0x02},
	} {
		if f, err := decodeFrame(payload); !errors.Is(err, errBadFrame) {
			t.Errorf("%s: got frame %+v, err %v; want a bad-frame error", name, f, err)
		}
	}
}

// TestFrameSingleWrite pins the one-frame-per-Write property that makes
// whole-write fault injection (dup, reorder) safe: swapping or doubling
// Write calls can never tear a frame.
func TestFrameSingleWrite(t *testing.T) {
	var w countingWriter
	if err := writeFrame(&w, &frame{Kind: frameAck, Ack: &ackFrame{Seq: 5}}); err != nil {
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
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized length accepted")
	}
	binary.BigEndian.PutUint32(hdr[:], 0)
	if _, err := readFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("zero length accepted")
	}
}

func TestFrameTornPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, &frame{Kind: frameAck, Ack: &ackFrame{Seq: 5}}); err != nil {
		t.Fatal(err)
	}
	torn := buf.Bytes()[:buf.Len()-3]
	if _, err := readFrame(bytes.NewReader(torn)); err == nil {
		t.Fatal("torn frame accepted")
	}
}

// TestReadFrameAllocatesOnlyWhatArrives: a length prefix claiming the
// largest frame, followed by ten bytes and EOF, is an error that costs
// one read chunk, not the claimed 32 MiB.
func TestReadFrameAllocatesOnlyWhatArrives(t *testing.T) {
	in := binary.BigEndian.AppendUint32(nil, maxFrameLen)
	in = append(in, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(in))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err %v, want io.ErrUnexpectedEOF", err)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("a 10-byte payload under a %d-byte claim allocated %d bytes", maxFrameLen, d)
	}
}

// FuzzDecodeFrame feeds the decoder arbitrary payloads. It must never
// panic; a payload it accepts must re-encode to exactly its own bytes;
// and decoding may allocate at most a small constant per payload byte —
// the worst case is a stream.Event (120 bytes in memory) from its
// 4-byte minimum encoding.
func FuzzDecodeFrame(f *testing.F) {
	for _, g := range goldenFrames {
		b, err := hex.DecodeString(g.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b[4:])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		fr, err := decodeFrame(payload)
		if err != nil {
			if !errors.Is(err, errBadFrame) {
				t.Fatalf("refusal %v is not a bad-frame error", err)
			}
			return
		}
		b, err := appendFrame(nil, fr)
		if err != nil || !bytes.Equal(b[4:], payload) {
			t.Fatalf("accepted payload re-encodes differently (err %v):\n in %x\nout %x", err, payload, b)
		}
		limit := 8 + len(payload)
		if allocs := testing.AllocsPerRun(1, func() { _, _ = decodeFrame(payload) }); allocs > float64(limit) {
			t.Fatalf("%d-byte payload took %.0f allocations, limit %d", len(payload), allocs, limit)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _ = decodeFrame(payload)
		runtime.ReadMemStats(&after)
		if d, limit := after.TotalAlloc-before.TotalAlloc, uint64(4096+64*len(payload)); d > limit {
			t.Fatalf("%d-byte payload allocated %d bytes, limit %d", len(payload), d, limit)
		}
	})
}

// TestCollectorRawFrames speaks the protocol by hand over a real
// connection. A version-3 (gob) hello captured from the previous
// protocol, a current-layout hello of any version but protoVersion, and
// a current hello whose journal clock is NaN or ±Inf are closed on with
// no welcome and counted as refused. A current hello
// is welcomed, journal frames sent out of order (seq 2, then 1) are
// acked cumulatively, land in the fleet journal in seq order, and are
// not counted as reordered events, and the bye after the trailer's ack
// ends the run.
func TestCollectorRawFrames(t *testing.T) {
	raw, err := os.ReadFile("testdata/hello_v3.hex")
	if err != nil {
		t.Fatal(err)
	}
	gobHello, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if f, err := decodeFrame(gobHello[4:]); !errors.Is(err, errBadFrame) {
		t.Fatalf("v3 gob hello decoded as %+v, err %v; want a bad-frame error", f, err)
	}

	var fleet bytes.Buffer
	col, err := NewCollector(CollectorConfig{Inputs: 1, Obs: &obs.Observer{Journal: obs.NewJournal(&fleet)}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { _, _ = col.Run(); close(done) }()
	dial := func() net.Conn {
		c, err := net.Dial("tcp", col.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		_ = c.SetDeadline(time.Now().Add(10 * time.Second))
		return c
	}
	exchange := func(c net.Conn, f *frame) (*frame, error) {
		if err := writeFrame(c, f); err != nil {
			return nil, err
		}
		return readFrame(c)
	}
	c := dial()
	if _, err := c.Write(gobHello); err != nil {
		t.Fatal(err)
	}
	if f, err := readFrame(c); err == nil {
		t.Fatalf("v3 gob hello answered with %+v", f)
	}
	for _, h := range []*helloFrame{
		{Proto: 3, Source: "raw"},
		{Proto: protoVersion, Source: "raw", JournalTMs: math.Inf(1)},
		{Proto: protoVersion, Source: "raw", JournalTMs: math.Inf(-1)},
		{Proto: protoVersion, Source: "raw", JournalTMs: math.NaN()},
	} {
		if f, err := exchange(dial(), &frame{Kind: frameHello, Hello: h}); err == nil {
			t.Fatalf("hello %+v answered with %+v", h, f)
		}
	}
	if n := col.mRefused.Value(); n != 5 {
		t.Fatalf("ingest_hellos_refused_total = %d, want 5 (the gob hello, the version-3 one and the three non-finite clocks)", n)
	}
	c = dial()
	if f, err := exchange(c, &frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, Source: "raw"}}); err != nil || f.Kind != frameWelcome {
		t.Fatalf("current hello: frame %+v, err %v; want a welcome", f, err)
	}
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
	if err := writeFrame(c, &frame{Kind: frameBye}); err != nil {
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
		if err := writeFrame(c, &frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, JournalTMs: -1}}); err != nil {
			t.Fatal(err)
		}
		if f, err := readFrame(c); err != nil || f.Kind != frameWelcome {
			t.Fatalf("welcome: frame %+v, err %v", f, err)
		}
		sent := time.Now()
		trailer := newDataFrame(1, []stream.Event{{Kind: stream.EvDone, Time: time.Second, Done: &stream.End{Nodes: 1}}})
		if err := writeFrame(c, trailer); err != nil {
			t.Fatal(err)
		}
		if f, err := readFrame(c); err != nil || !reflect.DeepEqual(f, newAck(laneEvents, 1)) {
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
		if err := writeFrame(c, &frame{Kind: frameBye}); err != nil {
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
		if f, err := readFrame(c); err != nil || f.Kind != frameHello {
			return
		}
		_ = writeFrame(c, &frame{Kind: frameWelcome, Welcome: &welcomeFrame{}})
		if f, err := readFrame(c); err == nil && f.Kind == frameData {
			_ = writeFrame(c, newAck(laneEvents, uint64(len(f.Data.Events))))
		}
		_, _ = readFrame(c) // until the emitter closes
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
