package ingest

import (
	"fmt"
	"math/rand/v2"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"repro/internal/stream"
	"repro/internal/trace"
)

// TestCollectorHeldFrameSurvivesArrayReuse holds a frame past a gap while
// its input decodes into returned event arrays. Frame A is applied and its
// array comes back from the merge; frame C, sent before B, decodes into
// that array and is held, and as nothing of it reached the merge the
// array is offered straight back; B then decodes into the same array,
// over C's events. The held items are copies, so the drained trace equals
// the in-order one.
func TestCollectorHeldFrameSurvivesArrayReuse(t *testing.T) {
	const sessions, part = 31, 21 // 63 events in three frames of 21
	var evs []stream.Event
	for i := range sessions {
		at := trace.Time(i) * time.Second
		end := at + time.Second/2
		rec := &stream.SessionRecord{
			Conn:    trace.Conn{ID: uint64(i), Start: at, End: end, UserAgent: "LimeWire/4.0"},
			Queries: []trace.Query{{ConnID: uint64(i), At: at + time.Second/4, Text: fmt.Sprintf("held %d", i), TTL: 7, Hops: 1}},
		}
		evs = append(evs,
			stream.Event{Kind: stream.EvOpen, ID: uint64(i), Time: at},
			stream.Event{Kind: stream.EvClose, ID: uint64(i), Time: end, Sess: rec})
	}
	evs = append(evs, stream.Event{Kind: stream.EvDone, Time: sessions * time.Second, Done: &stream.End{Nodes: 1}})
	a, b, c := evs[:part], evs[part:2*part], evs[2*part:]

	ref := stream.NewMerger(1, nil)
	go func() { ref.Intake() <- stream.Batch{Events: slices.Clone(evs)} }()
	want, err := ref.Run().Hash()
	if err != nil {
		t.Fatal(err)
	}

	col, err := NewCollector(CollectorConfig{Inputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan *trace.Trace, 1)
	go func() {
		tr, _ := col.Run()
		drained <- tr
	}()
	conn, err := net.Dial("tcp", col.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	exchange := func(f *frame, wantKind frameKind) *frame {
		t.Helper()
		if err := writeFrame(conn, f); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(conn)
		if err != nil || got.Kind != wantKind {
			t.Fatalf("sent frame kind %d: got %+v, err %v", f.Kind, got, err)
		}
		return got
	}
	ackAfter := func(first uint64, items []stream.Event, want uint64) {
		t.Helper()
		if got := exchange(new(parts).setData(first, items), frameAck).Ack.Seq; got != want {
			t.Fatalf("frame from seq %d acked %d, want %d", first, got, want)
		}
	}
	returned := col.tracks[0].returned
	exchange(&frame{Kind: frameHello, Hello: &helloFrame{Proto: protoVersion, Source: "held", JournalTMs: -1}}, frameWelcome)

	ackAfter(1, a, part)
	for deadline := time.Now().Add(10 * time.Second); len(returned) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the merge never handed frame A's array back")
		}
	}
	ackAfter(2*part+1, c, part) // past the gap: held
	if n := len(returned); n != 1 {
		t.Fatalf("%d arrays back after the held frame, want its one", n)
	}
	ackAfter(part+1, b, uint64(len(evs)))
	if err := writeFrame(conn, &frame{Kind: frameBye}); err != nil {
		t.Fatal(err)
	}
	got, err := (<-drained).Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("the drained trace differs from the in-order merge")
	}
	if h := col.Health().Inputs[0]; h.Reordered != part || h.State != StateDone {
		t.Fatalf("health %+v, want %d reordered events and the input done", h, part)
	}
}

// TestDecodeIntoReturnedArray decodes data frames into an event array a
// larger frame filled before: the frame takes the array, and decodes to
// exactly what a fresh decode gives, no field of the earlier events
// left behind.
func TestDecodeIntoReturnedArray(t *testing.T) {
	r := rand.New(rand.NewPCG(2004, 44))
	encode := func(n int) []byte {
		evs := make([]stream.Event, n)
		for i := range evs {
			evs[i] = randEvent(r)
		}
		b, err := appendFrame(nil, new(parts).setData(1, evs))
		if err != nil {
			t.Fatal(err)
		}
		return b[4:]
	}
	spare := make(chan []stream.Event, 1)
	s := slabs{spare: spare}
	big, err := s.decode(encode(maxFrameEvents))
	if err != nil {
		t.Fatal(err)
	}
	array := big.Data.Events
	for range 20 {
		payload := encode(1 + r.IntN(maxFrameEvents))
		spare <- array
		got, err := s.decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if unsafe.SliceData(got.Data.Events) != unsafe.SliceData(array) {
			t.Fatal("the frame did not decode into the returned array")
		}
		want, err := decodeFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("a frame decoded into a returned array differs from a fresh decode")
		}
	}
}
