package stream

import (
	"reflect"
	"strconv"
	"testing"
	"time"
	"unsafe"

	"repro/internal/trace"
)

// TestProducerRefillsFromReturnedArrays pins the batch return path: once
// the merger has applied a batch it hands the array back, and the
// producer's next flush refills from it instead of allocating. Each batch
// here is flushed only after the one before it came back, so a stream of
// dozens of batches travels in at most two arrays, and the drained trace
// holds every session. A flush may take back the very array it just sent,
// when the merger applied it first; then no batch is out and there is
// nothing to wait for.
func TestProducerRefillsFromReturnedArrays(t *testing.T) {
	m := NewMerger(1, nil)
	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()
	p := NewProducer(0, m.Intake())
	arrays := make(map[*Event]bool)
	flushed := 0
	var sent *Event // the array of the batch flushed last
	emit := func(ev Event) {
		if len(p.buf) == batchSize-1 && flushed > 0 && unsafe.SliceData(p.buf) != sent {
			for deadline := time.Now().Add(10 * time.Second); len(p.returned) == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("batch %d never came back", flushed)
				}
			}
		}
		arr := unsafe.SliceData(p.buf)
		arrays[arr] = true
		p.Emit(ev)
		if len(p.buf) == 0 {
			flushed++
			sent = arr
		}
	}
	const sessions = 5000
	for i := range sessions {
		at := trace.Time(i) * time.Second
		end := at + time.Second/2
		emit(Event{Kind: EvOpen, ID: uint64(i), Time: at})
		emit(Event{Kind: EvClose, ID: uint64(i), Time: end, Sess: &SessionRecord{Conn: trace.Conn{Start: at, End: end}}})
	}
	p.Done(sessions*time.Second, &End{Nodes: 1})
	tr := <-done
	if len(tr.Conns) != sessions {
		t.Fatalf("drained %d sessions, want %d", len(tr.Conns), sessions)
	}
	if flushed < 30 {
		t.Fatalf("only %d batches; the stream is too short to show reuse", flushed)
	}
	if n := len(arrays); n < 1 || n > 2 {
		t.Errorf("%d batches travelled in %d arrays, want one or two", flushed+1, n)
	}
}

// TestProducerKeepsEveryReturnedArray: a merger that fell behind applies
// the batches queued on its intake in a burst and hands all their arrays
// back at once. The producer's return channel must take every one, so
// that the flushes after the burst refill from them and allocate no new
// array.
func TestProducerKeepsEveryReturnedArray(t *testing.T) {
	intake := make(chan Batch, 8)
	p := NewProducer(0, intake)
	flush := func() {
		for range batchSize {
			p.Emit(Event{Kind: EvPong})
		}
	}
	for len(intake) < cap(intake) {
		flush()
	}
	known := map[*Event]bool{unsafe.SliceData(p.buf): true}
	for len(intake) > 0 {
		b := <-intake
		known[unsafe.SliceData(b.Events)] = true
		b.recycle()
	}
	for range cap(intake) {
		flush()
	}
	for len(intake) > 0 {
		if b := <-intake; !known[unsafe.SliceData(b.Events)] {
			t.Fatalf("a flush after the burst sent a new array; %d of %d came back", len(known)-1, cap(intake))
		}
	}
}

// TestProducerRecordsOutliveTheirArrays closes more sessions than one
// record slab holds through a consumer that wipes each batch's array
// before handing it back, and the producer refills the arrays it gets
// back: every record must still read as it was emitted once all of them
// have gone round.
func TestProducerRecordsOutliveTheirArrays(t *testing.T) {
	intake := make(chan Batch, 4)
	p := NewProducer(0, intake)
	var recs []*SessionRecord
	arrays := make(map[*Event]bool)
	batches := 0
	drain := func() {
		for len(intake) > 0 {
			b := <-intake
			batches++
			arrays[unsafe.SliceData(b.Events)] = true
			for i := range b.Events {
				if b.Events[i].Kind == EvClose {
					recs = append(recs, b.Events[i].Sess)
				}
				b.Events[i] = Event{}
			}
			b.recycle()
		}
	}
	const sessions = 3*recordSlab + 17
	conn := func(i int) trace.Conn {
		at := trace.Time(i) * time.Second
		return trace.Conn{ID: uint64(i), Start: at, End: at + time.Second, UserAgent: strconv.Itoa(i)}
	}
	for i := range sessions {
		c := conn(i)
		p.Open(c.ID, c.Start)
		p.Close(c.ID, c.End, c, []trace.Query{{ConnID: c.ID, At: c.Start, Text: strconv.Itoa(i)}})
		drain()
	}
	p.Done(sessions*time.Second, &End{Nodes: 1})
	drain()

	if len(arrays) >= batches {
		t.Fatalf("%d batches in %d arrays: no array was refilled", batches, len(arrays))
	}
	if len(recs) != sessions {
		t.Fatalf("%d records emitted, want %d", len(recs), sessions)
	}
	for i, r := range recs {
		want := SessionRecord{Conn: conn(i), Queries: []trace.Query{{ConnID: uint64(i), At: conn(i).Start, Text: strconv.Itoa(i)}}}
		if !reflect.DeepEqual(*r, want) {
			t.Fatalf("record %d reads %+v after its array was refilled, want %+v", i, *r, want)
		}
	}
}
