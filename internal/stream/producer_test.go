package stream

import (
	"testing"
	"time"
	"unsafe"

	"repro/internal/trace"
)

// TestProducerRefillsFromReturnedArrays pins the batch return path: once
// the merger has applied a batch it hands the array back, and the
// producer's next flush refills from it instead of allocating. Each batch
// here is flushed only after the one before it came back, so a stream of
// dozens of batches travels in two arrays, and the drained trace holds
// every session.
func TestProducerRefillsFromReturnedArrays(t *testing.T) {
	m := NewMerger(1, nil)
	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()
	p := NewProducer(0, m.Intake())
	arrays := make(map[*Event]bool)
	flushed := 0
	emit := func(ev Event) {
		if len(p.buf) == batchSize-1 && flushed > 0 {
			for deadline := time.Now().Add(10 * time.Second); len(p.returned) == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("batch %d never came back", flushed)
				}
			}
		}
		arrays[unsafe.SliceData(p.buf)] = true
		p.Emit(ev)
		if len(p.buf) == 0 {
			flushed++
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
	if len(arrays) != 2 {
		t.Errorf("%d batches travelled in %d arrays, want 2", flushed+1, len(arrays))
	}
}
