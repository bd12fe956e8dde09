package stream_test

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/trace"
)

// TestRecordedBatchesMergeTwice is the benchmark's pattern: batches
// recorded once from finished producers and replayed through two mergers.
// Each merger hands every array back to a producer that never reads its
// return channel again, so both drains must equal trace.Merge and the
// recorded events must be untouched afterwards.
func TestRecordedBatchesMergeTwice(t *testing.T) {
	traces := fleetTraces(t, 2004, 1, 3)
	recorded := make([][]stream.Batch, len(traces))
	for i, tr := range traces {
		ch := make(chan stream.Batch)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for b := range ch {
				recorded[i] = append(recorded[i], b)
			}
		}()
		replayAsStream(tr, stream.NewProducer(i, ch), trace.Time(tr.Days)*24*time.Hour)
		close(ch)
		<-done
	}
	copies := make([][][]stream.Event, len(recorded))
	for i, bs := range recorded {
		for _, b := range bs {
			copies[i] = append(copies[i], slices.Clone(b.Events))
		}
	}
	want := traceBytes(t, trace.Merge(traces...))
	for pass := range 2 {
		m := stream.NewMerger(len(recorded), nil)
		var wg sync.WaitGroup
		for _, bs := range recorded {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, b := range bs {
					m.Intake() <- b
				}
			}()
		}
		got := m.Run()
		wg.Wait()
		if !bytes.Equal(traceBytes(t, got), want) {
			t.Fatalf("merge %d of the recorded batches differs from trace.Merge", pass+1)
		}
		for i, bs := range recorded {
			for k, b := range bs {
				if !reflect.DeepEqual(b.Events, copies[i][k]) {
					t.Fatalf("merge %d changed input %d's batch %d", pass+1, i, k)
				}
			}
		}
	}
}
