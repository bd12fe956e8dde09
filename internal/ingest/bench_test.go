package ingest

import (
	"io"
	"runtime"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/stream"
)

// recordedFrames records, once per test binary, the event streams of a
// 2-vantage fleet at 4 % scale over one day, each vantage alone through
// engine.NodeStream, and cuts them into data frames the way an emitter
// does: a producer batch per frame (batches hold at most maxFrameEvents).
var recordedFrames = sync.OnceValues(func() ([][]stream.Event, error) {
	cfg := capture.DefaultConfig(2004, 0.04)
	cfg.Workload.Days = 1
	ecfg := engine.Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: 2}}
	var frames [][]stream.Event
	for i := range ecfg.Fleet.Nodes {
		ch := make(chan stream.Batch)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for b := range ch {
				frames = append(frames, b.Events)
			}
		}()
		_, err := engine.NodeStream(ecfg, i, stream.NewProducer(i, ch))
		close(ch)
		<-done
		if err != nil {
			return nil, err
		}
	}
	return frames, nil
})

// BenchmarkFrameCodec is the ingest wire's isolating benchmark: the data
// frames of recorded vantage streams encoded with one reused codec and
// buffer, as a frameWriter does, and decoded with one reused scratch whose
// event arrays come back after each frame, as the collector's merge hands
// them back. Each direction reports ns and bytes allocated per event and
// allocations per frame.
func BenchmarkFrameCodec(b *testing.B) {
	frames, err := recordedFrames()
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	for _, evs := range frames {
		events += len(evs)
	}
	var c codec
	var p parts
	var payloads [][]byte
	for _, evs := range frames {
		buf, err := c.appendFrame(nil, p.setData(1, evs))
		if err != nil {
			b.Fatal(err)
		}
		payloads = append(payloads, buf[4:])
	}
	measure := func(b *testing.B, run func()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		b.ResetTimer()
		for range b.N {
			run()
		}
		b.StopTimer()
		runtime.ReadMemStats(&after)
		n := float64(b.N) * float64(events)
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
		b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/(float64(b.N)*float64(len(frames))), "allocs/frame")
	}
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		measure(b, func() {
			for _, evs := range frames {
				if buf, err = c.appendFrame(buf[:0], p.setData(1, evs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	})
	b.Run("decode", func(b *testing.B) {
		spare := make(chan []stream.Event, 1)
		s := slabs{spare: spare}
		measure(b, func() {
			for _, payload := range payloads {
				f, err := s.decode(payload)
				if err != nil {
					b.Fatal(err)
				}
				spare <- f.Data.Events
			}
		})
	})
}

// BenchmarkFrameReader is the read path's isolating benchmark: the data
// frames of recorded vantage streams, encoded back to back, read through
// one frameReader from a reader that returns at most 64 KiB per Read, as
// a socket with that much queued would, and decoded with their event
// arrays handed back. It reports ns and Reads per frame.
func BenchmarkFrameReader(b *testing.B) {
	frames, err := recordedFrames()
	if err != nil {
		b.Fatal(err)
	}
	var c codec
	var p parts
	var wire []byte
	for _, evs := range frames {
		if wire, err = c.appendFrame(wire, p.setData(1, evs)); err != nil {
			b.Fatal(err)
		}
	}
	spare := make(chan []stream.Event, 1)
	fr := frameReader{s: slabs{spare: spare}}
	src := &chunkReader{max: 64 << 10}
	b.ResetTimer()
	for range b.N {
		src.b = wire
		for range frames {
			f, err := fr.read(src)
			if err != nil {
				b.Fatal(err)
			}
			spare <- f.Data.Events
		}
	}
	b.StopTimer()
	n := float64(b.N) * float64(len(frames))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/frame")
	b.ReportMetric(float64(src.reads)/n, "reads/frame")
}

// chunkReader reads b, at most max bytes per Read, and counts its Reads.
type chunkReader struct {
	b          []byte
	max, reads int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	r.reads++
	n := copy(p[:min(len(p), r.max)], r.b)
	r.b = r.b[n:]
	return n, nil
}
