package stream_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/stream"
	"repro/internal/trace"
)

// BenchmarkTopKAdd measures the Space-Saving hot path at full eviction
// pressure (distinct keys ≫ capacity).
func BenchmarkTopKAdd(b *testing.B) {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("keyword set %d", i)
	}
	tk := stream.NewTopK(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk.Add(keys[i%len(keys)])
	}
}

// BenchmarkQuantileAdd measures GK ingestion (amortized over the sorted
// buffer merges).
func BenchmarkQuantileAdd(b *testing.B) {
	q := stream.NewQuantile(0.001)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Add(float64(i%100000) * 0.37)
	}
}

// BenchmarkOnlineSession measures the whole per-session online cost:
// duration sketch, interarrival sketch, top-K and both rate windows.
func BenchmarkOnlineSession(b *testing.B) {
	o := stream.NewOnline(stream.OnlineConfig{})
	qs := []trace.Query{
		{At: 10 * time.Second, Text: "metallica one"},
		{At: 70 * time.Second, Text: "zeppelin four"},
		{At: 400 * time.Second, Text: "metallica one"},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Duration(i) * time.Second
		c := trace.Conn{Start: start, End: start + 500*time.Second}
		o.MergedSession(&c, qs)
	}
}

// fleetStreams records, once per test binary, the event streams of an
// 8-vantage fleet at 10 % scale over one day: each vantage runs alone
// through engine.NodeStream and its producer's batches are kept as sent.
var fleetStreams = sync.OnceValues(func() ([][]stream.Batch, error) {
	cfg := capture.DefaultConfig(2004, 0.1)
	cfg.Workload.Days = 1
	ecfg := engine.Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: 8}}
	out := make([][]stream.Batch, ecfg.Fleet.Nodes)
	for i := range out {
		ch := make(chan stream.Batch)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for b := range ch {
				out[i] = append(out[i], b)
			}
		}()
		_, err := engine.NodeStream(ecfg, i, stream.NewProducer(i, ch))
		close(ch)
		<-done
		if err != nil {
			return nil, err
		}
	}
	return out, nil
})

// BenchmarkMergerDrain is the merge stage's isolating benchmark: it
// replays the recorded streams of an 8-vantage fleet — opens, closes,
// pongs and hits — through a fresh merger with the engine's emission
// window, one feeder goroutine per input, and reports the cost per event.
func BenchmarkMergerDrain(b *testing.B) {
	batches, err := fleetStreams()
	if err != nil {
		b.Fatal(err)
	}
	events := 0
	for _, bs := range batches {
		for _, x := range bs {
			events += len(x.Events)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		m := stream.NewMerger(len(batches), nil)
		m.SetWindow(engine.DefaultMergeWindow)
		var wg sync.WaitGroup
		for _, bs := range batches {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, x := range bs {
					m.Intake() <- x
				}
			}()
		}
		m.Run()
		wg.Wait()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(events)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
}
