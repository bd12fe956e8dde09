package stream_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/trace"
)

// benchTraces simulates one 4-node fleet per benchmark binary.
var (
	benchOnce   sync.Once
	benchTraces []*trace.Trace
)

func benchFleetTraces(b *testing.B) []*trace.Trace {
	b.Helper()
	benchOnce.Do(func() { benchTraces = fleetTraces(b, 2004, 2, 4) })
	return benchTraces
}

// BenchmarkStreamMergeTraces measures the streaming k-way merge over a
// fleet's materialized per-node traces; against BenchmarkTraceMerge it
// prices the streaming merge relative to the sort-based reference.
func BenchmarkStreamMergeTraces(b *testing.B) {
	nodes := benchFleetTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := stream.MergeTraces(nodes...)
		if len(m.Conns) == 0 {
			b.Fatal("empty merge")
		}
	}
}

// BenchmarkTraceMerge isolates batch trace.Merge on the same traces:
// deduplicate, totally order, and re-identify.
func BenchmarkTraceMerge(b *testing.B) {
	nodes := benchFleetTraces(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := trace.Merge(nodes...)
		if len(m.Conns) == 0 {
			b.Fatal("empty merge")
		}
	}
}

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
