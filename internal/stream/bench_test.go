package stream_test

import (
	"fmt"
	"testing"
	"time"

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
