package vocab

import (
	"math/rand/v2"
	"testing"

	"repro/internal/geo"
)

// BenchmarkRankingBuild measures the cost of computing one uncached day
// ranking across all classes — the critical section every query draw of a
// fresh day used to wait on.
func BenchmarkRankingBuild(b *testing.B) {
	v := New(42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := Class(0); c < NumClasses; c++ {
			_ = v.queryAt(c, i, 1) // day i is never cached
		}
	}
}

// BenchmarkSampleCachedDay measures a query draw against an already-ranked
// day — the steady-state hot path of workload/capture generation.
func BenchmarkSampleCachedDay(b *testing.B) {
	v := New(42)
	rng := rand.New(rand.NewPCG(1, 2))
	_ = v.queryAt(NAOnly, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Sample(rng, geo.NorthAmerica, 0) == "" {
			b.Fatal("empty query")
		}
	}
}

// BenchmarkSampleContended measures concurrent query draws from a shared
// vocabulary across a rotating 40-day window: the contention profile of
// parallel workload generation.
func BenchmarkSampleContended(b *testing.B) {
	v := New(42)
	for d := 0; d < 40; d++ {
		_ = v.queryAt(NAOnly, d, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewPCG(3, 4))
		day := 0
		for pb.Next() {
			if v.Sample(rng, geo.NorthAmerica, day%40) == "" {
				b.Fatal("empty query")
			}
			day++
		}
	})
}

// BenchmarkSampleColdDays measures draws that each pay a ranking build
// (every draw lands on a previously unseen day), concurrently — the
// worst case for the old single-mutex full-pool sort.
func BenchmarkSampleColdDays(b *testing.B) {
	v := New(42)
	rng := rand.New(rand.NewPCG(5, 6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if v.Sample(rng, geo.NorthAmerica, i) == "" {
			b.Fatal("empty query")
		}
	}
}
