package workload

import "testing"

// BenchmarkWorkloadGeneration draws one conditioned session (region,
// period, passive/active, query stream) at a fixed start time.
func BenchmarkWorkloadGeneration(b *testing.B) {
	gen := NewGenerator(DefaultConfig(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gen.SessionAt(0) == nil {
			b.Fatal("nil session")
		}
	}
}
