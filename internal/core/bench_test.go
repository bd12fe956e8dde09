package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// BenchmarkCharacterizeFullSequential pins the pipeline to one worker —
// the reference `make speedup-check` measures the parallel run against.
func BenchmarkCharacterizeFullSequential(b *testing.B) {
	benchCharacterize(b, 1)
}

// BenchmarkCharacterizeFullParallel runs the pipeline at GOMAXPROCS
// workers; on a multi-core host the per-figure and per-fit fan-out is the
// speedup source, on a single core it measures the pool's overhead.
func BenchmarkCharacterizeFullParallel(b *testing.B) {
	benchCharacterize(b, runtime.GOMAXPROCS(0))
}

func benchCharacterize(b *testing.B, workers int) {
	tr := parallelTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := core.CharacterizeOpts(tr, core.Options{Workers: workers})
		if len(c.Sessions) == 0 {
			b.Fatal("no sessions")
		}
	}
}
