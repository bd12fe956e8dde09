package behavior

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/workload"
)

// BenchmarkGeneratorNext is the arrival-generation stage in isolation:
// one composed arrival (thinned Poisson step, user session, quick/wrap
// shaping, churn hook) per op, so ns/op and B/op read per arrival, and
// allocs/arrival gives the fractional allocation count that allocs/op
// truncates. "into" is the engine producer's path, one Session refilled
// by NextInto; "fresh" is Next, which returns a new *Session each call.
// The generator is rebuilt off the clock whenever its 40-day horizon runs
// out.
func BenchmarkGeneratorNext(b *testing.B) {
	newGen := func() *Generator { return NewGenerator(workload.DefaultConfig(2004, 0.2)) }
	run := func(b *testing.B, next func(g *Generator) bool) {
		g := newGen()
		var before, after runtime.MemStats
		b.ReportAllocs()
		b.ResetTimer()
		runtime.ReadMemStats(&before)
		for i := 0; i < b.N; i++ {
			if !next(g) {
				b.StopTimer()
				g = newGen()
				b.StartTimer()
				next(g)
			}
		}
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/arrival")
	}
	b.Run("into", func(b *testing.B) {
		var s Session
		run(b, func(g *Generator) bool { return g.NextInto(&s) })
	})
	b.Run("fresh", func(b *testing.B) {
		run(b, func(g *Generator) bool {
			benchSink = g.Next()
			return benchSink != nil
		})
	})
}

// benchSink keeps Next's result on the heap, as a real consumer would.
var benchSink *Session

// TestGeneratorAllocationBudget pins the producer path's allocation rate:
// refilling one Session through NextInto may allocate at most 0.4 times
// per arrival on average at seed 2004 (it does 0.29; Next on the old
// generator did 2.76). The user-session skeleton, the shaper's stream
// buffer and the sort keys are reused scratch, and dropping the reuse of
// any one of them lifts the rate to 0.47–0.59; what is left is each
// session's exact-size query stream and the strings drawn into it.
func TestGeneratorAllocationBudget(t *testing.T) {
	const budget = 0.4
	g := NewGenerator(goldenConfig(nil))
	var s Session
	// Warm the scratch buffers up, then count over 20,000 arrivals, which
	// stay inside the 2-day horizon (43,852 arrivals). The count comes
	// from MemStats because testing.AllocsPerRun truncates to a whole
	// number per run.
	const warm, runs = 1000, 20000
	for i := 0; i < warm; i++ {
		g.NextInto(&s)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if !g.NextInto(&s) {
			t.Fatal("generator ran out of arrivals")
		}
	}
	runtime.ReadMemStats(&after)
	if allocs := float64(after.Mallocs-before.Mallocs) / runs; allocs > budget {
		t.Errorf("NextInto allocates %.3f times per arrival, budget %.1f", allocs, budget)
	} else {
		t.Logf("NextInto allocates %.3f times per arrival (budget %.1f)", allocs, budget)
	}
}

// referenceSortQueries is the stream order the shaper has always produced:
// a stable sort by offset.
func referenceSortQueries(qs []TimedQuery) {
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].Offset < qs[j].Offset })
}

// FuzzSortQueries checks the shaper's key sort and copy-out against the
// stable-sort reference on arbitrary streams. Each byte is one query's
// offset on a grid of mod+1 values, so small mods make long runs of equal
// offsets, where only a stable order is correct; each query's text is its
// generation index, so the comparison sees any reordering of ties. Each
// byte of spares first recycles a dirty array of that capacity, so the
// copy-out may land in a recycled array shorter or longer than the
// stream; the stream is then recycled and copied out once more.
func FuzzSortQueries(f *testing.F) {
	mixed := []byte{1, 3, 7, 12, 13, 16, 31, 64, 200, 255, 2, 5}
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, uint8(0), []byte(nil))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}, uint8(0), []byte{11, 12, 13})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, uint8(255), mixed)
	f.Add([]byte{13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(255), []byte{15})
	f.Add([]byte{9, 3, 9, 1, 3, 3, 0, 9, 1, 1, 7, 3, 0, 0, 9, 2}, uint8(3), []byte{8, 31, 16})
	f.Add([]byte{200, 100, 200, 100, 50, 50, 200, 0}, uint8(1), mixed)
	f.Add([]byte{}, uint8(7), mixed)
	// Past pdqsort's 12-element insertion-sort cutoff, where an unstable
	// order of ties would show.
	long := make([]byte, 200)
	for i := range long {
		long[i] = byte(i * 37)
	}
	f.Add(long, uint8(2), []byte(nil))
	f.Add(long, uint8(255), mixed)
	f.Add(long, uint8(255), []byte{199, 255})
	f.Fuzz(func(t *testing.T, offsets []byte, mod uint8, spares []byte) {
		qs := make([]TimedQuery, len(offsets))
		for i, b := range offsets {
			qs[i] = TimedQuery{
				Offset: time.Duration(int(b)%(int(mod)+1)) * time.Second,
				Text:   fmt.Sprint(i),
				Kind:   QueryKind(i % 5),
			}
		}
		want := slices.Clone(qs)
		referenceSortQueries(want)

		sh := &Shaper{buf: slices.Clone(qs)}
		for _, c := range spares {
			dirty := make([]TimedQuery, c)
			for i := range dirty {
				dirty[i] = poisonQuery
			}
			sh.recycle(dirty)
		}
		got := sh.finishQueries()
		if len(qs) == 0 {
			if got != nil {
				t.Fatalf("empty stream copied out as %v, want nil", got)
			}
			return
		}
		if !slices.Equal(got, want) {
			t.Fatalf("key sort\n got %v\nwant %v", got, want)
		}
		if !slices.Equal(sh.buf, qs) {
			t.Fatal("the collected stream was modified")
		}
		if len(got) != cap(got) {
			t.Fatalf("copied out at cap %d for %d queries", cap(got), len(got))
		}
		sh.recycle(got)
		again := sh.finishQueries()
		if !slices.Equal(again, want) || len(again) != cap(again) {
			t.Fatalf("copied out again into a recycled array as %v (cap %d), want %v", again, cap(again), want)
		}
	})
}
