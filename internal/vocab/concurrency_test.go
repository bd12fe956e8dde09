package vocab

import (
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/stats"
)

// TestConcurrentSampleDeterminism races many goroutines over a shared
// vocabulary, all forcing cold rankings, and checks the outcome matches a
// fresh sequential vocabulary: the lazily-built shards must not depend on
// who builds them or in which order.
func TestConcurrentSampleDeterminism(t *testing.T) {
	const days = 12
	shared := New(99)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for i := 0; i < 500; i++ {
				day := (g + i) % days
				if shared.Sample(rng, geo.NorthAmerica, day) == "" {
					t.Error("empty sample")
					return
				}
				if shared.queryAt(All, day, 1) == "" {
					t.Error("empty top query")
					return
				}
			}
		}(g)
	}
	wg.Wait()

	seq := New(99)
	for c := Class(0); c < NumClasses; c++ {
		for day := 0; day < days; day++ {
			k := dailySize(seq, c)
			if k > 50 {
				k = 50
			}
			want := seq.TopK(c, day, k)
			got := shared.TopK(c, day, k)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("class %v day %d rank %d: concurrent %q != sequential %q",
						c, day, i+1, got[i], want[i])
				}
			}
		}
	}
}

// TestTopPrefixMatchesSort cross-checks the ranking's partial selection
// (stats.SelectK under scoredLess) against a full sort on adversarial
// inputs, including duplicate scores.
func TestTopPrefixMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.IntN(400)
		k := 1 + rng.IntN(n-1)
		xs := make([]scoredIdx, n)
		for i := range xs {
			score := rng.NormFloat64()
			if rng.IntN(3) == 0 {
				score = float64(rng.IntN(4)) // force ties
			}
			xs[i] = scoredIdx{idx: int32(i), score: score}
		}
		want := make([]scoredIdx, n)
		copy(want, xs)
		sortScored(want)

		stats.SelectK(xs, k, scoredLess)
		got := xs[:k]
		sortScored(got)
		for i := 0; i < k; i++ {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d k=%d) rank %d: got %+v want %+v",
					trial, n, k, i, got[i], want[i])
			}
		}
	}
}

func sortScored(xs []scoredIdx) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && scoredLess(xs[j], xs[j-1]); j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
