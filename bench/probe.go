package main

import (
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// probeRefS is what speedProbe takes on the machine baseline/pr12.json was
// recorded on (2 vCPUs of a Xeon at 2.1 GHz) while its neighbours are idle.
// A time metric is reported as measured × probeRefS ÷ the probe's time
// around that measurement: seconds at the speed at which the probe takes
// probeRefS.
const probeRefS = 0.205

// probeSink takes the probe's results, so that the compiler keeps its work.
var probeSink int

// speedProbe runs a fixed kernel of this package's own — map lookups,
// small allocations, a sort: the mix of a Go program with a heap, and no
// code of the program under test — on every P at once and returns the
// seconds the quickest of them took. The host this benchmark runs on
// shares its cores, and for minutes on end is a third slower than for the
// minutes before and after: ten passes in a row read 2.1 s, the next ten
// 2.9 s. No statistic over one run's passes sees through that; the probe
// does, because it slows down with them. The quickest P is the one no
// short burst on a single core held up, and follows the passes most
// closely (README.md, "The speed probe", has the measurements).
func speedProbe() float64 {
	took := make([]float64, runtime.GOMAXPROCS(0))
	sums := make([]int, len(took))
	var wg sync.WaitGroup
	for g := range took {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			r := rand.New(rand.NewSource(int64(g) + 1))
			seen := make(map[uint64]*[4]uint64)
			xs := make([]float64, 0, 1<<15)
			for i := 0; i < 1_500_000; i++ {
				k := r.Uint64() % 50_000
				p := seen[k]
				if p == nil {
					p = new([4]uint64)
					seen[k] = p
				}
				p[i&3] += k
				xs = append(xs, r.Float64())
				if len(xs) == cap(xs) {
					sort.Float64s(xs)
					sums[g] += int(xs[7] * 10)
					xs = xs[:0]
				}
			}
			sums[g] += len(seen)
			took[g] = time.Since(t0).Seconds()
		}()
	}
	wg.Wait()
	probeSink += slices.Max(sums)
	return slices.Min(took)
}
