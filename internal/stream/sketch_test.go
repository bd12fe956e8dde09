package stream

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"time"
)

// TestTopKExactWithinCapacity: while distinct keys fit the capacity the
// sketch is a plain exact counter.
func TestTopKExactWithinCapacity(t *testing.T) {
	tk := NewTopK(64)
	truth := map[string]uint64{}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("key-%d", rng.IntN(50))
		tk.Add(k)
		truth[k]++
	}
	if !tk.Exact() {
		t.Fatal("sketch with spare capacity reports inexact")
	}
	if tk.ErrBound() != 0 {
		t.Fatalf("ErrBound = %d, want 0", tk.ErrBound())
	}
	for _, e := range tk.Top(50) {
		if truth[e.Key] != e.Count {
			t.Fatalf("key %s: count %d, want %d", e.Key, e.Count, truth[e.Key])
		}
	}
}

// TestTopKHeavyHittersBeyondCapacity: with a skewed stream overflowing
// the capacity, every true heavy hitter must be present and each reported
// count must bracket the truth within Err (the Space-Saving guarantee).
func TestTopKHeavyHittersBeyondCapacity(t *testing.T) {
	const capacity = 32
	tk := NewTopK(capacity)
	truth := map[string]uint64{}
	rng := rand.New(rand.NewPCG(7, 9))
	// Zipf-ish skew over 1000 distinct keys.
	zipf := rand.NewZipf(rng, 1.3, 1, 999)
	var n uint64
	for i := 0; i < 200000; i++ {
		k := fmt.Sprintf("key-%d", zipf.Uint64())
		tk.Add(k)
		truth[k]++
		n++
	}
	if tk.Exact() {
		t.Fatal("overflowed sketch claims exactness")
	}
	if b := tk.ErrBound(); b > n/capacity {
		t.Fatalf("ErrBound %d exceeds N/m = %d", b, n/capacity)
	}
	// Every key with true count > N/m must be present.
	reported := map[string]TopKEntry{}
	for _, e := range tk.Top(capacity) {
		reported[e.Key] = e
	}
	for k, c := range truth {
		if c > n/capacity {
			e, ok := reported[k]
			if !ok {
				t.Fatalf("heavy hitter %s (count %d > %d) missing", k, c, n/capacity)
			}
			if e.Count < c || e.Count-e.Err > c {
				t.Fatalf("key %s: reported %d (err %d) does not bracket true %d", k, e.Count, e.Err, c)
			}
		}
	}
}

// TestTopKDeterministic: same stream, same ranking.
func TestTopKDeterministic(t *testing.T) {
	build := func() []TopKEntry {
		tk := NewTopK(16)
		rng := rand.New(rand.NewPCG(3, 4))
		for i := 0; i < 50000; i++ {
			tk.Add(fmt.Sprintf("key-%d", rng.IntN(200)))
		}
		return tk.Top(16)
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatal("rankings differ in length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("entry %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// rankOf returns the number of sorted values ≤ v.
func rankOf(sorted []float64, v float64) int {
	return sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1)))
}

// TestQuantileRankGuarantee pins the GK contract on several input shapes:
// the returned value's rank must be within ε·n (+1 for boundary effects)
// of the target rank.
func TestQuantileRankGuarantee(t *testing.T) {
	const n = 200000
	shapes := map[string]func(r *rand.Rand, i int) float64{
		"uniform":   func(r *rand.Rand, _ int) float64 { return r.Float64() },
		"lognormal": func(r *rand.Rand, _ int) float64 { return math.Exp(2 + 1.5*r.NormFloat64()) },
		"sorted":    func(_ *rand.Rand, i int) float64 { return float64(i) },
		"reversed":  func(_ *rand.Rand, i int) float64 { return float64(n - i) },
		"constant":  func(_ *rand.Rand, _ int) float64 { return 42 },
	}
	for name, gen := range shapes {
		t.Run(name, func(t *testing.T) {
			const eps = 0.005
			q := NewQuantile(eps)
			rng := rand.New(rand.NewPCG(11, 13))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(rng, i)
				q.Add(xs[i])
			}
			sort.Float64s(xs)
			for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
				got := q.Query(phi)
				r := rankOf(xs, got)
				lo := rankOf(xs, math.Nextafter(got, math.Inf(-1)))
				target := phi * n
				slack := eps*n + 1
				// The value covers ranks (lo, r]; the guarantee holds if
				// that band comes within slack of the target.
				if float64(lo) > target+slack || float64(r) < target-slack {
					t.Errorf("phi=%.2f: value %g covers ranks (%d,%d], target %.0f ± %.0f",
						phi, got, lo, r, target, slack)
				}
			}
			if q.Min() != xs[0] || q.Max() != xs[n-1] {
				t.Errorf("extremes: got (%g,%g), want (%g,%g)", q.Min(), q.Max(), xs[0], xs[n-1])
			}
		})
	}
}

// TestQuantileBoundedSize: the summary must stay orders of magnitude
// below the stream length.
func TestQuantileBoundedSize(t *testing.T) {
	q := NewQuantile(0.001)
	rng := rand.New(rand.NewPCG(5, 6))
	const n = 500000
	for i := 0; i < n; i++ {
		q.Add(rng.ExpFloat64())
	}
	if s := q.Size(); s > n/20 {
		t.Fatalf("summary holds %d tuples for %d observations — not bounded", s, n)
	}
}

// allocatingFlush is Quantile.flush as it was before the summary kept a
// spare merge buffer: it merges into a freshly made slice. It is the
// oracle the reusing flush is held to.
func allocatingFlush(q *Quantile) {
	if len(q.buf) == 0 {
		return
	}
	sort.Float64s(q.buf)
	q.n += uint64(len(q.buf))
	threshold := uint64(2 * q.eps * float64(q.n))
	if threshold < 1 {
		threshold = 1
	}
	merged := make([]gkTuple, 0, len(q.sum)+len(q.buf))
	i, j := 0, 0
	for i < len(q.sum) || j < len(q.buf) {
		if j >= len(q.buf) || (i < len(q.sum) && q.sum[i].v <= q.buf[j]) {
			merged = append(merged, q.sum[i])
			i++
			continue
		}
		var del uint64
		if i > 0 && i < len(q.sum) && threshold > 0 {
			del = threshold - 1
		}
		merged = append(merged, gkTuple{v: q.buf[j], g: 1, del: del})
		j++
	}
	q.buf = q.buf[:0]
	out := merged[:0]
	for k := 0; k < len(merged); k++ {
		t := merged[k]
		if k > 0 {
			for k+1 < len(merged) && t.g+merged[k+1].g+merged[k+1].del < threshold {
				next := merged[k+1]
				next.g += t.g
				t = next
				k++
			}
		}
		out = append(out, t)
	}
	q.sum = out
}

// TestQuantileFlushMatchesAllocatingFlush feeds one stream to a summary
// and to a reference flushed by allocatingFlush, over well past 50
// flushes, some forced early by Query: every summary tuple, every
// Query(φ) and Size must agree.
func TestQuantileFlushMatchesAllocatingFlush(t *testing.T) {
	q, ref := NewQuantile(0.002), NewQuantile(0.002)
	rng := rand.New(rand.NewPCG(3, 4))
	flushes := 0
	for i := range 60_000 {
		v := math.Exp(3 + 1.5*rng.NormFloat64())
		if i%3 == 0 {
			v = float64(rng.IntN(40)) // ties
		}
		q.Add(v)
		ref.min, ref.max = min(ref.min, v), max(ref.max, v)
		ref.buf = append(ref.buf, v)
		full := len(ref.buf) == cap(ref.buf)
		if full || i%7919 == 0 {
			allocatingFlush(ref)
			flushes++
			if !full {
				q.flush()
			}
			if !slices.Equal(q.sum, ref.sum) {
				t.Fatalf("after %d values: summary differs from the allocating flush's", i+1)
			}
			if q.Size() != ref.Size() {
				t.Fatalf("after %d values: Size %d, allocating flush %d", i+1, q.Size(), ref.Size())
			}
			for _, phi := range []float64{0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
				if got, want := q.Query(phi), ref.Query(phi); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("after %d values: Query(%g) = %g, allocating flush %g", i+1, phi, got, want)
				}
			}
		}
	}
	if flushes < 50 {
		t.Fatalf("only %d flushes compared", flushes)
	}
}

// TestQuantileAddAllocatesNothing: once the summary has stopped growing,
// a flush merges into the spare array of the one before, so Add
// allocates nothing.
func TestQuantileAddAllocatesNothing(t *testing.T) {
	q := NewQuantile(0.001)
	i := 0
	add := func() {
		for range cap(q.buf) {
			q.Add(float64(i%100_000) * 0.37)
			i++
		}
	}
	for range 1000 {
		add()
	}
	// One run is a whole flush cycle; AllocsPerRun(1, f) runs f once to
	// warm up and reports the second run's exact count.
	for range 50 {
		if a := testing.AllocsPerRun(1, add); a != 0 {
			t.Fatalf("a steady-state flush cycle of Add made %v allocations", a)
		}
	}
}

// TestQuantileEmptyAndSmall covers the degenerate cases.
func TestQuantileEmptyAndSmall(t *testing.T) {
	q := NewQuantile(0.01)
	if !math.IsNaN(q.Query(0.5)) {
		t.Fatal("empty summary should answer NaN")
	}
	q.Add(3)
	if got := q.Query(0.5); got != 3 {
		t.Fatalf("single-value median = %g, want 3", got)
	}
	q.Add(1)
	q.Add(2)
	if got := q.Query(0); got != 1 {
		t.Fatalf("phi=0 = %g, want exact min 1", got)
	}
	if got := q.Query(1); got != 3 {
		t.Fatalf("phi=1 = %g, want exact max 3", got)
	}
}

// TestRateWindow: counts slide out of the window as the leading edge
// advances, and the lifetime total survives.
func TestRateWindow(t *testing.T) {
	w := NewRateWindow(time.Minute, 10) // 10-minute window
	for i := 0; i < 60; i++ {
		w.Add(time.Duration(i) * 30 * time.Second) // one every 30 s for 30 min
	}
	if w.Total() != 60 {
		t.Fatalf("Total = %d, want 60", w.Total())
	}
	if got := w.InWindow(); got != 20 {
		t.Fatalf("InWindow = %d, want 20 (2/min × 10 min)", got)
	}
	if got := w.PerHour(); math.Abs(got-120) > 1e-9 {
		t.Fatalf("PerHour = %g, want 120", got)
	}
	// A far jump resets the window but not the total.
	w.Add(5 * time.Hour)
	if w.InWindow() != 1 || w.Total() != 61 {
		t.Fatalf("after jump: InWindow=%d Total=%d, want 1, 61", w.InWindow(), w.Total())
	}
	// An event older than the window counts toward the total only.
	w.Add(time.Hour)
	if w.InWindow() != 1 || w.Total() != 62 {
		t.Fatalf("stale add: InWindow=%d Total=%d, want 1, 62", w.InWindow(), w.Total())
	}
	if w.PeakInWindow() < 20 {
		t.Fatalf("PeakInWindow = %d, want ≥ 20", w.PeakInWindow())
	}
}
