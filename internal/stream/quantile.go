package stream

import (
	"math"
	"sort"
)

// DefaultQuantileEpsilon is the rank-error bound of the online quantile
// summaries: a query for the φ-quantile returns a value whose rank is
// within ε·n of φ·n. At the full-scale run's 4.36 M sessions that is a
// rank window of ±4.4 k observations — far below the resolution of any
// figure in the paper.
const DefaultQuantileEpsilon = 0.001

// Quantile is a Greenwald–Khanna ε-approximate quantile summary
// (GK 2001): a bounded-size ordered list of (value, g, Δ) tuples whose
// size grows with O((1/ε)·log(εn)), not with n. Inserts are buffered and
// merged in sorted batches — one linear merge-and-compress pass per
// buffer — which keeps full-scale ingestion cheap without weakening the
// deterministic ε·n rank guarantee (pinned by test against exact
// order statistics).
//
// The zero value is not ready; use NewQuantile. Not safe for concurrent
// use.
type Quantile struct {
	eps float64
	n   uint64
	sum []gkTuple // sorted by v
	// spare is the previous flush's summary array, which the next flush
	// merges into: the two swap roles, so a summary that has stopped
	// growing flushes without allocating.
	spare []gkTuple
	buf   []float64
	// min/max are tracked exactly: the stream's extremes are free.
	min, max float64
}

// gkTuple covers a band of ranks: g is the rank gap to the previous
// tuple's minimum rank, Δ the extra rank uncertainty.
type gkTuple struct {
	v   float64
	g   uint64
	del uint64
}

// NewQuantile builds a summary with rank error ε (0 < ε < 1); ε ≤ 0
// selects DefaultQuantileEpsilon.
func NewQuantile(eps float64) *Quantile {
	if eps <= 0 || eps >= 1 {
		eps = DefaultQuantileEpsilon
	}
	bufCap := int(1 / (2 * eps))
	if bufCap < 64 {
		bufCap = 64
	}
	return &Quantile{
		eps: eps,
		buf: make([]float64, 0, bufCap),
		min: math.Inf(1),
		max: math.Inf(-1),
	}
}

// Add inserts one observation.
func (q *Quantile) Add(v float64) {
	if v < q.min {
		q.min = v
	}
	if v > q.max {
		q.max = v
	}
	q.buf = append(q.buf, v)
	if len(q.buf) == cap(q.buf) {
		q.flush()
	}
}

// N returns the number of observations.
func (q *Quantile) N() uint64 { return q.n + uint64(len(q.buf)) }

// Epsilon returns the summary's rank-error bound.
func (q *Quantile) Epsilon() float64 { return q.eps }

// Size returns the number of summary tuples currently held (the bounded
// state the memory contract is about).
func (q *Quantile) Size() int {
	q.flush()
	return len(q.sum)
}

// Min and Max return the exact extremes (NaN when empty).
func (q *Quantile) Min() float64 {
	if q.N() == 0 {
		return math.NaN()
	}
	return q.min
}

// Max returns the exact maximum.
func (q *Quantile) Max() float64 {
	if q.N() == 0 {
		return math.NaN()
	}
	return q.max
}

// Query returns a value whose rank is within ε·n of φ·n (NaN when
// empty). φ outside [0,1] is clamped.
func (q *Quantile) Query(phi float64) float64 {
	q.flush()
	if q.n == 0 {
		return math.NaN()
	}
	if phi <= 0 {
		return q.min
	}
	if phi >= 1 {
		return q.max
	}
	target := phi * float64(q.n)
	slack := q.eps * float64(q.n)
	var acc uint64
	for i := range q.sum {
		acc += q.sum[i].g
		if float64(acc)+float64(q.sum[i].del) > target+slack {
			if i == 0 {
				return q.sum[0].v
			}
			return q.sum[i-1].v
		}
	}
	return q.sum[len(q.sum)-1].v
}

// flush merges the sorted buffer into the summary in one linear pass and
// compresses against the invariant g + Δ ≤ 2εn.
func (q *Quantile) flush() {
	if len(q.buf) == 0 {
		return
	}
	sort.Float64s(q.buf)
	q.n += uint64(len(q.buf))
	threshold := uint64(2 * q.eps * float64(q.n))
	if threshold < 1 {
		threshold = 1
	}

	merged := q.spare[:0]
	if need := len(q.sum) + len(q.buf); cap(merged) < need {
		merged = make([]gkTuple, 0, need)
	}
	i, j := 0, 0
	for i < len(q.sum) || j < len(q.buf) {
		if j >= len(q.buf) || (i < len(q.sum) && q.sum[i].v <= q.buf[j]) {
			merged = append(merged, q.sum[i])
			i++
			continue
		}
		// New observation: at the extremes its rank is known exactly
		// (Δ = 0); in the interior it may sit anywhere within the
		// enclosing band (Δ = threshold-1, the GK insertion rule).
		var del uint64
		if i > 0 && i < len(q.sum) && threshold > 0 {
			del = threshold - 1
		}
		merged = append(merged, gkTuple{v: q.buf[j], g: 1, del: del})
		j++
	}
	q.buf = q.buf[:0]

	// Compress: fold a tuple into its successor whenever the combined
	// band still fits the invariant. The first and last tuples always
	// survive, so the summary's end values remain the global extremes —
	// which is what lets a batch value sorting before (after) the whole
	// summary be inserted with Δ = 0 as a new exact minimum (maximum).
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
	q.spare, q.sum = q.sum, out
}
