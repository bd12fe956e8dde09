package analysis

import (
	"encoding/binary"
	"sort"

	"repro/internal/geo"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// HitRates is the query hit-rate characterization — the paper's stated
// future work ("characterizing the query hit rate of the peers, including
// the correlation of hit rate with other measures"). It measures, for
// every keyword query from a direct peer, how many QUERYHIT responses the
// node observed, and correlates the hit rate with query popularity and
// geography.
type HitRates struct {
	// ByRegion samples hits-per-query for each region.
	ByRegion [geo.NumContinental]stats.Sample
	// AnsweredFraction is the per-region share of queries with ≥1 hit.
	AnsweredFraction [geo.NumContinental]float64
	// Buckets relate same-day query popularity to hit counts.
	Buckets []HitBucket
	// PopularityCorrelation is the Pearson correlation between a query's
	// same-day repetition count and its hit count.
	PopularityCorrelation float64
}

// HitBucket aggregates queries whose keyword set had been seen
// [MinCount, MaxCount] times that day.
type HitBucket struct {
	MinCount, MaxCount int
	N                  int
	MeanHits           float64
	AnsweredFraction   float64
}

// hitBucketBounds defines the popularity buckets.
var hitBucketBounds = [][2]int{{1, 1}, {2, 3}, {4, 7}, {8, 15}, {16, 1 << 30}}

// ComputeHitRates measures the hit-rate extension from the raw trace.
func ComputeHitRates(tr *trace.Trace) HitRates {
	reg := geo.Default()
	var out HitRates
	var answered, totals [geo.NumContinental]int

	// First pass: per-day repetition count of each keyword set, assigning
	// each query its own occurrence index (popularity seen so far).
	type obs struct {
		hits  int
		count int // same-day occurrence index of its keyword set, 1-based
	}
	// One table counts every day's keyword sets: a count's key is the
	// query's day (a varint) followed by its keyword key.
	var dayCounts wire.KeyCounts
	var key []byte
	observations := make([]obs, 0, len(tr.Queries))
	for i := range tr.Queries {
		q := &tr.Queries[i]
		if q.SHA1 {
			continue
		}
		key = binary.AppendVarint(key[:0], int64(simtime.DayIndex(q.At)))
		day := len(key)
		if key = wire.AppendKeywordKey(key, q.Text); len(key) == day {
			continue
		}
		observations = append(observations, obs{hits: int(q.Hits), count: dayCounts.Add(key)})

		if r := reg.Lookup(tr.Conns[q.ConnID].Addr); r < geo.NumContinental {
			out.ByRegion[r].Add(float64(q.Hits))
			totals[r]++
			if q.Hits > 0 {
				answered[r]++
			}
		}
	}
	for r := range totals {
		if totals[r] > 0 {
			out.AnsweredFraction[r] = float64(answered[r]) / float64(totals[r])
		}
	}

	// Popularity buckets and correlation.
	xs := make([]float64, 0, len(observations))
	ys := make([]float64, 0, len(observations))
	bucketAgg := make([]struct {
		n, answered int
		hits        float64
	}, len(hitBucketBounds))
	for _, o := range observations {
		xs = append(xs, float64(o.count))
		ys = append(ys, float64(o.hits))
		idx := sort.Search(len(hitBucketBounds), func(i int) bool {
			return hitBucketBounds[i][1] >= o.count
		})
		if idx == len(hitBucketBounds) {
			idx--
		}
		bucketAgg[idx].n++
		bucketAgg[idx].hits += float64(o.hits)
		if o.hits > 0 {
			bucketAgg[idx].answered++
		}
	}
	for i, agg := range bucketAgg {
		b := HitBucket{MinCount: hitBucketBounds[i][0], MaxCount: hitBucketBounds[i][1], N: agg.n}
		if agg.n > 0 {
			b.MeanHits = agg.hits / float64(agg.n)
			b.AnsweredFraction = float64(agg.answered) / float64(agg.n)
		}
		out.Buckets = append(out.Buckets, b)
	}
	out.PopularityCorrelation = stats.Pearson(xs, ys)
	return out
}
