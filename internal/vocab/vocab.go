// Package vocab models the query-string population: seven geographic
// query classes (Table 3), per-day Zipf-like popularity within each class
// (Figure 11), and day-to-day hot-set drift (Figure 10).
//
// Every query string belongs to exactly one class — issued only by one
// region, by a pair of regions, or by all three. Each class owns a pool of
// synthetic query strings; each trace day, the pool is re-ranked by a noisy
// popularity score (persistent base popularity × day-specific lognormal
// shock), and the day's active vocabulary is the top slice of that ranking.
// Queries are drawn from the day's vocabulary by a Zipf-like rank
// distribution with the class's α.
//
// The drift constants are calibrated against Figure 10: on roughly 80% of
// days, at most 4 of day n's top-10 queries reappear in day n+1's top-100.
//
// Concurrency: a Vocabulary is safe for concurrent use and designed for
// parallel workload generation. Day rankings are sharded per class and
// built lazily exactly once (sync.Map + sync.Once per (class, day)), so
// concurrent samplers only contend when they race to rank the same class
// on the same day; steady-state draws are lock-free map hits. The ranking
// itself is a top-K partial selection (K = the class's daily vocabulary,
// typically ≪ pool) over scores drawn from a per-(seed, class, day) PCG
// stream, which makes the result independent of which goroutine builds it.
package vocab

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/stats"
)

// Class identifies one of the seven geographic query classes of Table 3.
type Class uint8

// The seven classes: three single-region, three pairwise, one global.
const (
	NAOnly Class = iota
	EUOnly
	ASOnly
	NAEU
	NAAS
	EUAS
	All
	NumClasses
)

func (c Class) String() string {
	switch c {
	case NAOnly:
		return "NA-only"
	case EUOnly:
		return "EU-only"
	case ASOnly:
		return "AS-only"
	case NAEU:
		return "NA∩EU"
	case NAAS:
		return "NA∩AS"
	case EUAS:
		return "EU∩AS"
	case All:
		return "NA∩EU∩AS"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Regions returns the regions whose peers issue queries of this class.
func (c Class) Regions() []geo.Region {
	switch c {
	case NAOnly:
		return []geo.Region{geo.NorthAmerica}
	case EUOnly:
		return []geo.Region{geo.Europe}
	case ASOnly:
		return []geo.Region{geo.Asia}
	case NAEU:
		return []geo.Region{geo.NorthAmerica, geo.Europe}
	case NAAS:
		return []geo.Region{geo.NorthAmerica, geo.Asia}
	case EUAS:
		return []geo.Region{geo.Europe, geo.Asia}
	case All:
		return []geo.Region{geo.NorthAmerica, geo.Europe, geo.Asia}
	default:
		return nil
	}
}

// classMix gives, per region, the probability that a query drawn by a peer
// of that region comes from each class. The paper's synthetic recipe puts
// North American queries in the NA-only set with probability 0.97 and in
// the intersection otherwise; the pairwise/triple split is set so the
// resulting per-day set sizes approximate Table 3 (intersections with Asia
// are an order of magnitude smaller than NA∩EU).
var classMix = map[geo.Region][NumClasses]float64{
	geo.NorthAmerica: {NAOnly: 0.970, NAEU: 0.024, NAAS: 0.003, All: 0.003},
	geo.Europe:       {EUOnly: 0.970, NAEU: 0.024, EUAS: 0.003, All: 0.003},
	geo.Asia:         {ASOnly: 0.920, NAAS: 0.030, EUAS: 0.030, All: 0.020},
	// Peers outside the three continents draw from the global set and the
	// NA set (most "Other" peers are culturally closest to the NA catalog).
	geo.Other: {NAOnly: 0.50, EUOnly: 0.25, All: 0.25},
}

// ClassProbs returns the class mix for a region.
func ClassProbs(r geo.Region) [NumClasses]float64 {
	if m, ok := classMix[r]; ok {
		return m
	}
	return classMix[geo.Other]
}

// classShape holds the per-class population constants.
type classShape struct {
	pool  int // underlying pool of distinct query strings
	daily int // size of the day's active vocabulary (Table 3, 1-day column)
	// alpha is the Zipf skew of Figure 11; classes without a published
	// value get inferred ones.
	alpha float64
	// twoSegment marks the intersection class fitted with two Zipf
	// segments in Figure 11(c).
	twoSegment bool
}

// Shapes per class. Daily sizes follow Table 3's 1-day column; pool sizes
// are set so multi-day unions grow roughly like the 2-day column (the
// 4-day column is not exactly reachable with any stationary daily-draw
// model).
var classShapes = [NumClasses]classShape{
	NAOnly: {pool: 10000, daily: 1990, alpha: 0.386},
	EUOnly: {pool: 15000, daily: 1934, alpha: 0.223},
	ASOnly: {pool: 1000, daily: 153, alpha: 0.30},
	NAEU:   {pool: 2000, daily: 56, alpha: 0.453, twoSegment: true},
	NAAS:   {pool: 200, daily: 5, alpha: 0.40},
	EUAS:   {pool: 200, daily: 5, alpha: 0.40},
	All:    {pool: 50, daily: 2, alpha: 0.40},
}

// Drift constants: scores are base(rank)^(-gamma) × exp(sigma·Z). The
// values reproduce Figure 10's hot-set drift — with a 10,000-query pool,
// about 80–85% of days see at most 4 of the previous day's top-10 survive
// into the next day's top-100 (see the calibration test).
const (
	driftGamma = 0.70
	driftSigma = 1.50
)

// TwoSegmentSplit and the tail skew parameterize the Figure 11(c)
// intersection fit: α = 0.453 for ranks 1–45 and 4.67 beyond.
const (
	TwoSegmentSplit     = 45
	TwoSegmentTailAlpha = 4.67
)

// Vocabulary is the full query-string population. It is safe for
// concurrent use; per-day rankings are sharded by class, computed lazily
// exactly once, and cached.
type Vocabulary struct {
	seed    uint64
	classes [NumClasses]classData
}

type classData struct {
	strings []string
	ranker  dist.Ranker
	shape   classShape
	// days caches day (int) → *dayRank. Reads on the steady-state sample
	// path are lock-free; builds are serialized per (class, day) by the
	// entry's sync.Once, never across classes.
	days sync.Map
	// scores pools the scratch buffers of the ranking build.
	scores sync.Pool
}

// dayRank is one class's ranking for one day. ranked[i] is the index
// (into the class's pool) of the query at day-rank i+1; only the top
// `daily` ranks exist — no caller can address ranks beyond the day's
// active vocabulary.
type dayRank struct {
	once   sync.Once
	ranked []int32
}

// scoredIdx pairs a pool index with its day score for the ranking build.
type scoredIdx struct {
	idx   int32
	score float64
}

// New builds the vocabulary with deterministic content for a given seed.
func New(seed uint64) *Vocabulary {
	v := &Vocabulary{seed: seed}
	seen := make(map[string]bool)
	for c := Class(0); c < NumClasses; c++ {
		shape := classShapes[c]
		rng := rand.New(rand.NewPCG(seed, uint64(c)+1000))
		strs := make([]string, shape.pool)
		for i := range strs {
			s := genQueryString(rng)
			for seen[s] {
				s = genQueryString(rng)
			}
			seen[s] = true
			strs[i] = s
		}
		var ranker dist.Ranker
		if shape.twoSegment {
			split := TwoSegmentSplit
			if split > shape.daily {
				split = shape.daily
			}
			ranker = dist.NewTwoSegmentZipf(shape.alpha, TwoSegmentTailAlpha, split, shape.daily)
		} else {
			ranker = dist.NewZipf(shape.alpha, shape.daily)
		}
		cd := &v.classes[c]
		cd.strings = strs
		cd.ranker = ranker
		cd.shape = shape
		pool := shape.pool
		cd.scores.New = func() any {
			s := make([]scoredIdx, pool)
			return &s
		}
	}
	return v
}

// syllables for the synthetic query-string generator. Two to four
// syllables per word, one to three words per query, give ≈10⁹ possible
// strings: collisions are resolved by redrawing.
var syllables = []string{
	"ba", "be", "bi", "bo", "bu", "da", "de", "di", "do", "du",
	"ka", "ke", "ki", "ko", "ku", "la", "le", "li", "lo", "lu",
	"ma", "me", "mi", "mo", "mu", "na", "ne", "ni", "no", "nu",
	"ra", "re", "ri", "ro", "ru", "sa", "se", "si", "so", "su",
	"ta", "te", "ti", "to", "tu", "va", "ve", "vi", "vo", "vu",
}

func genQueryString(rng *rand.Rand) string {
	words := 1 + rng.IntN(3)
	out := make([]byte, 0, 24)
	for w := 0; w < words; w++ {
		if w > 0 {
			out = append(out, ' ')
		}
		sylls := 2 + rng.IntN(3)
		for s := 0; s < sylls; s++ {
			out = append(out, syllables[rng.IntN(len(syllables))]...)
		}
	}
	return string(out)
}

// rankedFor returns the class's day ranking, building it lazily on first
// use. Concurrent callers for the same (class, day) block on one build;
// everyone else proceeds lock-free.
func (v *Vocabulary) rankedFor(c Class, day int) []int32 {
	d := &v.classes[c]
	entry, ok := d.days.Load(day)
	if !ok {
		entry, _ = d.days.LoadOrStore(day, &dayRank{})
	}
	r := entry.(*dayRank)
	r.once.Do(func() { r.ranked = v.buildRanking(c, day) })
	return r.ranked
}

// buildRanking computes one class's day ranking: score the full pool from
// the deterministic per-(seed, class, day) PCG stream, then partially
// select the top `daily` by score. The result is identical to a full
// descending sort truncated to `daily` (ties, which the continuous scores
// make vanishingly unlikely, break by pool index), but costs
// O(pool + daily·log daily) instead of O(pool·log pool) and reuses its
// scratch buffer across builds.
func (v *Vocabulary) buildRanking(c Class, day int) []int32 {
	d := &v.classes[c]
	pool := d.shape.pool
	daily := d.shape.daily
	// Deterministic per (seed, class, day) score noise: independent of
	// which goroutine builds the ranking, and of build order across days.
	rng := rand.New(rand.NewPCG(v.seed^0xd1f7a22b, uint64(c)<<32|uint64(uint32(day))))
	bufp := d.scores.Get().(*[]scoredIdx)
	scores := (*bufp)[:pool]
	for i := 0; i < pool; i++ {
		base := -driftGamma * math.Log(float64(i+1))
		shock := driftSigma * rng.NormFloat64()
		scores[i] = scoredIdx{idx: int32(i), score: base + shock}
	}
	if daily < pool {
		stats.SelectK(scores, daily, scoredLess)
		scores = scores[:daily]
	}
	sort.Slice(scores, func(a, b int) bool { return scoredLess(scores[a], scores[b]) })
	ranked := make([]int32, len(scores))
	for i, s := range scores {
		ranked[i] = s.idx
	}
	d.scores.Put(bufp)
	return ranked
}

// scoredLess orders by score descending with pool-index ascending as the
// tie break, a total order that makes the selection deterministic.
func scoredLess(a, b scoredIdx) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.idx < b.idx
}

// DailySize returns the number of distinct queries active per day in the
// class.
func (v *Vocabulary) DailySize(c Class) int { return v.classes[c].shape.daily }

// PoolSize returns the class's total pool of distinct query strings.
func (v *Vocabulary) PoolSize(c Class) int { return v.classes[c].shape.pool }

// Alpha returns the class's Zipf skew.
func (v *Vocabulary) Alpha(c Class) float64 { return v.classes[c].shape.alpha }

// QueryAt returns the query string at the given day-rank (1-based) of the
// class on the given day.
func (v *Vocabulary) QueryAt(c Class, day, rank int) string {
	d := &v.classes[c]
	if rank < 1 || rank > d.shape.daily {
		panic(fmt.Sprintf("vocab: rank %d out of range for %v", rank, c))
	}
	return d.strings[v.rankedFor(c, day)[rank-1]]
}

// PickClass samples the class of a query issued by a peer in the region.
func PickClass(rng *rand.Rand, r geo.Region) Class {
	probs := ClassProbs(r)
	u := rng.Float64()
	for c := Class(0); c < NumClasses; c++ {
		if u < probs[c] {
			return c
		}
		u -= probs[c]
	}
	// Round-off: fall back to the region's dominant class.
	switch r {
	case geo.Europe:
		return EUOnly
	case geo.Asia:
		return ASOnly
	default:
		return NAOnly
	}
}

// Sample draws one query string for a peer in the region on the given day:
// pick a class by the region's mix, then a day-rank by the class's
// Zipf-like law, then resolve it through the day's drifted ranking.
func (v *Vocabulary) Sample(rng *rand.Rand, region geo.Region, day int) string {
	c := PickClass(rng, region)
	rank := v.classes[c].ranker.SampleRank(rng)
	return v.QueryAt(c, day, rank)
}

// SampleClass draws a query string from a specific class on the given day.
func (v *Vocabulary) SampleClass(rng *rand.Rand, c Class, day int) string {
	rank := v.classes[c].ranker.SampleRank(rng)
	return v.QueryAt(c, day, rank)
}

// TopK returns the day's k most popular query strings of the class, in
// rank order.
func (v *Vocabulary) TopK(c Class, day, k int) []string {
	d := &v.classes[c]
	if k > d.shape.daily {
		k = d.shape.daily
	}
	ranked := v.rankedFor(c, day)
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = d.strings[ranked[i]]
	}
	return out
}
