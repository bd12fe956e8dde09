package vocab

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dist"
	"repro/internal/geo"
)

func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^77)) }

// dailySize is the number of distinct queries active per day in the class.
func dailySize(v *Vocabulary, c Class) int { return v.classes[c].shape.daily }

func TestClassRegions(t *testing.T) {
	if rs := NAOnly.Regions(); len(rs) != 1 || rs[0] != geo.NorthAmerica {
		t.Errorf("NAOnly regions = %v", rs)
	}
	if rs := NAEU.Regions(); len(rs) != 2 {
		t.Errorf("NAEU regions = %v", rs)
	}
	if rs := All.Regions(); len(rs) != 3 {
		t.Errorf("All regions = %v", rs)
	}
}

func TestClassProbsSumToOne(t *testing.T) {
	for _, r := range geo.Regions {
		probs := classProbs(r)
		var sum float64
		for _, p := range probs {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v: class probs sum to %v", r, sum)
		}
	}
}

func TestClassProbsPaperRecipe(t *testing.T) {
	// "For North American peers, a query is in the set of North American
	// queries with a probability of 0.97."
	na := classProbs(geo.NorthAmerica)
	if math.Abs(na[NAOnly]-0.97) > 1e-9 {
		t.Errorf("NA own-set probability = %v, want 0.97", na[NAOnly])
	}
	if na[EUOnly] != 0 || na[ASOnly] != 0 || na[EUAS] != 0 {
		t.Error("NA peers must not draw from EU-only/AS-only/EU∩AS sets")
	}
	eu := classProbs(geo.Europe)
	if math.Abs(eu[EUOnly]-0.97) > 1e-9 {
		t.Errorf("EU own-set probability = %v", eu[EUOnly])
	}
}

func TestVocabularyDeterminism(t *testing.T) {
	a := New(7)
	b := New(7)
	for c := Class(0); c < NumClasses; c++ {
		for _, day := range []int{0, 5, 39} {
			if a.queryAt(c, day, 1) != b.queryAt(c, day, 1) {
				t.Fatalf("class %v day %d: rank-1 differs between identical seeds", c, day)
			}
		}
	}
	if New(8).queryAt(NAOnly, 0, 1) == a.queryAt(NAOnly, 0, 1) {
		t.Error("different seeds should give different vocabularies")
	}
}

func TestDailySizesMatchTable3(t *testing.T) {
	v := New(1)
	want := map[Class]int{
		NAOnly: 1990, EUOnly: 1934, ASOnly: 153,
		NAEU: 56, NAAS: 5, EUAS: 5, All: 2,
	}
	for c, w := range want {
		if got := dailySize(v, c); got != w {
			t.Errorf("%v daily size = %d, want %d", c, got, w)
		}
		if v.classes[c].shape.pool < w {
			t.Errorf("%v pool smaller than daily size", c)
		}
	}
}

func TestClassStringsAreDisjoint(t *testing.T) {
	v := New(3)
	seen := make(map[string]Class)
	for c := Class(0); c < NumClasses; c++ {
		for day := 0; day < 3; day++ {
			for r := 1; r <= dailySize(v, c); r++ {
				q := v.queryAt(c, day, r)
				if prev, ok := seen[q]; ok && prev != c {
					t.Fatalf("query %q appears in classes %v and %v", q, prev, c)
				}
				seen[q] = c
			}
		}
	}
}

func TestQueryAtPanicsOutOfRange(t *testing.T) {
	v := New(1)
	for _, bad := range []int{0, -1, dailySize(v, All) + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rank %d should panic", bad)
				}
			}()
			v.queryAt(All, 0, bad)
		}()
	}
}

func TestPickClassHonorsMix(t *testing.T) {
	rng := newRNG(9)
	const n = 100000
	counts := map[Class]int{}
	for i := 0; i < n; i++ {
		counts[pickClass(rng, geo.NorthAmerica)]++
	}
	if got := float64(counts[NAOnly]) / n; math.Abs(got-0.97) > 0.005 {
		t.Errorf("NAOnly frequency = %v, want 0.97", got)
	}
	if counts[EUOnly] != 0 || counts[ASOnly] != 0 {
		t.Error("NA peer drew from a foreign-only class")
	}
}

func TestSampleStaysInRegionClasses(t *testing.T) {
	v := New(5)
	rng := newRNG(11)
	// Collect the EU-only pool for membership checks.
	euOnly := make(map[string]bool)
	for day := 0; day < 2; day++ {
		for r := 1; r <= dailySize(v, EUOnly); r++ {
			euOnly[v.queryAt(EUOnly, day, r)] = true
		}
	}
	for i := 0; i < 2000; i++ {
		q := v.Sample(rng, geo.NorthAmerica, 0)
		if euOnly[q] {
			t.Fatalf("NA peer sampled EU-only query %q", q)
		}
	}
}

func TestZipfSkewOfSamples(t *testing.T) {
	// Sampling a class heavily on one day and ranking by frequency must
	// recover the class's Zipf α (this is exactly what Figure 11 measures).
	v := New(13)
	rng := newRNG(17)
	counts := make(map[string]int)
	const n = 300000
	for i := 0; i < n; i++ {
		counts[v.queryAt(NAOnly, 0, v.classes[NAOnly].ranker.SampleRank(rng))]++
	}
	freqs := make([]float64, 0, len(counts))
	for _, c := range counts {
		freqs = append(freqs, float64(c)/n)
	}
	// Sort descending to form the rank-frequency curve.
	for i := 0; i < len(freqs); i++ {
		for j := i + 1; j < len(freqs); j++ {
			if freqs[j] > freqs[i] {
				freqs[i], freqs[j] = freqs[j], freqs[i]
			}
		}
	}
	if len(freqs) > 100 {
		freqs = freqs[:100]
	}
	fit, err := dist.FitZipf(freqs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-0.386) > 0.08 {
		t.Errorf("recovered α = %v, want ≈0.386", fit.Alpha)
	}
}

func TestHotSetDriftMatchesFigure10(t *testing.T) {
	// Figure 10(a): for ≈80% of days, at most 4 of day n's top-10 appear
	// in day n+1's top-100; and on most days at least one survives.
	v := New(21)
	const days = 40
	le4, gt0 := 0, 0
	for d := 0; d+1 < days; d++ {
		top100 := make(map[string]bool, 100)
		for _, q := range v.TopK(NAOnly, d+1, 100) {
			top100[q] = true
		}
		overlap := 0
		for _, q := range v.TopK(NAOnly, d, 10) {
			if top100[q] {
				overlap++
			}
		}
		if overlap <= 4 {
			le4++
		}
		if overlap > 0 {
			gt0++
		}
	}
	n := float64(days - 1)
	if frac := float64(le4) / n; frac < 0.65 || frac > 1.0 {
		t.Errorf("P(overlap ≤ 4) = %v, want ≈0.8", frac)
	}
	if frac := float64(gt0) / n; frac < 0.5 {
		t.Errorf("P(overlap > 0) = %v, want most days", frac)
	}
}

func TestDayVocabulariesOverlapAcrossDays(t *testing.T) {
	// Multi-day unions must grow sublinearly (Table 3): the 2-day union
	// for NA should be well below 2× the daily size.
	v := New(23)
	day0 := make(map[string]bool)
	for r := 1; r <= dailySize(v, NAOnly); r++ {
		day0[v.queryAt(NAOnly, 0, r)] = true
	}
	union := len(day0)
	for r := 1; r <= dailySize(v, NAOnly); r++ {
		if !day0[v.queryAt(NAOnly, 1, r)] {
			union++
		}
	}
	if union >= 2*dailySize(v, NAOnly) {
		t.Errorf("2-day union %d shows no overlap", union)
	}
	if union <= dailySize(v, NAOnly) {
		t.Errorf("2-day union %d shows no drift at all", union)
	}
	// Table 3 anchor: ≈3588 for two days (±15% tolerance for the model).
	if union < 3000 || union > 4100 {
		t.Errorf("2-day union = %d, want near 3588", union)
	}
}

func TestTopKBounded(t *testing.T) {
	v := New(2)
	if got := v.TopK(All, 0, 100); len(got) != dailySize(v, All) {
		t.Errorf("TopK clamped = %d entries", len(got))
	}
}

func TestAlphaAccessor(t *testing.T) {
	v := New(2)
	if v.Alpha(NAOnly) != 0.386 || v.Alpha(EUOnly) != 0.223 {
		t.Error("published α values wrong")
	}
}

// TestSkipSampleConsumesSampleDraws pins SkipSample to Sample's draws: two
// twin streams, one advanced by Sample and one by SkipSample, must agree
// on the next value after every draw, for every region and several days —
// so no class's ranker may ever draw more, or fewer, than SkipSample skips.
func TestSkipSampleConsumesSampleDraws(t *testing.T) {
	v := New(2004)
	for _, r := range geo.Regions {
		for _, day := range []int{0, 1, 7, 39} {
			sampled, skipped := newRNG(uint64(day)), newRNG(uint64(day))
			for i := 0; i < 10_000; i++ {
				v.Sample(sampled, r, day)
				SkipSample(skipped)
				if a, b := sampled.Uint64(), skipped.Uint64(); a != b {
					t.Fatalf("%v day %d draw %d: streams diverged (%#x after Sample, %#x after SkipSample)", r, day, i, a, b)
				}
			}
		}
	}
}
