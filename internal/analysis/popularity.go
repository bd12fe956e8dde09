package analysis

import (
	"sort"

	"repro/internal/dist"
	"repro/internal/geo"
	"repro/internal/simtime"
)

// popularity measures use the session's user-intent queries: rule-4
// flagged queries are included (the user issued them before connecting),
// rule-5 automation is excluded (see the package comment).

// DayIndex holds, per trace day, each query key's per-region frequency
// for the three continents: the one index Table 3 and Figures 10 and 11
// all read. Build it once per characterization with IndexDays and share
// it; it is read-only once built, so concurrent readers are safe.
type DayIndex []map[string]regionFreq

type regionFreq struct {
	counts [geo.NumContinental]int // indexed by Region
}

// IndexDays builds the per-day query index over days trace days.
func IndexDays(sessions []Session, days int) DayIndex {
	idx := make(DayIndex, days)
	for d := range idx {
		idx[d] = make(map[string]regionFreq)
	}
	for i := range sessions {
		s := &sessions[i]
		if s.Region >= geo.NumContinental {
			continue
		}
		for j := range s.Queries {
			q := &s.Queries[j]
			if q.Rule5 {
				continue
			}
			d := simtime.DayIndex(q.At)
			if d < 0 || d >= days {
				continue
			}
			rf := idx[d][q.Key]
			rf.counts[s.Region]++
			idx[d][q.Key] = rf
		}
	}
	return idx
}

// ClassCounts is one row set of Table 3: distinct query counts per region
// and per intersection over a window of days.
type ClassCounts struct {
	NA, EU, AS       float64
	NAEU, NAAS, EUAS float64
	All              float64
}

// QueryClasses is Table 3 for the requested window lengths, averaged over
// all aligned windows in the trace.
type QueryClasses struct {
	// Windows maps window length in days to average counts.
	Windows map[int]ClassCounts
}

// ComputeTable3 computes distinct-query set sizes and intersections for
// 1-, 2- and 4-day windows.
func ComputeTable3(sessions []Session, days int) QueryClasses {
	return IndexDays(sessions, days).Table3()
}

// Table3 is ComputeTable3 over a built index.
func (idx DayIndex) Table3() QueryClasses {
	days := len(idx)
	out := QueryClasses{Windows: make(map[int]ClassCounts)}
	for _, k := range []int{1, 2, 4} {
		if days < k {
			continue
		}
		var acc ClassCounts
		n := 0
		for start := 0; start+k <= days; start += k {
			sets := [geo.NumContinental]map[string]bool{{}, {}, {}}
			for d := start; d < start+k; d++ {
				for key, rf := range idx[d] {
					for r, count := range rf.counts {
						if count > 0 {
							sets[r][key] = true
						}
					}
				}
			}
			na, eu, as := sets[geo.NorthAmerica], sets[geo.Europe], sets[geo.Asia]
			cc := ClassCounts{
				NA: float64(len(na)),
				EU: float64(len(eu)),
				AS: float64(len(as)),
			}
			for key := range na {
				inEU := eu[key]
				inAS := as[key]
				if inEU {
					cc.NAEU++
				}
				if inAS {
					cc.NAAS++
				}
				if inEU && inAS {
					cc.All++
				}
			}
			for key := range eu {
				if as[key] {
					cc.EUAS++
				}
			}
			acc.NA += cc.NA
			acc.EU += cc.EU
			acc.AS += cc.AS
			acc.NAEU += cc.NAEU
			acc.NAAS += cc.NAAS
			acc.EUAS += cc.EUAS
			acc.All += cc.All
			n++
		}
		if n > 0 {
			out.Windows[k] = ClassCounts{
				NA: acc.NA / float64(n), EU: acc.EU / float64(n), AS: acc.AS / float64(n),
				NAEU: acc.NAEU / float64(n), NAAS: acc.NAAS / float64(n),
				EUAS: acc.EUAS / float64(n), All: acc.All / float64(n),
			}
		}
	}
	return out
}

// HotSetDrift is Figure 10: for each rank band of day n (top 10, ranks
// 11–20, ranks 21–100), the distribution of how many of its queries
// reappear in day n+1's top N.
type HotSetDrift struct {
	// Survivors[band][N] is the per-day-pair list of overlap counts, for
	// N ∈ {10, 20, 100}. Band indexes: 0 = top-10, 1 = 11–20, 2 = 21–100.
	Survivors [3]map[int][]int
}

// Bands and targets of Figure 10.
var (
	driftBands   = [3][2]int{{1, 10}, {11, 20}, {21, 100}}
	driftTargets = []int{10, 20, 100}
)

// BandName names a drift band index.
func BandName(b int) string {
	switch b {
	case 0:
		return "top 10"
	case 1:
		return "rank 11-20"
	default:
		return "rank 21-100"
	}
}

// ComputeFigure10 measures day-to-day hot-set drift for one region's
// queries (the paper uses North America).
func ComputeFigure10(sessions []Session, days int, region geo.Region) HotSetDrift {
	return IndexDays(sessions, days).Figure10(region)
}

// Figure10 is ComputeFigure10 over a built index.
func (idx DayIndex) Figure10(region geo.Region) HotSetDrift {
	days := len(idx)
	// Rank each day's queries for the region.
	ranked := make([][]string, days)
	for d := 0; d < days; d++ {
		type kf struct {
			key string
			n   int
		}
		var list []kf
		for key, rf := range idx[d] {
			if rf.counts[region] > 0 {
				list = append(list, kf{key, rf.counts[region]})
			}
		}
		sort.Slice(list, func(a, b int) bool {
			if list[a].n != list[b].n {
				return list[a].n > list[b].n
			}
			return list[a].key < list[b].key
		})
		keys := make([]string, len(list))
		for i, e := range list {
			keys[i] = e.key
		}
		ranked[d] = keys
	}
	var out HotSetDrift
	for b := range out.Survivors {
		out.Survivors[b] = make(map[int][]int)
	}
	for d := 0; d+1 < days; d++ {
		today, tomorrow := ranked[d], ranked[d+1]
		for _, n := range driftTargets {
			top := make(map[string]bool, n)
			for i := 0; i < n && i < len(tomorrow); i++ {
				top[tomorrow[i]] = true
			}
			for b, band := range driftBands {
				lo, hi := band[0], band[1]
				count := 0
				for r := lo; r <= hi && r <= len(today); r++ {
					if top[today[r-1]] {
						count++
					}
				}
				out.Survivors[b][n] = append(out.Survivors[b][n], count)
			}
		}
	}
	return out
}

// FractionWithMoreThan returns, for a band and target N, the fraction of
// day pairs with more than x survivors — the y-axis of Figure 10.
func (h *HotSetDrift) FractionWithMoreThan(band, n, x int) float64 {
	counts := h.Survivors[band][n]
	if len(counts) == 0 {
		return 0
	}
	more := 0
	for _, c := range counts {
		if c > x {
			more++
		}
	}
	return float64(more) / float64(len(counts))
}

// PopularityClass identifies the Figure 11 query classes.
type PopularityClass int

// The three classes Figure 11 plots.
const (
	ClassNAOnly PopularityClass = iota
	ClassEUOnly
	ClassNAEU
	NumPopularityClasses = iota
)

func (c PopularityClass) String() string {
	switch c {
	case ClassNAOnly:
		return "NA-only"
	case ClassEUOnly:
		return "EU-only"
	default:
		return "NA∩EU"
	}
}

// Popularity is Figure 11: per-day query popularity by rank for each
// class, averaged across days, with Zipf fits.
type Popularity struct {
	// Freq[class][r] is the average frequency of the rank-(r+1) query.
	Freq [NumPopularityClasses][popularityRanks]float64
	// Fit holds the single-segment Zipf fit per class; a class whose fit
	// failed keeps the zero value.
	Fit [NumPopularityClasses]dist.ZipfFit
	// BodyFit and TailFit are the two-segment fit of the intersection
	// class (ranks 1–45 and 46–100).
	BodyFit dist.ZipfFit
	TailFit dist.ZipfFit
}

// popularityRanks is the rank horizon of Figure 11.
const popularityRanks = 100

// ComputeFigure11 ranks queries per day within each geographic class and
// averages the frequency at each rank over all days, preserving hot-set
// drift exactly as the paper prescribes.
func ComputeFigure11(sessions []Session, days int) (Popularity, error) {
	return IndexDays(sessions, days).Figure11()
}

// Figure11 is ComputeFigure11 over a built index.
func (idx DayIndex) Figure11() (Popularity, error) {
	days := len(idx)
	var out Popularity
	var daysCounted [NumPopularityClasses]int
	var classFreqs [NumPopularityClasses][]int
	for d := 0; d < days; d++ {
		// Partition the day's queries into the three classes.
		var classTotals [NumPopularityClasses]int
		for c := range classFreqs {
			classFreqs[c] = classFreqs[c][:0]
		}
		for _, rf := range idx[d] {
			na, eu := rf.counts[geo.NorthAmerica], rf.counts[geo.Europe]
			as := rf.counts[geo.Asia]
			total := na + eu + as
			var c PopularityClass
			switch {
			case na > 0 && eu > 0:
				c = ClassNAEU
			case na > 0 && as == 0:
				c = ClassNAOnly
			case eu > 0 && as == 0:
				c = ClassEUOnly
			default:
				continue
			}
			classFreqs[c] = append(classFreqs[c], total)
			classTotals[c] += total
		}
		for c, freqs := range classFreqs {
			if classTotals[c] == 0 {
				continue
			}
			sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
			for r := 0; r < popularityRanks && r < len(freqs); r++ {
				out.Freq[c][r] += float64(freqs[r]) / float64(classTotals[c])
			}
			daysCounted[c]++
		}
	}
	for c := range out.Freq {
		if n := daysCounted[c]; n > 0 {
			for r := range out.Freq[c] {
				out.Freq[c][r] /= float64(n)
			}
		}
		if fit, err := dist.FitZipf(out.Freq[c][:]); err == nil {
			out.Fit[c] = fit
		}
	}
	var err error
	if body, e := dist.FitZipfRange(out.Freq[ClassNAEU][:], 1, 45); e == nil {
		out.BodyFit = body
	} else {
		err = e
	}
	if tail, e := dist.FitZipfRange(out.Freq[ClassNAEU][:], 46, popularityRanks); e == nil {
		out.TailFit = tail
	}
	return out, err
}
