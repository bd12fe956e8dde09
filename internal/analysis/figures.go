package analysis

import (
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/trace"
)

// GeoDistribution is Figure 1: the hourly geographic mix of one-hop peers
// (direct connections) versus all peers (addresses observed in remote
// PONG and QUERYHIT traffic).
type GeoDistribution struct {
	// OneHop[region][hour] and AllPeers[region][hour] are average shares,
	// indexed by every Region, Unknown included.
	OneHop   [geo.Unknown + 1][]float64
	AllPeers [geo.Unknown + 1][]float64
}

// ComputeFigure1 measures the geographic mix from the raw trace.
func ComputeFigure1(tr *trace.Trace) GeoDistribution {
	reg := geo.Default()
	var oneHop, all [geo.Unknown + 1]*stats.DayBinMatrix
	for r := range oneHop {
		oneHop[r] = stats.NewDayBinMatrix(24)
		all[r] = stats.NewDayBinMatrix(24)
	}
	for i := range tr.Conns {
		c := &tr.Conns[i]
		oneHop[reg.Lookup(c.Addr)].Add(simtime.DayIndex(c.Start), simtime.HourOfDay(c.Start), 1)
	}
	for i := range tr.Pongs {
		p := &tr.Pongs[i]
		if p.Hops == 1 {
			continue // direct peers are the one-hop series
		}
		all[reg.Lookup(p.Addr)].Add(simtime.DayIndex(p.At), simtime.HourOfDay(p.At), 1)
	}
	for i := range tr.Hits {
		h := &tr.Hits[i]
		if h.Hops == 1 {
			continue
		}
		all[reg.Lookup(h.Addr)].Add(simtime.DayIndex(h.At), simtime.HourOfDay(h.At), 1)
	}
	var out GeoDistribution
	for r := range oneHop {
		out.OneHop[r] = stats.AvgShare(oneHop[r], oneHop[:])
		out.AllPeers[r] = stats.AvgShare(all[r], all[:])
	}
	return out
}

// SharedFiles is Figure 2: the distribution of reported shared-library
// sizes for one-hop peers versus all peers, over 0..MaxFiles files.
type SharedFiles struct {
	MaxFiles int
	OneHop   []float64
	All      []float64
}

// ComputeFigure2 measures shared-file distributions from PONG reports.
func ComputeFigure2(tr *trace.Trace) SharedFiles {
	const maxFiles = 100
	oneHop := stats.NewHistogram(maxFiles + 1)
	all := stats.NewHistogram(maxFiles + 1)
	for i := range tr.Pongs {
		p := &tr.Pongs[i]
		if p.Hops == 1 {
			oneHop.Add(int(p.SharedFiles))
		} else {
			all.Add(int(p.SharedFiles))
		}
	}
	return SharedFiles{
		MaxFiles: maxFiles,
		OneHop:   oneHop.Fractions(),
		All:      all.Fractions(),
	}
}

// LoadByTime is Figure 3: user queries received per 30-minute bin, per
// region, summarized min/avg/max across trace days.
type LoadByTime struct {
	PerRegion [geo.NumContinental]stats.BinSeries
}

// ComputeFigure3 bins the retained user queries by receive time.
func ComputeFigure3(sessions []Session) LoadByTime {
	var mats [geo.NumContinental]*stats.DayBinMatrix
	for r := range mats {
		mats[r] = stats.NewDayBinMatrix(48)
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
			mats[s.Region].Add(simtime.DayIndex(q.At), simtime.HalfHourOfDay(q.At), 1)
		}
	}
	var out LoadByTime
	for r, m := range mats {
		out.PerRegion[r] = m.MinAvgMax()
	}
	return out
}

// PassiveFraction is Figure 4: the fraction of sessions starting in each
// hour that issue no queries, per region, min/avg/max across days.
type PassiveFraction struct {
	PerRegion [geo.NumContinental]stats.BinSeries
}

// ComputeFigure4 measures the passive share by session start hour.
func ComputeFigure4(sessions []Session) PassiveFraction {
	var passive, total [geo.NumContinental]*stats.DayBinMatrix
	for r := range passive {
		passive[r] = stats.NewDayBinMatrix(24)
		total[r] = stats.NewDayBinMatrix(24)
	}
	for i := range sessions {
		s := &sessions[i]
		if s.Region >= geo.NumContinental {
			continue
		}
		total[s.Region].Add(s.StartDay, s.StartHour, 1)
		if s.Passive() {
			passive[s.Region].Add(s.StartDay, s.StartHour, 1)
		}
	}
	var out PassiveFraction
	for r := range passive {
		out.PerRegion[r] = stats.RatioMinAvgMax(passive[r], total[r])
	}
	return out
}

// PassiveDurations is Figure 5: connected-session durations of passive
// peers, in seconds, by region and (per region) by key start period.
type PassiveDurations struct {
	ByRegion [geo.NumContinental]stats.Sample
	// ByPeriod[region][k] holds durations of sessions starting in the key
	// one-hour window model.KeyPeriods[k].
	ByPeriod [geo.NumContinental][model.NumKeyPeriods]stats.Sample
}

// ComputeFigure5 collects passive session durations.
func ComputeFigure5(sessions []Session) PassiveDurations {
	var out PassiveDurations
	// Pre-size the per-region samples: passive sessions are ~80% of the
	// total, so letting append double its way up wastes both copies and
	// peak memory at full trace scale.
	var counts [geo.NumContinental]int
	for i := range sessions {
		if s := &sessions[i]; s.Passive() && s.Region < geo.NumContinental {
			counts[s.Region]++
		}
	}
	for r, n := range counts {
		out.ByRegion[r].Grow(n)
	}
	for i := range sessions {
		s := &sessions[i]
		if !s.Passive() || s.Region >= geo.NumContinental {
			continue
		}
		d := secondsOf(s.Conn.Duration())
		out.ByRegion[s.Region].Add(d)
		if k, ok := model.KeyPeriodIndex(s.StartHour); ok {
			out.ByPeriod[s.Region][k].Add(d)
		}
	}
	return out
}

// QueriesPerSession is Figure 6: the number of queries per active
// session — with rules 4–5 applied (ByRegion, ByPeriodEU) and without
// (Unfiltered). ByPeriodEU is indexed like model.KeyPeriods.
type QueriesPerSession struct {
	ByRegion   [geo.NumContinental]stats.Sample
	ByPeriodEU [model.NumKeyPeriods]stats.Sample
	Unfiltered [geo.NumContinental]stats.Sample
}

// ComputeFigure6 collects per-session query counts.
func ComputeFigure6(sessions []Session) QueriesPerSession {
	var out QueriesPerSession
	for i := range sessions {
		s := &sessions[i]
		if s.NumAllQueries() == 0 || s.Region >= geo.NumContinental {
			continue
		}
		if s.UserQueries > 0 {
			out.ByRegion[s.Region].Add(float64(s.UserQueries))
			if s.Region == geo.Europe {
				if k, ok := model.KeyPeriodIndex(s.StartHour); ok {
					out.ByPeriodEU[k].Add(float64(s.UserQueries))
				}
			}
		}
		out.Unfiltered[s.Region].Add(float64(s.NumAllQueries()))
	}
	return out
}

// FirstQueryTimes is Figure 7: seconds from session start to the first
// user query, by region, by session query-count bucket (North America),
// and by key start period (Europe).
type FirstQueryTimes struct {
	ByRegion [geo.NumContinental]stats.Sample
	// ByBucketNA is indexed by model.QueryBucketA3: 0 (<3), 1 (=3), 2 (>3).
	ByBucketNA [model.NumBuckets]stats.Sample
	ByPeriodEU [model.NumKeyPeriods]stats.Sample
}

// ComputeFigure7 collects time-to-first-query samples.
func ComputeFigure7(sessions []Session) FirstQueryTimes {
	var out FirstQueryTimes
	for i := range sessions {
		s := &sessions[i]
		first, ok := s.FirstQueryTime()
		if !ok || s.Region >= geo.NumContinental {
			continue
		}
		v := secondsOf(first)
		out.ByRegion[s.Region].Add(v)
		if s.Region == geo.NorthAmerica {
			out.ByBucketNA[model.QueryBucketA3(s.UserQueries)].Add(v)
		}
		if s.Region == geo.Europe {
			if k, ok := model.KeyPeriodIndex(s.StartHour); ok {
				out.ByPeriodEU[k].Add(v)
			}
		}
	}
	return out
}

// Interarrivals is Figure 8: query interarrival times in seconds, by
// region, by query-count bucket (Europe), and by key period (Europe).
type Interarrivals struct {
	ByRegion [geo.NumContinental]stats.Sample
	// ByBucketEU is indexed by model.QueryBucketIAT: 0 (=2 queries),
	// 1 (3–7), 2 (>7).
	ByBucketEU [model.NumBuckets]stats.Sample
	ByPeriodEU [model.NumKeyPeriods]stats.Sample
}

// ComputeFigure8 collects the valid interarrival times.
func ComputeFigure8(sessions []Session) Interarrivals {
	var out Interarrivals
	var scratch []time.Duration
	for i := range sessions {
		s := &sessions[i]
		if s.Region >= geo.NumContinental {
			continue
		}
		scratch = s.AppendInterarrivals(scratch[:0])
		k, keyHour := model.KeyPeriodIndex(s.StartHour)
		for _, iat := range scratch {
			v := secondsOf(iat)
			out.ByRegion[s.Region].Add(v)
			if s.Region == geo.Europe {
				out.ByBucketEU[model.QueryBucketIAT(s.UserQueries)].Add(v)
				if keyHour {
					out.ByPeriodEU[k].Add(v)
				}
			}
		}
	}
	return out
}

// AfterLastTimes is Figure 9: seconds from the last user query to the
// session end, by region, by Table A.5 bucket (North America), and by the
// hour of the last query (Europe).
type AfterLastTimes struct {
	ByRegion [geo.NumContinental]stats.Sample
	// ByBucketNA is indexed by model.QueryBucketA5: 0 (1 query), 1 (2–7),
	// 2 (>7).
	ByBucketNA [model.NumBuckets]stats.Sample
	ByPeriodEU [model.NumKeyPeriods]stats.Sample
}

// ComputeFigure9 collects time-after-last-query samples.
func ComputeFigure9(sessions []Session) AfterLastTimes {
	var out AfterLastTimes
	for i := range sessions {
		s := &sessions[i]
		gap, ok := s.LastQueryGap()
		if !ok || s.Region >= geo.NumContinental {
			continue
		}
		v := secondsOf(gap)
		out.ByRegion[s.Region].Add(v)
		if s.Region == geo.NorthAmerica {
			out.ByBucketNA[model.QueryBucketA5(s.UserQueries)].Add(v)
		}
		if s.Region == geo.Europe {
			if k, ok := model.KeyPeriodIndex(lastQueryHour(s)); ok {
				out.ByPeriodEU[k].Add(v)
			}
		}
	}
	return out
}

func lastQueryHour(s *Session) int {
	for i := len(s.Queries) - 1; i >= 0; i-- {
		if !s.Queries[i].Rule5 {
			return simtime.HourOfDay(s.Queries[i].At)
		}
	}
	return -1
}
