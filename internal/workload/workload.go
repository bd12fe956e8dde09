// Package workload implements the paper's synthetic workload generator —
// the Figure 12 algorithm. It produces peer session specifications (region,
// passive/active, duration or query schedule, query strings) drawn from the
// conditional distributions of internal/model and the query-popularity
// model of internal/vocab.
//
// Two modes cover the two ways the paper's model is used:
//
//   - Arrivals: an open arrival process over simulated trace time, feeding
//     the measurement-node simulation (sessions arrive with an hourly rate
//     modulated like Figure 1/3 and are played against the overlay).
//
//   - SessionAt: one session starting at a given instant, the building
//     block of the literal Figure 12 setting — N concurrent peers at a
//     fixed time of day, each replaced by a fresh peer when its session
//     ends — for evaluating new P2P system designs (see examples/searchsim).
package workload

import (
	"math/rand/v2"
	"net/netip"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/simtime"
	"repro/internal/vocab"
)

// Query is one user query within an active session.
type Query struct {
	// Offset is the time since session start at which the query is issued.
	Offset time.Duration
	// Text is the query string (its keyword set identifies it).
	Text string
	// PreConnect marks a query the user issued before this session was
	// established; the client software re-issues it right after
	// connecting (the behavior filter rules 4–5 catch these re-issues).
	PreConnect bool
}

// Session is a generated peer session specification.
type Session struct {
	// Start is the session's start in simulated trace time.
	Start simtime.Time
	// Region is the peer's geographic region.
	Region geo.Region
	// Addr is the peer's IPv4 address, drawn from the region's space.
	Addr netip.Addr
	// Ultrapeer reports the peer's negotiated mode.
	Ultrapeer bool
	// SharedFiles is the library size the peer reports in PONGs.
	SharedFiles int
	// Passive marks a session that issues no queries.
	Passive bool
	// Duration is the connected-session duration. For active sessions it
	// is composed per Section 4.5: time to first query + interarrivals +
	// time after last query.
	Duration time.Duration
	// Queries holds the user queries of an active session in time order;
	// empty for passive sessions.
	Queries []Query
	// Class names the scenario client class this session was assigned to;
	// empty for the base class (and for every run without a scenario).
	Class string
}

// NumQueries returns the session's user query count.
func (s *Session) NumQueries() int { return len(s.Queries) }

// End returns the session end time.
func (s *Session) End() simtime.Time { return s.Start + s.Duration }

// Config parameterizes a Generator.
type Config struct {
	// Seed makes the generated workload reproducible.
	Seed uint64
	// Scale multiplies the paper's full-scale arrival rate (≈4,544
	// sessions/hour). 1.0 reproduces the full 40-day trace volume.
	Scale float64
	// Days is the trace length in days (the paper measured 40).
	Days int
	// Scenario, when non-nil, attaches a compiled experiment scenario:
	// client-class overrides and churn transients (see Scenario). Nil is
	// contractually a no-op — the generator's output is byte-identical to
	// a scenario-free run.
	Scenario *Scenario
}

// DefaultConfig returns the paper-scale configuration at the given scale
// factor.
func DefaultConfig(seed uint64, scale float64) Config {
	return Config{
		Seed:  seed,
		Scale: scale,
		Days:  40,
	}
}

// preConnectQueryFraction is the probability that an active session
// carries user queries issued before the connection was established
// (which the client then re-issues automatically; Section 3.3 rules
// 4–5). Those queries count toward the session's query total and the
// popularity distribution but have no valid interarrival time.
const preConnectQueryFraction = 0.25

// Generator produces user sessions. It is not safe for concurrent use.
type Generator struct {
	cfg     Config
	params  *model.Params
	vocab   *vocab.Vocabulary
	geoReg  *geo.Registry
	rng     *rand.Rand
	now     simtime.Time
	horizon simtime.Time
	// scenRNG is the dedicated scenario stream (class assignment and
	// overrides); nil without a scenario. Keeping it separate from rng is
	// what makes a scenario perturb only what it claims to: the base
	// draws at every arrival position are untouched.
	scenRNG *rand.Rand
	// maxMult bounds the scenario's arrival-rate multiplier (1 without
	// one), folded into the thinning envelope so recovery surges keep
	// acceptance probabilities ≤ 1.
	maxMult float64
}

// NewGenerator builds a generator over the default model parameters.
func NewGenerator(cfg Config) *Generator {
	if cfg.Days <= 0 {
		cfg.Days = 40
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	g := &Generator{
		cfg:     cfg,
		params:  model.Default(),
		vocab:   vocab.New(cfg.Seed),
		geoReg:  geo.Default(),
		rng:     rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15)),
		horizon: simtime.Time(cfg.Days) * simtime.Day,
		maxMult: cfg.Scenario.MaxRateMultiplier(),
	}
	if cfg.Scenario != nil {
		g.scenRNG = newScenarioRNG(cfg.Seed)
	}
	return g
}

// Params exposes the generator's model (shared, immutable).
func (g *Generator) Params() *model.Params { return g.params }

// Vocabulary exposes the generator's query vocabulary.
func (g *Generator) Vocabulary() *vocab.Vocabulary { return g.vocab }

// Horizon returns the end of the generated trace period.
func (g *Generator) Horizon() simtime.Time { return g.horizon }

// arrivalRate returns the expected session arrivals per hour at the given
// instant. The hourly modulation follows the total-connection diurnal
// shape implied by Figure 1 (the region mix shifts; total connection volume
// wobbles ±20% around the mean with the North American evening).
func (g *Generator) arrivalRate(at simtime.Time) float64 {
	hour := simtime.HourOfDay(at)
	// NA dominates volume, so total load tracks the NA share curve,
	// normalized around its daily mean (≈0.69).
	naShare := g.params.RegionShare(geo.NorthAmerica, hour)
	shape := naShare / 0.69
	// The scenario multiplier is exactly 1.0 without churn events, so a
	// scenario-free run's acceptance draws are bit-identical to the
	// historical sampler's (multiplying by 1.0 is exact in IEEE-754).
	return model.SessionsPerHourFullScale * g.cfg.Scale * shape * g.cfg.Scenario.RateMultiplier(at)
}

// Next generates the next arriving session, advancing the generator's
// clock. It returns nil when the trace horizon is reached.
func (g *Generator) Next() *Session {
	s := new(Session)
	if !g.NextInto(s) {
		return nil
	}
	return s
}

// NextInto generates the next arriving session into s, advancing the
// generator's clock, and reports false when the trace horizon is reached.
// It overwrites every field of s but reuses the backing array of
// s.Queries, so a caller that keeps one Session and passes it back each
// time pays no allocation for the query stream once the array has grown.
// Aliasing contract: the Queries it leaves in s stay valid only until the
// next call that is handed the same s; copy them out to keep them.
func (g *Generator) NextInto(s *Session) bool {
	// Thinned nonhomogeneous Poisson arrivals: draw at the maximum rate,
	// accept with probability rate(t)/maxRate. The envelope carries the
	// scenario's surge bound (1 without one) so recovery waves stay
	// correctly thinned.
	maxRate := model.SessionsPerHourFullScale * g.cfg.Scale * (0.80 / 0.69) * g.maxMult
	for {
		step := g.rng.ExpFloat64() / maxRate // hours
		g.now += simtime.Time(step * float64(time.Hour))
		if g.now >= g.horizon {
			return false
		}
		if g.rng.Float64()*maxRate <= g.arrivalRate(g.now) {
			break
		}
	}
	g.sessionInto(s, g.now)
	return true
}

// SessionAt generates one session starting at the given instant, following
// Figure 12 step by step.
func (g *Generator) SessionAt(start simtime.Time) *Session {
	s := new(Session)
	g.sessionInto(s, start)
	return s
}

// sessionInto is SessionAt into a caller-owned session, reusing the
// backing array of s.Queries (see NextInto).
func (g *Generator) sessionInto(s *Session, start simtime.Time) {
	rng := g.rng
	hour := simtime.HourOfDay(start)

	// (1) Select the geographical region conditioned on time of day.
	region := g.params.PickRegion(rng, hour)

	*s = Session{
		Start:       start,
		Region:      region,
		Addr:        g.geoReg.Sample(region, rng),
		Ultrapeer:   rng.Float64() < model.UltrapeerFraction,
		SharedFiles: g.params.SampleSharedFiles(rng),
		Queries:     s.Queries[:0],
	}

	// (2) Passive or active, conditioned on region (and hour).
	period := model.PeriodOf(region, hour)
	if rng.Float64() < g.params.PassiveFraction(region, hour) {
		// (3) Passive: connected session length from Table A.1.
		s.Passive = true
		s.Duration = secs(g.params.PassiveDuration[region][period].Sample(rng))
		g.finishSession(s)
		return
	}

	// (4a) Number of queries from Table A.2.
	n := g.params.SampleNumQueries(rng, region)

	// (4b) Time until first query from Table A.3.
	first := g.params.FirstQuery[region][period][model.QueryBucketA3(n)].Sample(rng)

	// (4c) Queries: interarrival times from Table A.4; query strings by
	// class and per-day rank (Table 3 + Figure 11).
	s.Queries = slices.Grow(s.Queries, n)
	iat := &g.params.Interarrival[region][period][model.QueryBucketIAT(n)]
	offset := secs(first)
	preConnect := rng.Float64() < preConnectQueryFraction
	for i := 0; i < n; i++ {
		if i > 0 {
			offset += secs(iat.Sample(rng))
		}
		day := simtime.DayIndex(start + offset)
		if day >= g.cfg.Days {
			day = g.cfg.Days - 1
		}
		q := Query{
			Offset: offset,
			Text:   g.vocab.Sample(rng, region, day),
		}
		// Pre-connect queries: the user issued them before connecting;
		// their in-session re-issue happens right after connect, so give
		// them tiny offsets. At most the first three queries qualify.
		if preConnect && i < 3 {
			q.PreConnect = true
			q.Offset = time.Duration(i) * 500 * time.Millisecond
		}
		s.Queries = append(s.Queries, q)
	}

	// (4d) Time after last query from Table A.5.
	after := g.params.AfterLast[region][period][model.QueryBucketA5(n)].Sample(rng)
	last := s.Queries[len(s.Queries)-1].Offset
	s.Duration = last + secs(after)
	// User sessions last at least 64 seconds by the model's own
	// classification: everything shorter is a system-initiated quick
	// disconnect (Section 3.3 rule 3), which internal/behavior generates
	// separately. Without this floor, short compositions of first-query
	// time + interarrivals + after-last would be discarded by rule 3,
	// silently depleting the small-gap mass of every conditional measure.
	if min := 64*time.Second + time.Duration(rng.IntN(2000))*time.Millisecond; s.Duration < min {
		s.Duration = min
	}
	g.finishSession(s)
}

// finishSession applies the scenario's client-class overlay (if any) to a
// fully generated base session. Without a scenario it is the identity —
// not even a random draw happens — preserving byte-identity with
// scenario-free runs.
func (g *Generator) finishSession(s *Session) {
	sc := g.cfg.Scenario
	if sc == nil || len(sc.Classes) == 0 {
		return
	}
	if cls := sc.pickClass(g.scenRNG); cls != nil {
		g.applyClass(s, cls)
	}
}

func secs(s float64) time.Duration {
	if s < 0 {
		s = 0
	}
	return time.Duration(s * float64(time.Second))
}
