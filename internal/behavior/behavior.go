// Package behavior models the Gnutella client software that sits between
// the user and the network — the layer whose automation the paper's filter
// rules exist to remove. It wraps the pure user sessions produced by
// internal/workload into raw client sessions containing:
//
//   - automatic re-queries of previously issued query strings, sent to
//     improve search results (filter rule 2 removes these — they are
//     nearly half of all observed hop-1 queries, Table 2);
//   - SHA1 source-hunting queries for files already being downloaded
//     (rule 1);
//   - system-terminated quick sessions under 64 seconds — about 70% of
//     all connections (rule 3);
//   - a burst of re-issued pre-connection queries right after connecting,
//     with sub-second interarrival times (rule 4);
//   - fixed-interval automated query runs, most prevalent in Asian-market
//     clients — these produce Figure 6(c)'s heavy unfiltered tail
//     (rule 5).
//
// The Kind of each query is ground truth for ablation and calibration
// only: the filter pipeline never sees it.
package behavior

import (
	"math"
	"math/rand/v2"
	"net/netip"
	"sort"
	"time"

	"repro/internal/geo"
	"repro/internal/model"
	"repro/internal/vocab"
	"repro/internal/workload"
)

// QueryKind labels why the client sent a query (ground truth).
type QueryKind uint8

// Query kinds, in filter-rule order.
const (
	KindUser     QueryKind = iota // genuine user query, first in-session occurrence
	KindSHA1                      // rule 1: source-hunting re-query
	KindRequery                   // rule 2: automatic re-send of an earlier string
	KindBurst                     // rule 4: pre-connection query re-issued at connect
	KindInterval                  // rule 5: fixed-interval automated query
)

func (k QueryKind) String() string {
	switch k {
	case KindUser:
		return "user"
	case KindSHA1:
		return "sha1"
	case KindRequery:
		return "requery"
	case KindBurst:
		return "burst"
	case KindInterval:
		return "interval"
	default:
		return "unknown"
	}
}

// TimedQuery is one QUERY message the client will emit.
type TimedQuery struct {
	Offset time.Duration // since session start
	Text   string        // keyword search text ("" for SHA1 hunts)
	SHA1   bool          // carries a urn:sha1 extension
	Kind   QueryKind     // ground truth, invisible to the filter
}

// Session is a raw client session as the measurement node will see it:
// the user session plus everything the client software adds.
type Session struct {
	Start       time.Duration // simulated trace time
	Region      geo.Region
	Ultrapeer   bool
	SharedFiles int
	UserAgent   string
	// Quick marks a system-terminated connection (< 64 s).
	Quick bool
	// Duration is the connected-session duration after automation (an
	// interval run can keep the client online slightly longer than the
	// user session it wraps).
	Duration time.Duration
	// Queries is the full time-ordered query stream.
	Queries []TimedQuery
	// User points to the arrival skeleton: the full user session for
	// wrapped sessions, or the unused would-be session for quick ones
	// (quick disconnects preempt whatever the user might have done).
	User *workload.Session
}

// Addr returns the peer's address, carried on the arrival skeleton.
func (s *Session) Addr() netip.Addr { return s.User.Addr }

// End returns the session end in trace time.
func (s *Session) End() time.Duration { return s.Start + s.Duration }

// Profile describes one client implementation's automation behavior.
type Profile struct {
	// UserAgent is the handshake identification string.
	UserAgent string
	// RequeryPeriod is the client's automatic re-send interval: an
	// unsatisfied search is re-issued every period for as long as the
	// session lasts (rule 2 traffic). Long sessions therefore produce
	// hundreds of duplicates of a single string — which is exactly why
	// unfiltered popularity looks so much more cacheable than user
	// behavior (the paper's headline argument).
	RequeryPeriod time.Duration
	// SHA1PerQuery is the mean number of SHA1 source hunts per user query
	// (rule 1 traffic).
	SHA1PerQuery float64
	// IntervalProb is the chance an active session runs fixed-interval
	// automation (rule 5 traffic).
	IntervalProb float64
	// IntervalEvery is the fixed automation period.
	IntervalEvery time.Duration
	// IntervalCountMean is the mean length of an interval run.
	IntervalCountMean float64
}

// profiles approximates the 2004 client population. User-agent strings
// match deployed versions of the era; shares are rough market estimates.
// The automation rates are calibrated so that the filter-rule hit counts
// stand in Table 2's proportions: re-queries ≈ 4–5× and SHA1 hunts ≈
// 2–2.5× the surviving user queries.
var profiles = []struct {
	Profile
	share float64
}{
	{Profile{"LimeWire/3.8.10", 9 * time.Minute, 2.7, 0.01, 10 * time.Second, 30}, 0.38},
	{Profile{"BearShare/4.3.1", 10 * time.Minute, 2.6, 0.01, 15 * time.Second, 25}, 0.24},
	{Profile{"Shareaza/1.8.8.0", 8 * time.Minute, 3.1, 0.02, 10 * time.Second, 40}, 0.10},
	{Profile{"Morpheus/3.0.3", 15 * time.Minute, 1.9, 0.02, 20 * time.Second, 25}, 0.08},
	{Profile{"Gnucleus/1.8.6.0", 12 * time.Minute, 2.0, 0.01, 30 * time.Second, 20}, 0.06},
	{Profile{"Mutella/0.4.5", 20 * time.Minute, 0.9, 0.00, 10 * time.Second, 0}, 0.04},
	{Profile{"gtk-gnutella/0.93.4", 18 * time.Minute, 0.9, 0.00, 10 * time.Second, 0}, 0.05},
	{Profile{"XoloX/1.8", 10 * time.Minute, 2.2, 0.30, 10 * time.Second, 90}, 0.05},
}

// asiaIntervalBoost raises the chance of fixed-interval automation for
// Asian peers, and asiaIntervalCountMean lengthens their runs: Figure 6(c)
// shows ≈4% of unfiltered Asian sessions exceed 100 queries, which only
// interval automation produces.
const (
	asiaIntervalBoost     = 0.055
	asiaIntervalCountMean = 130.0
)

// Shaper wraps user sessions into client sessions. Not safe for
// concurrent use.
type Shaper struct {
	rng   *rand.Rand
	vocab *vocab.Vocabulary
	model *model.Params
	// cumulative profile shares for sampling
	cum []float64
}

// NewShaper builds a shaper drawing automation randomness from the seed.
func NewShaper(seed uint64, v *vocab.Vocabulary, p *model.Params) *Shaper {
	sh := &Shaper{
		rng:   rand.New(rand.NewPCG(seed, 0xb10c5eed)),
		vocab: v,
		model: p,
	}
	var acc float64
	for _, pr := range profiles {
		acc += pr.share
		sh.cum = append(sh.cum, acc)
	}
	return sh
}

// PickProfile samples a client implementation.
func (sh *Shaper) PickProfile() Profile {
	u := sh.rng.Float64() * sh.cum[len(sh.cum)-1]
	for i, c := range sh.cum {
		if u <= c {
			return profiles[i].Profile
		}
	}
	return profiles[0].Profile
}

// Quick converts an arrival skeleton into a system-terminated quick
// session (< 64 s): the connection the measurement node sees when client
// software decides to disconnect for its own reasons (rule 3).
func (sh *Shaper) Quick(s *workload.Session) *Session {
	prof := sh.PickProfile()
	cs := &Session{
		Start:       time.Duration(s.Start),
		Region:      s.Region,
		Ultrapeer:   s.Ultrapeer,
		SharedFiles: s.SharedFiles,
		UserAgent:   prof.UserAgent,
		Quick:       true,
		Duration:    sh.model.SampleQuickDisconnect(sh.rng),
		User:        s,
	}
	// A small fraction of quick sessions carries a query or two (Table 2,
	// rule 3: ≈0.1 queries per discarded session).
	if sh.rng.Float64() < model.QuickSessionQueryFraction {
		day := dayOf(cs.Start)
		off := time.Duration(sh.rng.Float64() * float64(cs.Duration))
		cs.Queries = append(cs.Queries, TimedQuery{
			Offset: off,
			Text:   sh.vocab.Sample(sh.rng, s.Region, day),
			Kind:   KindUser,
		})
		if sh.rng.Float64() < 0.5 && cs.Duration-off > 2*time.Second {
			// An immediate automated re-send inside the short window.
			cs.Queries = append(cs.Queries, TimedQuery{
				Offset: off + time.Second + time.Duration(sh.rng.Float64()*float64(time.Second)),
				Text:   cs.Queries[0].Text,
				Kind:   KindRequery,
			})
		}
	}
	return cs
}

// Wrap converts a user session into the raw client session the overlay
// will observe.
func (sh *Shaper) Wrap(s *workload.Session) *Session {
	prof := sh.PickProfile()
	cs := &Session{
		Start:       time.Duration(s.Start),
		Region:      s.Region,
		Ultrapeer:   s.Ultrapeer,
		SharedFiles: s.SharedFiles,
		UserAgent:   prof.UserAgent,
		Duration:    s.Duration,
		User:        s,
	}
	if s.Passive {
		return cs
	}

	// User queries, with the pre-connect ones forming the rule-4 burst:
	// the client re-issues them back to back right after connecting.
	burstAt := 200 * time.Millisecond
	for _, q := range s.Queries {
		tq := TimedQuery{Offset: q.Offset, Text: q.Text, Kind: KindUser}
		if q.PreConnect {
			tq.Kind = KindBurst
			tq.Offset = burstAt
			burstAt += 300*time.Millisecond + time.Duration(sh.rng.Float64()*400)*time.Millisecond
		}
		cs.Queries = append(cs.Queries, tq)
	}

	// Automatic re-queries: the client re-issues each pending search every
	// RequeryPeriod (±10% timer jitter) until the session ends, so the
	// duplicate count scales with the remaining session time.
	for _, q := range s.Queries {
		window := s.Duration - q.Offset
		if window < 5*time.Second {
			continue
		}
		off := q.Offset
		for i := 0; i < 150; i++ {
			jitter := 0.9 + 0.2*sh.rng.Float64()
			off += time.Duration(float64(prof.RequeryPeriod) * jitter)
			if off >= s.Duration {
				break
			}
			cs.Queries = append(cs.Queries, TimedQuery{
				Offset: off,
				Text:   q.Text,
				Kind:   KindRequery,
			})
		}
	}

	// SHA1 source hunts: after a query leads to a download, the client
	// searches for further sources by hash.
	for _, q := range s.Queries {
		n := sh.geom(prof.SHA1PerQuery)
		window := s.Duration - q.Offset
		if window < 5*time.Second {
			continue
		}
		for i := 0; i < n && i < 40; i++ {
			off := q.Offset + time.Duration(sh.rng.Float64()*float64(window))
			cs.Queries = append(cs.Queries, TimedQuery{
				Offset: off,
				SHA1:   true,
				Kind:   KindSHA1,
			})
		}
	}

	// Fixed-interval automation: a run of distinct pending searches
	// replayed every IntervalEvery seconds exactly (rule 5). Asian-market
	// deployments run this far more often (Figure 6(c)).
	p := prof.IntervalProb
	countMean := prof.IntervalCountMean
	if s.Region == geo.Asia {
		p += asiaIntervalBoost
		// Asian deployments run much longer automation queues; this is
		// what puts ≈4% of unfiltered Asian sessions beyond 100 queries
		// in Figure 6(c).
		if countMean < asiaIntervalCountMean {
			countMean = asiaIntervalCountMean
		}
	}
	if p > 0 && sh.rng.Float64() < p && countMean > 0 {
		n := sh.geom(countMean)
		if n > 300 {
			n = 300
		}
		start := 2*time.Second + time.Duration(sh.rng.Float64()*float64(10*time.Second))
		for i := 0; i < n; i++ {
			off := start + time.Duration(i)*prof.IntervalEvery
			cs.Queries = append(cs.Queries, TimedQuery{
				Offset: off,
				// Interval automation replays a machine-held queue of
				// pending searches — filename-like strings outside the
				// user vocabulary. (This is also why Table 3's Asian
				// distinct-query counts stay tiny while Figure 6(c)'s
				// Asian tail reaches hundreds of queries: the paper
				// excludes rule-5 traffic from the popularity sets.)
				Text: sh.machineString(i),
				Kind: KindInterval,
			})
		}
		if end := start + time.Duration(n)*prof.IntervalEvery; end > cs.Duration {
			cs.Duration = end // automation keeps the client online
		}
	}

	sortQueries(cs.Queries)
	return cs
}

// machineString generates a filename-like query string for automated
// interval re-queries, distinct from the user vocabulary and from other
// entries of the same run.
func (sh *Shaper) machineString(i int) string {
	const hexdig = "0123456789abcdef"
	b := make([]byte, 0, 24)
	b = append(b, "file "...)
	for j := 0; j < 8; j++ {
		b = append(b, hexdig[sh.rng.IntN(16)])
	}
	b = append(b, ' ')
	b = appendInt(b, i)
	return string(b)
}

func appendInt(b []byte, v int) []byte {
	if v >= 10 {
		b = appendInt(b, v/10)
	}
	return append(b, byte('0'+v%10))
}

// geom draws a non-negative integer with the given mean (geometric on
// {0,1,2,…}).
func (sh *Shaper) geom(mean float64) int {
	if mean <= 0 {
		return 0
	}
	theta := mean / (1 + mean)
	u := sh.rng.Float64()
	if u == 0 {
		return 0
	}
	return int(math.Log(u) / math.Log(theta))
}

func dayOf(t time.Duration) int { return int(t / (24 * time.Hour)) }

// sortQueries orders the stream by offset. The sort must be stable so
// that equal-offset queries keep their generation order (determinism),
// and O(n log n) so that automation-heavy sessions (thousands of
// periodic re-queries) stay cheap.
func sortQueries(qs []TimedQuery) {
	sort.SliceStable(qs, func(i, j int) bool { return qs[i].Offset < qs[j].Offset })
}

// Generator composes the workload arrival process with the client layer:
// each arriving connection is a quick system session with probability
// QuickDisconnectFraction, and a wrapped user session otherwise.
type Generator struct {
	users  *workload.Generator
	shaper *Shaper
	rng    *rand.Rand
	// scenario mirrors cfg.Scenario; nil for scenario-free runs, in which
	// case every scenario hook below is a no-op and the generated stream
	// is byte-identical to the historical generator's.
	scenario *workload.Scenario
	// churnRNG drives churn truncation draws, deliberately separate from
	// rng so attaching churn events leaves the quick/wrap decisions and
	// shaping draws of every session untouched.
	churnRNG *rand.Rand
}

// NewGenerator builds the composed generator.
func NewGenerator(cfg workload.Config) *Generator {
	ug := workload.NewGenerator(cfg)
	g := &Generator{
		users:    ug,
		shaper:   NewShaper(cfg.Seed^0x51e55ed, ug.Vocabulary(), ug.Params()),
		rng:      rand.New(rand.NewPCG(cfg.Seed, 0xfeedface)),
		scenario: cfg.Scenario,
	}
	if cfg.Scenario != nil && len(cfg.Scenario.Churn) > 0 {
		g.churnRNG = rand.New(rand.NewPCG(cfg.Seed, 0xc4c41dead))
	}
	return g
}

// Workload exposes the inner user-session generator.
func (g *Generator) Workload() *workload.Generator { return g.users }

// Shaper exposes the client layer (for tests and ablations).
func (g *Generator) Shaper() *Shaper { return g.shaper }

// Next returns the next raw client session, or nil at the trace horizon.
func (g *Generator) Next() *Session {
	s := g.users.Next()
	if s == nil {
		return nil
	}
	// The quick draw happens for every arrival — automated scenario
	// classes merely ignore its outcome — so the rng stream stays
	// positional across scenarios.
	quick := g.rng.Float64() < model.QuickDisconnectFraction
	if quick && g.automated(s.Class) {
		quick = false
	}
	var cs *Session
	if quick {
		cs = g.shaper.Quick(s)
	} else {
		cs = g.shaper.Wrap(s)
	}
	g.applyChurn(cs)
	return cs
}

// automated reports whether the session's scenario class models automated
// clients (content injectors), which never take the user quick-disconnect
// path: a polluter that disconnects after 20 seconds pollutes nothing.
func (g *Generator) automated(class string) bool {
	cls := g.scenario.ClassByName(class)
	return cls != nil && cls.Automated()
}

// applyChurn truncates sessions caught by a scenario churn transient: a
// session spanning the mass-disconnect instant is, with the event's
// Fraction probability, cut off at that instant — its remaining queries
// never sent, exactly like a peer whose connection an intervention tore
// down. Draws come from the dedicated churn stream, one per spanning
// (session, event) pair, so the decision is positional and identical
// wherever the arrival chain is replayed (the engine's producer, each
// per-vantage NodeStream process, the chain-replay test oracle).
func (g *Generator) applyChurn(cs *Session) {
	if g.churnRNG == nil {
		return
	}
	for i := range g.scenario.Churn {
		e := &g.scenario.Churn[i]
		if cs.Start >= e.At || cs.End() <= e.At {
			continue
		}
		if g.churnRNG.Float64() >= e.Fraction {
			continue
		}
		cs.Duration = e.At - cs.Start
		kept := cs.Queries[:0]
		for _, q := range cs.Queries {
			if q.Offset < cs.Duration {
				kept = append(kept, q)
			}
		}
		cs.Queries = kept
	}
}
