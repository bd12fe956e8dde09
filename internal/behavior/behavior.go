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
//
// A Generator produces sessions one arrival at a time: NextInto fills a
// caller-owned Session (the engine's producer path), Next returns a fresh
// one. Each Session carries its own exact-size query stream and no
// reference to the user session it wraps, whose storage the generator
// reuses from one arrival to the next. A consumer done with a stream may
// hand it back (Generator.Recycle), and a later session's stream is then
// written into its array instead of a new one.
package behavior

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sync/atomic"
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
// the user session plus everything the client software adds. It holds no
// reference to the user session it was generated from: the generator
// reuses that as scratch, and a Session is a plain value its consumer may
// copy (the engine queues sessions by value).
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
	// Queries is the full time-ordered query stream, in an array held by
	// this session alone (nil when it is empty).
	Queries []TimedQuery
	// addr is the peer's address, taken from the arrival skeleton (the
	// user session, or the unused would-be one of a quick disconnect).
	addr netip.Addr
}

// Addr returns the peer's address.
func (s *Session) Addr() netip.Addr { return s.addr }

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
	// buf collects a session's query stream in generation order and keys
	// holds its sort keys; both are scratch, reused across sessions, and
	// the stream leaves them through one exact-size copy (finishQueries).
	buf  []TimedQuery
	keys []queryKey
	// spare holds the recycled streams finishQueries copies into, by
	// capacity class: class k holds arrays of capacity [2^k, 2^(k+1)).
	// lent maps each stream handed out shorter than its array, by its
	// first element, to the whole array (see takeSpare).
	spare [bits.UintSize][][]TimedQuery
	lent  map[*TimedQuery][]TimedQuery
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

// Quick fills cs with the system-terminated quick session (< 64 s) the
// arrival skeleton s becomes: the connection the measurement node sees
// when client software decides to disconnect for its own reasons (rule
// 3). It overwrites every field of cs and keeps no reference to s.
func (sh *Shaper) Quick(s *workload.Session, cs *Session) {
	prof := sh.PickProfile()
	*cs = Session{
		Start:       time.Duration(s.Start),
		Region:      s.Region,
		Ultrapeer:   s.Ultrapeer,
		SharedFiles: s.SharedFiles,
		UserAgent:   prof.UserAgent,
		Quick:       true,
		Duration:    sh.model.SampleQuickDisconnect(sh.rng),
		addr:        s.Addr,
	}
	// A small fraction of quick sessions carries a query or two (Table 2,
	// rule 3: ≈0.1 queries per discarded session).
	qs := sh.buf[:0]
	if sh.rng.Float64() < model.QuickSessionQueryFraction {
		day := dayOf(cs.Start)
		off := time.Duration(sh.rng.Float64() * float64(cs.Duration))
		qs = append(qs, TimedQuery{
			Offset: off,
			Text:   sh.vocab.Sample(sh.rng, s.Region, day),
			Kind:   KindUser,
		})
		if sh.rng.Float64() < 0.5 && cs.Duration-off > 2*time.Second {
			// An immediate automated re-send inside the short window.
			qs = append(qs, TimedQuery{
				Offset: off + time.Second + time.Duration(sh.rng.Float64()*float64(time.Second)),
				Text:   qs[0].Text,
				Kind:   KindRequery,
			})
		}
	}
	sh.buf = qs
	cs.Queries = sh.finishQueries()
}

// Wrap fills cs with the raw client session the overlay will observe for
// the user session s. It overwrites every field of cs and keeps no
// reference to s.
func (sh *Shaper) Wrap(s *workload.Session, cs *Session) {
	prof := sh.PickProfile()
	*cs = Session{
		Start:       time.Duration(s.Start),
		Region:      s.Region,
		Ultrapeer:   s.Ultrapeer,
		SharedFiles: s.SharedFiles,
		UserAgent:   prof.UserAgent,
		Duration:    s.Duration,
		addr:        s.Addr,
	}
	if s.Passive {
		return
	}

	// User queries, with the pre-connect ones forming the rule-4 burst:
	// the client re-issues them back to back right after connecting.
	qs := sh.buf[:0]
	burstAt := 200 * time.Millisecond
	for _, q := range s.Queries {
		tq := TimedQuery{Offset: q.Offset, Text: q.Text, Kind: KindUser}
		if q.PreConnect {
			tq.Kind = KindBurst
			tq.Offset = burstAt
			burstAt += 300*time.Millisecond + time.Duration(sh.rng.Float64()*400)*time.Millisecond
		}
		qs = append(qs, tq)
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
			qs = append(qs, TimedQuery{
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
			qs = append(qs, TimedQuery{
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
			qs = append(qs, TimedQuery{
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

	sh.buf = qs
	cs.Queries = sh.finishQueries()
}

// finishQueries copies the stream collected in sh.buf out, ordered by
// offset, to a slice whose length is its capacity (nil when empty), and
// leaves sh.buf for the next session. The copy goes into a recycled array
// when one fits (takeSpare), and into a new one of exactly the stream's
// length otherwise. A stream generated in order, such as every quick
// session's, skips the sort.
func (sh *Shaper) finishQueries() []TimedQuery {
	qs := sh.buf
	if len(qs) == 0 {
		return nil
	}
	out := sh.takeSpare(len(qs))
	if slices.IsSortedFunc(qs, compareOffsets) {
		copy(out, qs)
		return out
	}
	sh.keys = sortKeys(qs, sh.keys)
	for i, k := range sh.keys {
		out[i] = qs[k.index]
	}
	return out
}

// takeSpare returns a recycled array for an n-query stream as arr[:n:n],
// or a new one of length n when none fits. It looks at the top of three
// classes: n's own, whose arrays may be shorter than n, and the two above
// it, every array of which fits. An array lent out longer than the
// stream is remembered in lent, so recycle files it at its full length
// again and arrays do not shrink class by class. Its old contents are
// left for the caller to overwrite, and its hidden tail is cleared, so it
// keeps no earlier session's strings alive.
func (sh *Shaper) takeSpare(n int) []TimedQuery {
	k := bits.Len(uint(n)) - 1
	for c := k; c <= k+2 && c < len(sh.spare); c++ {
		free := sh.spare[c]
		if len(free) == 0 || len(free[len(free)-1]) < n {
			continue
		}
		arr := free[len(free)-1]
		free[len(free)-1] = nil
		sh.spare[c] = free[:len(free)-1]
		if len(arr) > n {
			clear(arr[n:])
			if sh.lent == nil {
				sh.lent = make(map[*TimedQuery][]TimedQuery)
			}
			sh.lent[&arr[0]] = arr
		}
		return arr[:n:n]
	}
	return make([]TimedQuery, n)
}

// recycle files a stream nothing reads any more under the capacity class
// of its whole array.
func (sh *Shaper) recycle(qs []TimedQuery) {
	if cap(qs) == 0 {
		return
	}
	qs = qs[:cap(qs)]
	if arr, ok := sh.lent[&qs[0]]; ok {
		delete(sh.lent, &qs[0])
		qs = arr
	}
	if PoisonRecycled.Load() {
		for i := range qs {
			qs[i] = poisonQuery
		}
	}
	c := bits.Len(uint(len(qs))) - 1
	sh.spare[c] = append(sh.spare[c], qs)
}

// PoisonRecycled, when set, makes Generator.Recycle overwrite every
// stream it takes back with poisonQuery at once. It is a test seam: a
// consumer that still reads a stream after handing it back then records
// the sentinel, and a trace hash shows it.
var PoisonRecycled atomic.Bool

// poisonQuery is the sentinel PoisonRecycled writes: a text no vocabulary
// or automation produces, at an offset no session reaches.
var poisonQuery = TimedQuery{Offset: math.MinInt64, Text: "\x00recycled stream read", SHA1: true, Kind: 0xff}

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

// queryKey is a query's sort key: its offset and its generation index.
// Ordering keys by (offset, index) orders the queries by offset with ties
// in generation order — exactly a stable sort by offset — while the sort
// moves 16-byte, pointer-free keys instead of the 40-byte queries.
type queryKey struct {
	offset time.Duration
	index  int
}

func compareOffsets(a, b TimedQuery) int { return cmp.Compare(a.Offset, b.Offset) }

// sortKeys fills keys (reusing its backing array) with the stream's sort
// keys in offset order. The sort must keep equal-offset queries in their
// generation order (determinism) and be O(n log n), so that
// automation-heavy sessions (thousands of periodic re-queries) stay cheap.
func sortKeys(qs []TimedQuery, keys []queryKey) []queryKey {
	keys = keys[:0]
	for i := range qs {
		keys = append(keys, queryKey{qs[i].Offset, i})
	}
	slices.SortFunc(keys, func(a, b queryKey) int {
		if c := cmp.Compare(a.offset, b.offset); c != 0 {
			return c
		}
		return cmp.Compare(a.index, b.index)
	})
	return keys
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
	// user is the arrival skeleton scratch: every arrival's user session
	// is generated into it, reusing its query array, and read by the
	// shaper before the next arrival overwrites it.
	user workload.Session
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

// Next returns the next raw client session as a fresh heap object, or nil
// at the trace horizon. Its query stream is as NextInto's: a new array of
// exactly its length unless streams have come back through Recycle.
func (g *Generator) Next() *Session {
	cs := new(Session)
	if !g.NextInto(cs) {
		return nil
	}
	return cs
}

// NextInto fills cs with the next raw client session and reports false at
// the trace horizon. It overwrites every field of cs; the Queries it
// leaves there belong to this session alone (unlike
// workload.Generator.NextInto's) until the caller hands them back through
// Recycle, so cs may be copied and kept as a value while the caller
// passes the same cs back for the next arrival.
func (g *Generator) NextInto(cs *Session) bool {
	s := &g.user
	if !g.users.NextInto(s) {
		return false
	}
	// The quick draw happens for every arrival — automated scenario
	// classes merely ignore its outcome — so the rng stream stays
	// positional across scenarios.
	quick := g.rng.Float64() < model.QuickDisconnectFraction
	if quick && g.automated(s.Class) {
		quick = false
	}
	if quick {
		g.shaper.Quick(s, cs)
	} else {
		g.shaper.Wrap(s, cs)
	}
	g.applyChurn(cs)
	return true
}

// Recycle takes back a session's query stream once nothing reads it any
// more, neither the session nor any copy of it: a later session's stream
// may be written into the same array. The generator keeps only streams
// handed back to it and allocates only when none it holds fits, so what
// it holds grows with the streams its consumer keeps out at once, not
// with the run's length. Recycling is optional: a stream never handed
// back stays its consumer's, though one written into a longer recycled
// array is freed only with the generator. Like the rest of the
// Generator, Recycle is not safe for concurrent use.
func (g *Generator) Recycle(qs []TimedQuery) { g.shaper.recycle(qs) }

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
