// Package filter implements the paper's Section 3.3 data-cleaning rules,
// which separate user behavior from Gnutella client-software behavior:
//
//	rule 1 — discard QUERY messages with an empty keyword set and a SHA1
//	         extension (automatic source hunting for known files);
//	rule 2 — discard QUERY messages whose keyword set was already issued
//	         by the same peer within the session (automatic re-queries);
//	rule 3 — discard sessions shorter than 64 seconds (system-initiated
//	         quick disconnects) along with their remaining queries;
//	rule 4 — flag queries arriving less than one second after the
//	         previous one (re-issues of pre-connection user queries);
//	rule 5 — flag runs of queries with identical interarrival times
//	         (fixed-interval client automation).
//
// Rules 1–3 discard; rules 4–5 only flag: flagged queries still count
// toward the number of queries per session (the user issued them, just
// before connecting), but their arrival times are system-determined, so
// they are excluded from the interarrival-time measure — and rule-5
// machine queries are additionally excluded from the popularity analysis
// (see the package documentation of internal/analysis).
//
// Apply reproduces Table 2: the count of queries and sessions removed by
// each rule in sequence. Every rule conditions only on a single session's
// own stream, so Apply runs data-parallel over connections (ApplyOpts)
// with byte-identical output for every worker count.
package filter

import (
	"time"

	"repro/internal/par"
	"repro/internal/trace"
	"repro/internal/wire"
)

// MinSessionDuration is rule 3's threshold.
const MinSessionDuration = 64 * time.Second

// MinInterarrival is rule 4's threshold.
const MinInterarrival = time.Second

// iatQuantum is the resolution at which rule 5 compares interarrival
// times: client timers schedule at coarse granularity, so equality is
// tested on 100 ms buckets.
const iatQuantum = 100 * time.Millisecond

// Query is one retained query with its filter annotations.
type Query struct {
	// At is the receive time.
	At trace.Time
	// Key is the canonical keyword-set identity (wire.KeywordKey).
	Key string
	// Rule4 marks a sub-second interarrival (no valid IAT measure).
	Rule4 bool
	// Rule5 marks membership in a fixed-interval automation run.
	Rule5 bool
}

// Session is a retained (≥ 64 s) session with its surviving queries.
type Session struct {
	// Conn points into the source trace.
	Conn *trace.Conn
	// Queries holds the queries surviving rules 1–2, in time order.
	Queries []Query
}

// Passive reports whether the session issued no surviving queries.
func (s *Session) Passive() bool { return len(s.Queries) == 0 }

// NumUserQueries counts the session's user-intent queries: everything
// surviving rules 1–2 except rule-5 automation. This is the paper's
// "number of queries per session" measure (Figure 6(a), Table A.2).
func (s *Session) NumUserQueries() int {
	n := 0
	for i := range s.Queries {
		if !s.Queries[i].Rule5 {
			n++
		}
	}
	return n
}

// NumAllQueries counts every surviving query — the Figure 6(c) measure
// ("filter rules 4 & 5 not applied").
func (s *Session) NumAllQueries() int { return len(s.Queries) }

// Result is the outcome of the full pipeline, with Table 2's accounting.
type Result struct {
	// TotalSessions and TotalHop1Queries are the pipeline input sizes
	// (Table 2's first row).
	TotalSessions    uint64
	TotalHop1Queries uint64
	// Rule1SHA1 counts queries discarded by rule 1.
	Rule1SHA1 uint64
	// Rule2Duplicates counts queries discarded by rule 2.
	Rule2Duplicates uint64
	// Rule3Sessions counts sessions discarded by rule 3, and Rule3Queries
	// the surviving queries those sessions carried.
	Rule3Sessions uint64
	Rule3Queries  uint64
	// FinalSessions and FinalQueries are the retained totals ("Final
	// number of QUERY messages and sessions considered").
	FinalSessions uint64
	FinalQueries  uint64
	// Rule4SubSecond and Rule5FixedInterval count flagged queries.
	Rule4SubSecond     uint64
	Rule5FixedInterval uint64
	// IATQueries counts queries contributing a valid interarrival time
	// (Table 2's last row).
	IATQueries uint64
	// Sessions holds every retained session, ordered by connection ID.
	Sessions []Session
}

// Options tunes how Apply executes. The zero value picks the parallel
// mode sized to the machine.
type Options struct {
	// Workers bounds the worker pool the per-connection rule passes fan
	// out over. 0 means GOMAXPROCS; 1 forces the fully sequential mode.
	// The result is byte-identical across all settings: each connection's
	// rules depend only on that connection's query stream, chunk counters
	// are summed, and retained sessions are reassembled in connection
	// order.
	Workers int
}

// Apply runs rules 1–5 over a trace with the default options (parallel,
// sized to the machine).
func Apply(tr *trace.Trace) *Result {
	return ApplyOpts(tr, Options{})
}

// partial accumulates one connection range's pipeline outcome; partials
// merge into the Result in range order, which keeps the output identical
// to the sequential pass.
type partial struct {
	rule1, rule2                uint64
	rule3Sessions, rule3Queries uint64
	finalSessions, finalQueries uint64
	rule4, rule5, iat           uint64
	sessions                    []Session
}

// ApplyOpts runs rules 1–5 over a trace on a bounded worker pool. Every
// rule conditions only on a single session's query stream (rules 1–2 on
// its keyword history, rule 3 on its duration, rules 4–5 on its
// interarrival sequence), so connections partition into independent
// chunks; at full-trace volume (4.36 M connections) this pass dominates
// characterization, which is why it fans out over the shared pool.
func ApplyOpts(tr *trace.Trace, opts Options) *Result {
	workers := par.Workers(opts.Workers)
	res := &Result{
		TotalSessions:    uint64(len(tr.Conns)),
		TotalHop1Queries: uint64(len(tr.Queries)),
	}
	byConn := tr.QueriesPerConn()

	// ~4 chunks per worker smooths imbalance from query-heavy regions of
	// the trace without shredding cache locality.
	type span struct{ lo, hi int }
	var spans []span
	par.Chunks(len(tr.Conns), workers*4, func(_, lo, hi int) {
		spans = append(spans, span{lo, hi})
	})
	partials := make([]partial, len(spans))
	tasks := make([]func(), len(spans))
	for ci := range spans {
		tasks[ci] = func() {
			applyRange(tr, byConn, spans[ci].lo, spans[ci].hi, &partials[ci])
		}
	}
	par.Run(workers, tasks)

	nSessions := 0
	for i := range partials {
		nSessions += len(partials[i].sessions)
	}
	res.Sessions = make([]Session, 0, nSessions)
	for i := range partials {
		p := &partials[i]
		res.Rule1SHA1 += p.rule1
		res.Rule2Duplicates += p.rule2
		res.Rule3Sessions += p.rule3Sessions
		res.Rule3Queries += p.rule3Queries
		res.FinalSessions += p.finalSessions
		res.FinalQueries += p.finalQueries
		res.Rule4SubSecond += p.rule4
		res.Rule5FixedInterval += p.rule5
		res.IATQueries += p.iat
		res.Sessions = append(res.Sessions, p.sessions...)
	}
	return res
}

// applyRange runs the per-connection rule passes over Conns[lo:hi).
func applyRange(tr *trace.Trace, byConn [][]*trace.Query, lo, hi int, out *partial) {
	// One keyword table per range: it interns each keyword key, so a
	// keyword set costs its string once per range (and not at all when
	// the query text already is its key), and it notes the last
	// connection that issued the set, which is rule 2's per-session
	// history. Keys are built in buf and looked up without allocating.
	type keyUse struct {
		key  string
		conn int
	}
	keys := make(map[string]keyUse)
	var buf []byte
	for i := lo; i < hi; i++ {
		conn := &tr.Conns[i]
		raw := byConn[i]

		// Rules 1 and 2 operate on the query stream of one session.
		var kept []Query
		for _, q := range raw {
			buf = wire.AppendKeywordKey(buf[:0], q.Text)
			// Rule 1: source-hunting re-queries carry a SHA1 URN and no
			// keywords. Keywordless non-SHA1 queries carry no user intent
			// either; the paper's rule 1 folds these in ("empty keywords
			// and SHA1 extension").
			if len(buf) == 0 {
				out.rule1++
				continue
			}
			u, ok := keys[string(buf)]
			// Rule 2: repeated keyword set within the session.
			if ok && u.conn == i {
				out.rule2++
				continue
			}
			if !ok {
				if u.key = q.Text; u.key != string(buf) {
					u.key = string(buf)
				}
			}
			u.conn = i
			keys[u.key] = u
			kept = append(kept, Query{At: q.At, Key: u.key})
		}

		// Rule 3: short sessions are system behavior.
		if conn.Duration() < MinSessionDuration {
			out.rule3Sessions++
			out.rule3Queries += uint64(len(kept))
			continue
		}

		flagRules45(conn.Start, kept, out)
		out.finalSessions++
		out.finalQueries += uint64(len(kept))
		out.sessions = append(out.sessions, Session{Conn: conn, Queries: kept})
	}
}

// flagRules45 marks rule-4 and rule-5 queries and accumulates counters.
func flagRules45(start trace.Time, qs []Query, out *partial) {
	// Rule 4: sub-second interarrival relative to the previous query, or —
	// for the session's first query — to the connection establishment: a
	// query fired within a second of the handshake is a pre-connection
	// re-issue, not a user keystroke (the head of the rule-4 burst).
	if len(qs) > 0 && qs[0].At-start < MinInterarrival {
		qs[0].Rule4 = true
		out.rule4++
	}
	for i := 1; i < len(qs); i++ {
		if qs[i].At-qs[i-1].At < MinInterarrival {
			qs[i].Rule4 = true
			out.rule4++
		}
	}
	// Rule 5: identical consecutive interarrival times among the queries
	// that still have system-independent timing (rule-4 exclusions are
	// already out of the IAT sequence). Two equal consecutive IATs
	// identify a three-query automation run; the whole run is flagged,
	// including its head.
	var chain []int
	for i := range qs {
		if !qs[i].Rule4 {
			chain = append(chain, i)
		}
	}
	flag := func(i int) {
		if !qs[i].Rule5 {
			qs[i].Rule5 = true
			out.rule5++
		}
	}
	iat := func(k int) time.Duration {
		return (qs[chain[k]].At - qs[chain[k-1]].At) / iatQuantum
	}
	for k := 2; k < len(chain); k++ {
		if iat(k) == iat(k-1) {
			flag(chain[k])
			flag(chain[k-1])
			flag(chain[k-2])
		}
	}
	// IAT-eligible queries: non-first, unflagged.
	first := true
	for i := range qs {
		if qs[i].Rule4 || qs[i].Rule5 {
			continue
		}
		if first {
			first = false
			continue
		}
		out.iat++
	}
}

// Interarrivals returns the session's valid interarrival times: gaps
// between consecutive unflagged queries.
func (s *Session) Interarrivals() []time.Duration {
	return s.AppendInterarrivals(nil)
}

// AppendInterarrivals appends the session's valid interarrival times to
// buf and returns the extended slice. Hot loops pass a reused scratch
// buffer (sliced to zero length) to avoid one allocation per session.
func (s *Session) AppendInterarrivals(buf []time.Duration) []time.Duration {
	prev := trace.Time(-1)
	for i := range s.Queries {
		q := &s.Queries[i]
		if q.Rule4 || q.Rule5 {
			continue
		}
		if prev >= 0 {
			buf = append(buf, q.At-prev)
		}
		prev = q.At
	}
	return buf
}

// FirstQueryTime returns the offset of the first query whose timing the
// user determined, and false when the session has none. Rule-4 re-issues
// and rule-5 automation are skipped: their arrival times were chosen by
// the client software, and the paper's Table A.3 model (a Weibull body
// with an interior mode) only makes sense for user-timed first queries —
// the flagged bursts would otherwise put a large mass at ≈0 s.
func (s *Session) FirstQueryTime() (time.Duration, bool) {
	for i := range s.Queries {
		if s.Queries[i].Rule4 || s.Queries[i].Rule5 {
			continue
		}
		return s.Queries[i].At - s.Conn.Start, true
	}
	return 0, false
}

// LastQueryGap returns the time between the last user-timed query and the
// session end, and false when the session has none. As with
// FirstQueryTime, rule-4/5 flagged queries are skipped: a session whose
// only queries are connect-burst re-issues would otherwise report its
// whole duration as "time after last query" and inflate Table A.5's
// single-query bucket.
func (s *Session) LastQueryGap() (time.Duration, bool) {
	for i := len(s.Queries) - 1; i >= 0; i-- {
		if s.Queries[i].Rule4 || s.Queries[i].Rule5 {
			continue
		}
		return s.Conn.End - s.Queries[i].At, true
	}
	return 0, false
}
