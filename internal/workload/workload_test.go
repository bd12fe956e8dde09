package workload

import (
	"math"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/simtime"
)

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(DefaultConfig(42, 0.001))
	b := NewGenerator(DefaultConfig(42, 0.001))
	for i := 0; i < 200; i++ {
		sa, sb := a.Next(), b.Next()
		if (sa == nil) != (sb == nil) {
			t.Fatal("stream lengths differ")
		}
		if sa == nil {
			break
		}
		if sa.Start != sb.Start || sa.Region != sb.Region || sa.Passive != sb.Passive ||
			sa.Duration != sb.Duration || len(sa.Queries) != len(sb.Queries) {
			t.Fatalf("session %d differs between identical seeds", i)
		}
	}
}

func TestArrivalsRespectHorizon(t *testing.T) {
	cfg := DefaultConfig(1, 0.0005)
	cfg.Days = 2
	g := NewGenerator(cfg)
	n := 0
	for s := g.Next(); s != nil; s = g.Next() {
		if s.Start >= g.Horizon() {
			t.Fatalf("session starts at %v beyond horizon %v", s.Start, g.Horizon())
		}
		n++
	}
	// 0.05% of ~4544/h over 48h ≈ 109 sessions.
	if n < 50 || n > 200 {
		t.Errorf("generated %d sessions, expected ≈109", n)
	}
}

func TestArrivalVolumeMatchesScale(t *testing.T) {
	cfg := DefaultConfig(7, 0.01)
	cfg.Days = 5
	g := NewGenerator(cfg)
	n := 0
	for s := g.Next(); s != nil; s = g.Next() {
		n++
	}
	want := 4361965.0 * 0.01 * 5 / 40 // scale × days share of the trace
	if math.Abs(float64(n)-want)/want > 0.1 {
		t.Errorf("generated %d sessions, want ≈%.0f", n, want)
	}
}

func TestPassiveFractionInStream(t *testing.T) {
	cfg := DefaultConfig(3, 0.005)
	cfg.Days = 4
	g := NewGenerator(cfg)
	total, passive := 0, 0
	for s := g.Next(); s != nil; s = g.Next() {
		total++
		if s.Passive {
			passive++
			if len(s.Queries) != 0 {
				t.Fatal("passive session carries queries")
			}
		} else if len(s.Queries) == 0 {
			t.Fatal("active session without queries")
		}
	}
	frac := float64(passive) / float64(total)
	if frac < 0.78 || frac < 0.5 || frac > 0.88 {
		t.Errorf("passive fraction = %v over %d sessions, want ≈0.80–0.85", frac, total)
	}
}

func TestSessionInvariants(t *testing.T) {
	cfg := DefaultConfig(5, 0.005)
	cfg.Days = 3
	g := NewGenerator(cfg)
	reg := geo.Default()
	for s := g.Next(); s != nil; s = g.Next() {
		if s.Duration <= 0 {
			t.Fatalf("non-positive duration %v", s.Duration)
		}
		if got := reg.Lookup(s.Addr); got != s.Region {
			t.Fatalf("address %v resolves to %v, want %v", s.Addr, got, s.Region)
		}
		if s.SharedFiles < 0 {
			t.Fatal("negative shared files")
		}
		// Queries are time-ordered and inside the session.
		for i, q := range s.Queries {
			if q.Offset < 0 || q.Offset > s.Duration {
				t.Fatalf("query offset %v outside session duration %v", q.Offset, s.Duration)
			}
			if i > 0 && !s.Queries[i].PreConnect && q.Offset < s.Queries[i-1].Offset {
				t.Fatalf("queries out of order: %v after %v", q.Offset, s.Queries[i-1].Offset)
			}
			if q.Text == "" {
				t.Fatal("empty query text")
			}
		}
	}
}

func TestPassiveDurationsAboveRuleThree(t *testing.T) {
	cfg := DefaultConfig(11, 0.003)
	cfg.Days = 3
	g := NewGenerator(cfg)
	for s := g.Next(); s != nil; s = g.Next() {
		if s.Passive && s.Duration < 64*time.Second {
			t.Fatalf("passive session of %v would be discarded by rule 3", s.Duration)
		}
	}
}

func TestRegionMixInStream(t *testing.T) {
	cfg := DefaultConfig(13, 0.02)
	cfg.Days = 4
	g := NewGenerator(cfg)
	counts := map[geo.Region]int{}
	total := 0
	for s := g.Next(); s != nil; s = g.Next() {
		counts[s.Region]++
		total++
	}
	na := float64(counts[geo.NorthAmerica]) / float64(total)
	eu := float64(counts[geo.Europe]) / float64(total)
	as := float64(counts[geo.Asia]) / float64(total)
	if na < 0.60 || na > 0.82 {
		t.Errorf("NA share %v", na)
	}
	if eu < 0.05 || eu > 0.22 {
		t.Errorf("EU share %v", eu)
	}
	if as < 0.03 || as > 0.16 {
		t.Errorf("AS share %v", as)
	}
}

func TestQueriesPerActiveSessionOrdering(t *testing.T) {
	cfg := DefaultConfig(17, 0.03)
	cfg.Days = 5
	g := NewGenerator(cfg)
	sums := map[geo.Region]float64{}
	ns := map[geo.Region]int{}
	for s := g.Next(); s != nil; s = g.Next() {
		if !s.Passive {
			sums[s.Region] += float64(len(s.Queries))
			ns[s.Region]++
		}
	}
	eu := sums[geo.Europe] / float64(ns[geo.Europe])
	na := sums[geo.NorthAmerica] / float64(ns[geo.NorthAmerica])
	as := sums[geo.Asia] / float64(ns[geo.Asia])
	if !(eu > na && na > as) {
		t.Errorf("mean queries EU %v NA %v AS %v, want EU > NA > AS", eu, na, as)
	}
}

func TestPreConnectQueries(t *testing.T) {
	cfg := DefaultConfig(19, 0.01)
	cfg.Days = 3
	g := NewGenerator(cfg)
	withPre, active := 0, 0
	for s := g.Next(); s != nil; s = g.Next() {
		if s.Passive {
			continue
		}
		active++
		has := false
		for i, q := range s.Queries {
			if q.PreConnect {
				has = true
				if i >= 3 {
					t.Fatal("pre-connect query beyond the first three")
				}
				if q.Offset > time.Second {
					t.Fatalf("pre-connect query at offset %v", q.Offset)
				}
			}
		}
		if has {
			withPre++
		}
	}
	frac := float64(withPre) / float64(active)
	if math.Abs(frac-preConnectQueryFraction) > 0.05 {
		t.Errorf("pre-connect fraction = %v, want ≈%v", frac, preConnectQueryFraction)
	}
}

func TestSteadyState(t *testing.T) {
	// The Figure 12 steady-state rule built from SessionAt: N concurrent
	// peers at a fixed hour, each replaced the moment its session ends.
	g := NewGenerator(DefaultConfig(23, 1))
	start := simtime.Time(12 * time.Hour)
	peers := make([]*Session, 50)
	for i := range peers {
		peers[i] = g.SessionAt(start)
	}
	for _, s := range peers {
		if simtime.HourOfDay(s.Start) != 12 {
			t.Fatalf("steady-state session at hour %d", simtime.HourOfDay(s.Start))
		}
	}
	next := g.SessionAt(peers[0].End())
	if next.Start != peers[0].End() {
		t.Errorf("replacement starts at %v, want %v", next.Start, peers[0].End())
	}
}

func TestSessionAccessors(t *testing.T) {
	s := &Session{Start: simtime.At(0, 1, 0, 0), Duration: time.Hour,
		Queries: []Query{{Offset: time.Minute, Text: "x"}}}
	if s.NumQueries() != 1 {
		t.Error("NumQueries")
	}
	if s.End() != simtime.At(0, 2, 0, 0) {
		t.Error("End")
	}
}

func TestDefaultsApplied(t *testing.T) {
	g := NewGenerator(Config{Seed: 1})
	if g.cfg.Days != 40 || g.cfg.Scale != 1 {
		t.Errorf("defaults not applied: %+v", g.cfg)
	}
	if g.Params() == nil || g.Vocabulary() == nil {
		t.Error("accessors return nil")
	}
}
