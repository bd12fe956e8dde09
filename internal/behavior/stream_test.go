package behavior

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"
	"time"

	"repro/internal/workload"
)

// Generator stream goldens: the SHA-256 of every field of every session
// the composed generator produces at seed 2004, scale 0.2, over 2 days,
// with and without a scenario. At a capped single vantage most sessions
// are rejected before they reach the trace, so the trace hashes alone do
// not pin their bodies; these do, including the scenario paths (class
// overrides, churn truncation) that rewrite a generated session.
const (
	streamGoldenPlain    = "e6629c0a30400051533e1232982c325b9a89a3f5d5b3ce740640bcefc4d6f7a2"
	streamGoldenScenario = "ee3bd993c625baedb3b4844eabb23852908e264ba5dfde0bac602e66f50c1b68"
)

// goldenScenario exercises every scenario hook the generator has: an
// injecting, query-tripling polluter class (exempt from quick
// disconnects), a long-lived thinned lurker class, and one churn event
// whose outage and recovery surge reshape the arrival process and whose
// truncation cuts spanning sessions short.
func goldenScenario() *workload.Scenario {
	return &workload.Scenario{
		Classes: []workload.ClientClass{
			{Name: "polluter", Share: 0.1, QueryScale: 3, Inject: []string{"free movie xvid", "top hits 2004 mp3", "codec pack setup"}},
			{Name: "lurker", Share: 0.2, DurationScale: 2, QueryScale: 0.5},
		},
		Churn: []workload.ChurnEvent{
			{At: 30 * time.Hour, Fraction: 0.4, Outage: time.Hour, Recovery: 3 * time.Hour},
		},
	}
}

func goldenConfig(sc *workload.Scenario) workload.Config {
	cfg := workload.DefaultConfig(2004, 0.2)
	cfg.Days = 2
	cfg.Scenario = sc
	return cfg
}

// sessionHasher folds sessions into a SHA-256, every field fixed-width or
// length-prefixed so that no two distinct streams share an encoding.
type sessionHasher struct {
	h   hash.Hash
	buf []byte
	n   int
}

func newSessionHasher() *sessionHasher { return &sessionHasher{h: sha256.New()} }

func (sh *sessionHasher) str(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func (sh *sessionHasher) add(s *Session) {
	b := sh.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Start))
	b = append(b, byte(s.Region))
	a := s.Addr().As16()
	b = append(b, a[:]...)
	b = append(b, boolByte(s.Ultrapeer), boolByte(s.Quick))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.SharedFiles))
	b = sh.str(b, s.UserAgent)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Duration))
	b = binary.AppendUvarint(b, uint64(len(s.Queries)))
	for i := range s.Queries {
		q := &s.Queries[i]
		b = binary.LittleEndian.AppendUint64(b, uint64(q.Offset))
		b = sh.str(b, q.Text)
		b = append(b, boolByte(q.SHA1), byte(q.Kind))
	}
	sh.h.Write(b)
	sh.buf = b
	sh.n++
}

func (sh *sessionHasher) sum() string { return hex.EncodeToString(sh.h.Sum(nil)) }

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// hashStream hashes the stream next produces, each session one arrival
// late: it is hashed only after the generator has produced the following
// one, so a query stream the generator went on to reuse would show. done,
// when not nil, gets each session once it is hashed.
func hashStream(next func(*Session) bool, done func(*Session)) (string, int) {
	sh := newSessionHasher()
	var prev, cur Session
	for ok := next(&prev); ok; prev = cur {
		ok = next(&cur)
		sh.add(&prev)
		if done != nil {
			done(&prev)
		}
	}
	return sh.sum(), sh.n
}

// TestGeneratorStreamGolden runs both entry points: NextInto refilling
// one caller-owned Session (the engine's producer path) and Next. The
// recycled runs hand every stream back once it is hashed, poisoned at
// once, so the generator writes later streams into recycled arrays: the
// stream must not change, and no array may be handed out twice.
func TestGeneratorStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("generates four full 2-day streams")
	}
	for _, tc := range []struct {
		name string
		sc   *workload.Scenario
		want string
	}{
		{"plain", nil, streamGoldenPlain},
		{"scenario", goldenScenario(), streamGoldenScenario},
	} {
		t.Run(tc.name+"/into", func(t *testing.T) {
			g := NewGenerator(goldenConfig(tc.sc))
			if got, n := hashStream(g.NextInto, nil); got != tc.want {
				t.Errorf("stream of %d sessions hashes to %s, want %s", n, got, tc.want)
			}
		})
		t.Run(tc.name+"/recycled", func(t *testing.T) {
			PoisonRecycled.Store(true)
			t.Cleanup(func() { PoisonRecycled.Store(false) })
			g := NewGenerator(goldenConfig(tc.sc))
			recycle := func(s *Session) { g.Recycle(s.Queries) }
			if got, n := hashStream(g.NextInto, recycle); got != tc.want {
				t.Errorf("stream of %d sessions hashes to %s, want %s", n, got, tc.want)
			}
			if n := len(g.shaper.lent); n != 0 {
				t.Errorf("%d arrays still lent out after every stream came back", n)
			}
		})
		t.Run(tc.name+"/next", func(t *testing.T) {
			g := NewGenerator(goldenConfig(tc.sc))
			next := func(s *Session) bool {
				p := g.Next()
				if p != nil {
					*s = *p
				}
				return p != nil
			}
			if got, n := hashStream(next, nil); got != tc.want {
				t.Errorf("stream of %d sessions hashes to %s, want %s", n, got, tc.want)
			}
		})
	}
}
