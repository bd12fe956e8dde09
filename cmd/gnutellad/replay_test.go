package main

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/behavior"
	"repro/internal/filter"
	"repro/internal/guid"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// compress is the replay's time compression: 600× plays a 10-minute
// session in one second.
const compress = 600

// replay connects one synthetic client as userAgent and plays sess's
// script: each query at its offset, then a BYE at the session's end, with
// time compressed by compress.
func (lc *liveCapture) replay(sess *behavior.Session, userAgent string) error {
	peer, err := transport.Dial(lc.addr, transport.Options{
		UserAgent: userAgent,
		Ultrapeer: sess.Ultrapeer,
		Retry:     transport.Retry{Max: 5, Base: 20 * time.Millisecond, Cap: 500 * time.Millisecond, Seed: uint64(sess.Start) + 1},
	})
	if err != nil {
		return err
	}
	defer peer.Close()
	guids := guid.NewSource(uint64(sess.Start), 9)
	begin := time.Now()
	wait := func(offset time.Duration) { time.Sleep(offset/compress - time.Since(begin)) }
	for _, q := range sess.Queries {
		wait(q.Offset)
		wq := &wire.Query{SearchText: q.Text}
		if q.SHA1 {
			wq.Extensions = []string{"urn:sha1:PLSTHIPQGSSZTS5FJUPAKUZWUGYQYPFB"}
		}
		if err := peer.Send(message(guids, 1, wq)); err != nil {
			return err
		}
	}
	wait(sess.Duration)
	return peer.Send(message(guids, 1, &wire.Bye{Code: 200, Reason: "done"}))
}

// TestDaemonReplaysGeneratedSessions replays behavior-generated client
// sessions (keyword queries, SHA1 source hunts, automated re-queries)
// against the daemon over loopback TCP, time-compressed 600× with the
// daemon's clock compressed to match, drains what it recorded and runs
// the Section 3.3 filter on the trace. It asserts only what does not
// depend on wall-clock timing: one connection per session under its
// user agent, each connection's hop-1 query texts in the scripted order,
// and rule 1 removing exactly the SHA1 hunts sent.
func TestDaemonReplaysGeneratedSessions(t *testing.T) {
	cfg := workload.DefaultConfig(7, 0.002)
	cfg.Days = 1
	gen := behavior.NewGenerator(cfg)
	var sessions []*behavior.Session
	for s := gen.Next(); s != nil && len(sessions) < 8; s = gen.Next() {
		if !s.Quick && len(s.Queries) > 0 && s.Duration < 10*time.Minute {
			sessions = append(sessions, s)
		}
	}
	if len(sessions) < 8 {
		t.Fatalf("generated %d non-quick sessions with queries, want 8", len(sessions))
	}

	start := time.Now()
	lc := startLiveCapture(t, true, func() time.Duration { return compress * time.Since(start) })
	// The session index in each user agent tells the connections apart.
	agent := func(i int) string { return fmt.Sprintf("%s (replay %d)", sessions[i].UserAgent, i) }
	errs := make(chan error, len(sessions))
	for i, s := range sessions {
		go func() { errs <- lc.replay(s, agent(i)) }()
	}
	for range sessions {
		if err := <-errs; err != nil {
			t.Errorf("client: %v", err)
		}
		<-lc.served
	}
	tr := lc.drain(t)

	session := make(map[string]int, len(sessions))
	for i := range sessions {
		session[agent(i)] = i
	}
	texts := make(map[uint64][]string, len(tr.Conns))
	for _, q := range tr.Queries {
		texts[q.ConnID] = append(texts[q.ConnID], q.Text)
	}
	recorded := make([]int, len(sessions))
	for _, c := range tr.Conns {
		i, ok := session[c.UserAgent]
		if !ok {
			t.Errorf("conn %d has user agent %q, which no session sent", c.ID, c.UserAgent)
			continue
		}
		recorded[i]++
		var want []string
		for _, q := range sessions[i].Queries {
			want = append(want, q.Text)
		}
		if !slices.Equal(texts[c.ID], want) {
			t.Errorf("conn %d (%s): hop-1 query texts %q, want %q", c.ID, c.UserAgent, texts[c.ID], want)
		}
	}
	sha1 := 0
	for i, s := range sessions {
		if recorded[i] != 1 {
			t.Errorf("session %d (%s) recorded %d times, want once", i, agent(i), recorded[i])
		}
		for _, q := range s.Queries {
			if q.SHA1 {
				sha1++
			}
		}
	}
	if res := filter.Apply(tr); res.Rule1SHA1 != uint64(sha1) {
		t.Errorf("rule 1 removed %d queries, want the %d SHA1 hunts sent", res.Rule1SHA1, sha1)
	}
	t.Logf("%d sessions, %d hop-1 queries, %d SHA1 hunts", len(tr.Conns), len(tr.Queries), sha1)
}
