package capture

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"repro/internal/guid"
	"repro/internal/simtime"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/wire"
)

// newTestRecorder returns a recorder under the paper's configuration
// whose producer ships into a channel the test reads.
func newTestRecorder() (*Recorder, chan stream.Batch) {
	ch := make(chan stream.Batch, 16)
	return NewRecorder(DefaultConfig(1, 1), rand.New(rand.NewPCG(1, 2)), stream.NewProducer(0, ch)), ch
}

// events flattens the batches shipped so far.
func events(ch chan stream.Batch) []stream.Event {
	var out []stream.Event
	for len(ch) > 0 {
		out = append(out, (<-ch).Events...)
	}
	return out
}

// TestRecorderSizesQueryListOnce pins Open's query hint: a session that
// sends the queries it was opened with fills one list of that capacity,
// and one that sends none still closes with a nil list, as an unhinted
// one does.
func TestRecorderSizesQueryListOnce(t *testing.T) {
	r, ch := newTestRecorder()
	var c, quiet Record
	for _, rec := range []*Record{&c, &quiet} {
		r.Admit()
		r.Open(rec, 0, netip.MustParseAddr("10.0.0.1"), false, "peer/1.0", 3)
	}
	if allocs := testing.AllocsPerRun(1, func() {
		c.queries = nil
		for i := range 3 {
			r.Query(&c, time.Duration(i+1)*time.Second, "q", false, 6)
		}
	}); allocs != 1 {
		t.Errorf("3 hinted queries took %v allocations, want 1", allocs)
	}
	if len(c.queries) != 3 || cap(c.queries) != 3 {
		t.Errorf("query list len %d cap %d, want 3 and 3", len(c.queries), cap(c.queries))
	}
	r.Close(&c, 5*time.Second, false)
	r.Close(&quiet, 5*time.Second, false)
	r.Finish(time.Minute)
	closes := 0
	for _, ev := range events(ch) {
		if ev.Kind != stream.EvClose {
			continue
		}
		closes++
		if ev.Sess.Conn.ID == quiet.conn.ID && ev.Sess.Queries != nil {
			t.Errorf("a session that sent no query closed with queries %#v, want nil", ev.Sess.Queries)
		}
	}
	if closes != 2 {
		t.Fatalf("%d session records, want 2", closes)
	}
}

// TestRecorderWireCounts maps every message type a peer can send onto the
// recorder: each is counted under its Table 1 row, a hop-1 QUERY is kept
// and a forwarded one only counted.
func TestRecorderWireCounts(t *testing.T) {
	r, ch := newTestRecorder()
	var c Record
	r.Admit()
	r.Open(&c, 0, netip.MustParseAddr("10.0.0.1"), true, "peer/1.0", 0)
	guids := guid.NewSource(3, 4)
	msg := func(hops uint8, m wire.Message) wire.Envelope {
		return wire.Envelope{Header: wire.Header{GUID: guids.Next(), Type: m.Type(), TTL: 7 - hops, Hops: hops}, Payload: m}
	}
	for i, env := range []wire.Envelope{
		msg(1, &wire.Query{SearchText: "a"}),
		msg(0, &wire.Ping{}),
		msg(1, &wire.Bye{Code: 200}),
		msg(1, &wire.Push{Addr: netip.MustParseAddr("66.1.1.1")}),
		msg(4, &wire.Query{SearchText: "b"}),
		msg(1, &wire.Pong{Addr: netip.MustParseAddr("10.0.0.1"), SharedFiles: 9}),
		msg(3, &wire.QueryHit{Addr: netip.MustParseAddr("66.2.2.2")}),
	} {
		r.Wire(&c, time.Duration(i+1)*time.Second, env)
	}
	want := trace.MessageCounts{Ping: 1, Pong: 1, Query: 2, QueryHit: 1, Push: 1, Bye: 1, QueryHop1: 1}
	if got := r.counts; got != want {
		t.Errorf("counts = %+v, want %+v", got, want)
	}
	if got := r.counts.Total(); got != 7 {
		t.Errorf("total = %d, want 7", got)
	}
	if len(c.queries) != 1 || c.queries[0].Text != "a" || c.queries[0].TTL != 6 || c.queries[0].At != time.Second {
		t.Errorf("kept queries = %+v, want the hop-1 query only", c.queries)
	}
	if c.lastRecv != 7*time.Second {
		t.Errorf("lastRecv = %v, want the last message's instant", c.lastRecv)
	}
	r.Finish(time.Minute)
	var pongs int
	for _, ev := range events(ch) {
		if ev.Kind == stream.EvPong {
			pongs++
			if ev.Pong.Hops != 1 || ev.Pong.SharedFiles != 9 {
				t.Errorf("pong record %+v, want the self-pong", ev.Pong)
			}
		}
	}
	if pongs != 1 {
		t.Errorf("%d pong records, want the one self-pong", pongs)
	}
}

// TestRecorderFinish pins what no simulator run exercises: the trailer's
// Days is the horizon rounded up to whole days; the sessions open at the
// horizon close there in ID order; and after Finish the recorder admits
// nothing and a late Close emits nothing.
func TestRecorderFinish(t *testing.T) {
	for _, tc := range []struct {
		horizon simtime.Time
		days    int
	}{
		{90 * time.Minute, 1},
		{simtime.Day, 1},
		{simtime.Day + 1, 2},
		{40 * simtime.Day, 40},
	} {
		r, ch := newTestRecorder()
		var a, b, c Record
		for _, rec := range []*Record{&a, &b, &c} {
			r.Admit()
			r.Open(rec, time.Second, netip.Addr{}, false, "", 0)
		}
		r.Close(&b, 2*time.Second, false)
		r.Finish(tc.horizon)

		var closes []uint64
		var end *stream.End
		for _, ev := range events(ch) {
			switch ev.Kind {
			case stream.EvClose:
				if ev.ID != 1 && ev.Time != tc.horizon {
					t.Errorf("session %d censored at %v, want the horizon %v", ev.ID, ev.Time, tc.horizon)
				}
				closes = append(closes, ev.ID)
			case stream.EvDone:
				end = ev.Done
			}
		}
		if len(closes) != 3 || closes[0] != 1 || closes[1] != 0 || closes[2] != 2 {
			t.Errorf("close order %v, want [1 0 2]", closes)
		}
		if end == nil || end.Days != tc.days {
			t.Fatalf("horizon %v: trailer %+v, want Days = %d", tc.horizon, end, tc.days)
		}

		if r.Admit() {
			t.Error("recorder admitted a connection after Finish")
		}
		if r.rejected != 0 {
			t.Errorf("refusal after Finish counted as a rejection")
		}
		if conn := r.Close(&a, tc.horizon+time.Second, false); conn != nil {
			t.Errorf("Close after Finish returned %+v", conn)
		}
		r.sink.Flush()
		if len(ch) != 0 {
			t.Errorf("Close after Finish emitted %+v", events(ch))
		}
	}
}
