package ingest_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
)

// genStream builds input's deterministic synthetic event stream:
// overlapping sessions with nondecreasing event times, one query each,
// and the EvDone trailer. The same input index always yields the same
// stream — the property a restarted emitter relies on.
func genStream(input, n int) []stream.Event {
	type timed struct {
		t  trace.Time
		ev stream.Event
	}
	var items []timed
	for i := 0; i < n; i++ {
		id := uint64(i + 1)
		start := time.Duration(i)*50*time.Millisecond + time.Duration(input)*7*time.Millisecond
		end := start + time.Duration((i%9)+1)*130*time.Millisecond
		rec := &stream.SessionRecord{
			Conn: trace.Conn{Start: start, End: end, UserAgent: fmt.Sprintf("V%d/1.0", input)},
			Queries: []trace.Query{
				{At: start + time.Millisecond, Text: fmt.Sprintf("q %d %d", input, i), TTL: 7, Hops: 1},
			},
		}
		items = append(items, timed{start, stream.Event{Kind: stream.EvOpen, ID: id, Time: start}})
		items = append(items, timed{end, stream.Event{Kind: stream.EvClose, ID: id, Time: end, Sess: rec}})
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].t < items[b].t })
	evs := make([]stream.Event, 0, len(items)+1)
	for _, it := range items {
		evs = append(evs, it.ev)
	}
	horizon := items[len(items)-1].t + time.Second
	end := &stream.End{Nodes: 1, Counts: trace.MessageCounts{Query: uint64(n), QueryHop1: uint64(n)}}
	if input == 0 {
		end.Seed = 42
		end.Scale = 0.5
		end.Days = 1
	}
	evs = append(evs, stream.Event{Kind: stream.EvDone, Time: horizon, Done: end})
	return evs
}

// directMerge is the in-process reference: the same streams through a
// stream.Merger with no network in between.
func directMerge(streams [][]stream.Event) *trace.Trace {
	m := stream.NewMerger(len(streams), nil)
	done := make(chan *trace.Trace)
	go func() { done <- m.Run() }()
	var wg sync.WaitGroup
	for i, evs := range streams {
		wg.Add(1)
		go func(i int, evs []stream.Event) {
			defer wg.Done()
			feedBatches(m.Intake(), i, evs)
		}(i, evs)
	}
	wg.Wait()
	return <-done
}

func feedBatches(ch chan<- stream.Batch, input int, evs []stream.Event) {
	for len(evs) > 0 {
		n := len(evs)
		if n > 64 {
			n = 64
		}
		ch <- stream.Batch{Input: input, Events: evs[:n:n]}
		evs = evs[n:]
	}
}

func hashOf(t *testing.T, tr *trace.Trace) [32]byte {
	t.Helper()
	h, err := tr.Hash()
	if err != nil {
		t.Fatalf("hash: %v", err)
	}
	return h
}

// runCollector runs col in the background; the channel yields its
// merged trace.
func runCollector(t *testing.T, col *ingest.Collector) <-chan *trace.Trace {
	trCh := make(chan *trace.Trace, 1)
	go func() {
		tr, err := col.Run()
		if err != nil {
			t.Errorf("collector: %v", err)
		}
		trCh <- tr
	}()
	return trCh
}

// runEmitters ships each stream through its own emitter and returns once
// all emitter Runs finished, failing the test on any emitter error.
func runEmitters(t *testing.T, addr string, streams [][]stream.Event, mod func(int, *ingest.EmitterConfig)) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(streams))
	for i, evs := range streams {
		cfg := ingest.EmitterConfig{Addr: addr, Input: i}
		if mod != nil {
			mod(i, &cfg)
		}
		em := ingest.NewEmitter(cfg)
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			errs[i] = em.Run()
		}(i)
		go func(i int, evs []stream.Event) {
			defer wg.Done()
			feedBatches(em.Intake(), i, evs)
			close(em.Intake())
		}(i, evs)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("emitter %d: %v", i, err)
		}
	}
}

// TestIngestLoopbackByteIdentical is the tentpole contract on a clean
// network: three emitter connections into a collector produce exactly
// the trace the in-process merge produces.
func TestIngestLoopbackByteIdentical(t *testing.T) {
	streams := [][]stream.Event{genStream(0, 120), genStream(1, 120), genStream(2, 120)}
	want := hashOf(t, directMerge(streams))

	col, err := ingest.NewCollector(ingest.CollectorConfig{Inputs: 3})
	if err != nil {
		t.Fatal(err)
	}
	trCh := runCollector(t, col)

	runEmitters(t, col.Addr(), streams, nil)
	got := <-trCh
	if hashOf(t, got) != want {
		t.Fatal("collector trace differs from in-process merge")
	}
	if col.DeadInputs() != 0 || col.LostSessions() != 0 {
		t.Fatalf("clean run reported losses: dead=%d lost=%d", col.DeadInputs(), col.LostSessions())
	}
	if got.Nodes != 3 {
		t.Fatalf("Nodes = %d, want 3", got.Nodes)
	}
}

// TestIngestByteIdenticalUnderFaults reruns the identity under a seeded
// fault schedule on both directions: dropped, duplicated and reordered
// frames on the data path and the ack path alike. The emitters survive
// by reconnecting, resuming from the acked watermark and retransmitting;
// the collector dedupes; the drained trace must still be byte-identical.
func TestIngestByteIdenticalUnderFaults(t *testing.T) {
	streams := [][]stream.Event{genStream(0, 90), genStream(1, 90), genStream(2, 90)}
	want := hashOf(t, directMerge(streams))

	inj := faultnet.New(faultnet.Config{
		Seed:        2004,
		DropProb:    0.02,
		DupProb:     0.05,
		ReorderProb: 0.05,
	})
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	col, err := ingest.NewCollector(ingest.CollectorConfig{
		Inputs:      3,
		Listener:    inj.Listener(inner),
		EvictAfter:  30 * time.Second, // faults, not death: nothing may be evicted
		ReadTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	trCh := runCollector(t, col)

	dial := inj.Dial(func(addr string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	})
	runEmitters(t, col.Addr(), streams, func(i int, cfg *ingest.EmitterConfig) {
		cfg.Dial = dial
		cfg.Retry = transport.Retry{Max: 500, Base: time.Millisecond, Cap: 10 * time.Millisecond, Seed: uint64(i + 1)}
		cfg.AckTimeout = 400 * time.Millisecond
		cfg.WelcomeTimeout = 300 * time.Millisecond
	})
	got := <-trCh
	if hashOf(t, got) != want {
		t.Fatal("trace under faults differs from in-process merge")
	}
	if col.DeadInputs() != 0 || col.LostSessions() != 0 {
		t.Fatalf("faulty-but-alive run reported losses: dead=%d lost=%d", col.DeadInputs(), col.LostSessions())
	}
}

// TestIngestEmitterRestartResume kills an emitter mid-stream (Stop — no
// flush, exactly like SIGKILL) and replaces it with a fresh process-like
// emitter that regenerates the stream from seq 1. The welcome's resume
// watermark makes the replacement skip everything already applied, and
// the final trace is still byte-identical.
func TestIngestEmitterRestartResume(t *testing.T) {
	streams := [][]stream.Event{genStream(0, 100), genStream(1, 100)}
	want := hashOf(t, directMerge(streams))

	col, err := ingest.NewCollector(ingest.CollectorConfig{Inputs: 2, EvictAfter: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	trCh := runCollector(t, col)

	// Input 1's first life: sends roughly half its events, then dies.
	half := len(streams[1]) / 2
	e1 := ingest.NewEmitter(ingest.EmitterConfig{Addr: col.Addr(), Input: 1})
	e1done := make(chan error, 1)
	go func() { e1done <- e1.Run() }()
	feedBatches(e1.Intake(), 1, streams[1][:half])
	// Wait until the collector has applied some of it, so the restart
	// genuinely resumes rather than starting from zero.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if h := col.Health(); h.Inputs[1].AppliedSeq > uint64(half/2) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("collector never applied input 1's first life")
		}
		time.Sleep(5 * time.Millisecond)
	}
	e1.Stop()
	if err := <-e1done; err != nil {
		t.Fatalf("first life: %v", err)
	}

	// Input 0 runs normally; input 1's second life regenerates the whole
	// stream and resumes from the ack watermark.
	runEmitters(t, col.Addr(), [][]stream.Event{streams[0]}, nil)
	e2 := ingest.NewEmitter(ingest.EmitterConfig{Addr: col.Addr(), Input: 1})
	e2done := make(chan error, 1)
	go func() { e2done <- e2.Run() }()
	feedBatches(e2.Intake(), 1, streams[1])
	close(e2.Intake())
	if err := <-e2done; err != nil {
		t.Fatalf("second life: %v", err)
	}

	got := <-trCh
	if hashOf(t, got) != want {
		t.Fatal("trace after restart+resume differs from in-process merge")
	}
	if col.DeadInputs() != 0 {
		t.Fatalf("restarted input counted dead: %d", col.DeadInputs())
	}
}

// TestIngestDeadInputEvictedNoDeadlock is the degradation contract: a
// vantage that dies and never returns must not deadlock the collector.
// After EvictAfter of silence the input is evicted, the merge drains,
// and the loss is accounted exactly. A late replacement emitter for the
// dead input is turned away with ErrEvicted.
func TestIngestDeadInputEvictedNoDeadlock(t *testing.T) {
	col, err := ingest.NewCollector(ingest.CollectorConfig{
		Inputs:     3,
		StallAfter: 50 * time.Millisecond,
		EvictAfter: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	trCh := runCollector(t, col)

	// Input 0 completes immediately.
	runEmitters(t, col.Addr(), [][]stream.Event{genStream(0, 20)}, nil)

	// Input 1 opens two sessions, closes one, then its process dies.
	e1 := ingest.NewEmitter(ingest.EmitterConfig{Addr: col.Addr(), Input: 1})
	e1done := make(chan error, 1)
	go func() { e1done <- e1.Run() }()
	e1.Intake() <- stream.Batch{Events: []stream.Event{
		{Kind: stream.EvOpen, ID: 1, Time: time.Second},
		{Kind: stream.EvOpen, ID: 2, Time: 2 * time.Second},
		{Kind: stream.EvClose, ID: 1, Time: 3 * time.Second, Sess: &stream.SessionRecord{
			Conn: trace.Conn{Start: time.Second, End: 3 * time.Second},
		}},
	}}
	// Let the batch reach the collector before the crash.
	deadline := time.Now().Add(5 * time.Second)
	for col.Health().Inputs[1].AppliedSeq < 3 {
		if time.Now().After(deadline) {
			t.Fatal("collector never applied input 1's events")
		}
		time.Sleep(5 * time.Millisecond)
	}
	e1.Stop()
	<-e1done

	// Input 2 stays alive (sending its stream except the trailer) until
	// input 1 has been declared dead, so the eviction demonstrably
	// happens while the merge is still running.
	s2 := genStream(2, 20)
	e2 := ingest.NewEmitter(ingest.EmitterConfig{
		Addr: col.Addr(), Input: 2,
		KeepAlive: 50 * time.Millisecond, // stay visibly alive while idle
	})
	e2done := make(chan error, 1)
	go func() { e2done <- e2.Run() }()
	feedBatches(e2.Intake(), 2, s2[:len(s2)-1])

	deadline = time.Now().Add(10 * time.Second)
	for col.Health().Inputs[1].State != ingest.StateDead {
		if time.Now().After(deadline) {
			t.Fatalf("input 1 never evicted; health = %+v", col.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A replacement emitter for the evicted input is refused for good.
	late := ingest.NewEmitter(ingest.EmitterConfig{Addr: col.Addr(), Input: 1})
	lateDone := make(chan error, 1)
	go func() { lateDone <- late.Run() }()
	late.Intake() <- stream.Batch{Events: []stream.Event{{Kind: stream.EvOpen, ID: 9, Time: 4 * time.Second}}}
	if err := <-lateDone; !errors.Is(err, ingest.ErrEvicted) {
		t.Fatalf("late emitter returned %v, want ErrEvicted", err)
	}

	// Release input 2's trailer; the run must now complete.
	e2.Intake() <- stream.Batch{Events: s2[len(s2)-1:]}
	close(e2.Intake())
	if err := <-e2done; err != nil {
		t.Fatalf("input 2: %v", err)
	}

	got := <-trCh
	if col.DeadInputs() != 1 {
		t.Fatalf("DeadInputs = %d, want 1", col.DeadInputs())
	}
	if col.LostSessions() != 1 {
		t.Fatalf("LostSessions = %d, want 1 (session 2 was open at death)", col.LostSessions())
	}
	// 20 sessions from input 0, 20 from input 2, 1 closed before death.
	if len(got.Conns) != 41 {
		t.Fatalf("merged %d conns, want 41", len(got.Conns))
	}
	if got.Nodes != 3 {
		t.Fatalf("Nodes = %d, want 3 (the dead vantage still existed)", got.Nodes)
	}
}

// TestCollectorMetricsHandler scrapes the observability surface mid-run:
// /metrics serves Prometheus text with the ingest_* families, and the
// legacy Health JSON lives on at /metrics.json.
func TestCollectorMetricsHandler(t *testing.T) {
	col, err := ingest.NewCollector(ingest.CollectorConfig{Inputs: 1})
	if err != nil {
		t.Fatal(err)
	}
	trCh := runCollector(t, col)
	srv := httptest.NewServer(col.MetricsHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Fatalf("content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE ingest_inputs_waiting gauge",
		`ingest_applied_seq{input="0"} 0`,
		"ingest_inputs_waiting 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var h ingest.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if len(h.Inputs) != 1 || h.Inputs[0].State != ingest.StateWaiting {
		t.Fatalf("health = %+v, want one waiting input", h)
	}

	runEmitters(t, col.Addr(), [][]stream.Event{genStream(0, 5)}, nil)
	<-trCh
}
