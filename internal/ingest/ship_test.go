package ingest_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
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

// normLines parses a JSONL journal and returns its lines with t_ms (and
// src, when filtering by lane) stripped and keys re-marshaled in sorted
// order, preserving file order. src == "" with filter false returns
// every line; filter true keeps only lines in that lane. Every kept line
// must carry a nonnegative t_ms — shipped lines are rebased onto the
// collector's clock, so a negative instant means the offset math broke.
func normLines(t *testing.T, data []byte, src string, filter bool) []string {
	t.Helper()
	var out []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		if filter {
			if s, _ := m["src"].(string); s != src {
				continue
			}
		}
		if tm, ok := m["t_ms"].(float64); !ok || tm < 0 {
			t.Fatalf("journal line has missing or negative t_ms: %s", sc.Text())
		}
		delete(m, "t_ms")
		delete(m, "src")
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(b))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func laneLines(t *testing.T, data []byte, src string) []string {
	t.Helper()
	return normLines(t, data, src, true)
}

// runShippedFleet runs a collector whose fleet journal collects into a
// buffer, plus one journal-shipping emitter per stream. Each emitter
// process has its own registry and journal, teed into a local buffer
// (the ground truth for what its lane must contain) and its
// JournalShip. The per-process lifecycle mirrors cmd/vantage: a
// "simulate" span around the feed, intake closed, EventsDrained awaited,
// final metrics + latency snapshots, ship closed. Returns the merged
// trace, the fleet journal bytes, and each emitter's local journal copy.
func runShippedFleet(t *testing.T, streams [][]stream.Event, colMod func(*ingest.CollectorConfig), emMod func(int, *ingest.EmitterConfig)) (*trace.Trace, []byte, [][]byte) {
	t.Helper()
	fleet := &bytes.Buffer{}
	fj := obs.NewJournal(fleet)
	fj.SetSource("collector")
	ccfg := ingest.CollectorConfig{
		Inputs: len(streams),
		Obs:    &obs.Observer{Metrics: obs.NewRegistry(), Journal: fj},
	}
	if colMod != nil {
		colMod(&ccfg)
	}
	col, err := ingest.NewCollector(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	trCh := runCollector(t, col)

	locals := make([]*bytes.Buffer, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, evs := range streams {
		local := &bytes.Buffer{}
		locals[i] = local
		ship := ingest.NewJournalShip()
		j := obs.NewJournal(io.MultiWriter(local, ship))
		o := &obs.Observer{Metrics: obs.NewRegistry(), Journal: j}
		cfg := ingest.EmitterConfig{
			Addr:   col.Addr(),
			Input:  i,
			Obs:    o,
			Ship:   ship,
			Source: fmt.Sprintf("vantage%d", i),
		}
		if emMod != nil {
			emMod(i, &cfg)
		}
		em := ingest.NewEmitter(cfg)
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			errs[i] = em.Run()
		}(i)
		go func(i int, evs []stream.Event) {
			defer wg.Done()
			sp := j.Begin("simulate", obs.A("node", i))
			feedBatches(em.Intake(), i, evs)
			sp.End(obs.A("events", len(evs)))
			close(em.Intake())
			<-em.EventsDrained()
			o.SnapshotMetrics()
			o.SnapshotLatency()
			ship.Close()
		}(i, evs)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("emitter %d: %v", i, err)
		}
	}
	tr := <-trCh
	if err := fj.Err(); err != nil {
		t.Fatalf("fleet journal: %v", err)
	}
	lb := make([][]byte, len(locals))
	for i, b := range locals {
		lb[i] = b.Bytes()
	}
	return tr, fleet.Bytes(), lb
}

// TestJournalShipCleanFleet is the tentpole contract on a clean network:
// three shipping emitters plus the collector produce one fleet journal
// where every process's lane is byte-equivalent (modulo the clock
// rebase) to that process's own journal, the collector's lanes record
// the run, the merged trace is still byte-identical to the in-process
// merge, and two runs of the same spec are obs.Canonical-identical.
func TestJournalShipCleanFleet(t *testing.T) {
	streams := [][]stream.Event{genStream(0, 60), genStream(1, 60), genStream(2, 60)}
	want := hashOf(t, directMerge(streams))

	run := func() []byte {
		tr, fleet, locals := runShippedFleet(t, streams, nil, nil)
		if hashOf(t, tr) != want {
			t.Fatal("shipped-fleet trace differs from in-process merge")
		}
		// Every emitter's lane in the fleet journal is exactly its own
		// journal: same lines, same order, nothing dropped or duplicated.
		for i, local := range locals {
			src := fmt.Sprintf("vantage%d", i)
			got := laneLines(t, fleet, src)
			wantLane := normLines(t, local, "", false)
			if !reflect.DeepEqual(got, wantLane) {
				t.Fatalf("lane %s diverges from emitter's own journal:\n got %v\nwant %v", src, got, wantLane)
			}
			// The lane carries the full vantage lifecycle: simulate span,
			// final metrics snapshot, latency rollup.
			joined := fmt.Sprint(got)
			for _, frag := range []string{`"span_start"`, `"simulate"`, `"span_end"`, `"metrics"`, `"latency"`, "emitter_acked_seq"} {
				if !bytes.Contains([]byte(joined), []byte(frag)) {
					t.Fatalf("lane %s missing %s:\n%v", src, frag, got)
				}
			}
			// Per-input liveness lands in the collector/<source> lane.
			live := fmt.Sprint(laneLines(t, fleet, "collector/"+src))
			if !bytes.Contains([]byte(live), []byte(`"input_done"`)) {
				t.Fatalf("lane collector/%s missing input_done: %v", src, live)
			}
		}
		own := fmt.Sprint(laneLines(t, fleet, "collector"))
		if !bytes.Contains([]byte(own), []byte(`"collect"`)) {
			t.Fatalf("collector lane missing collect span: %v", own)
		}
		return fleet
	}

	a, err := obs.Canonical(bytes.NewReader(run()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := obs.Canonical(bytes.NewReader(run()))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 {
		t.Fatal("canonical fleet journal is empty")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two same-spec fleet journals differ canonically:\nrun1 %d lines\nrun2 %d lines", len(a), len(b))
	}
}

// TestJournalShipUnderFaults reruns lane integrity under the seeded
// fault schedule: dropped, duplicated and reordered frames on both
// directions. Journal frames ride the same retransmit/dedupe machinery
// as event data, so every lane must still equal its emitter's own
// journal exactly — and the trace identity must survive with shipping
// enabled.
func TestJournalShipUnderFaults(t *testing.T) {
	streams := [][]stream.Event{genStream(0, 50), genStream(1, 50), genStream(2, 50)}
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
	dial := inj.Dial(func(addr string, timeout time.Duration) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, timeout)
	})
	tr, fleet, locals := runShippedFleet(t, streams,
		func(cfg *ingest.CollectorConfig) {
			cfg.Listener = inj.Listener(inner)
			cfg.EvictAfter = 30 * time.Second
			cfg.ReadTimeout = 2 * time.Second
		},
		func(i int, cfg *ingest.EmitterConfig) {
			cfg.Dial = dial
			cfg.Retry = transport.Retry{Max: 500, Base: time.Millisecond, Cap: 10 * time.Millisecond, Seed: uint64(i + 1)}
			cfg.AckTimeout = 400 * time.Millisecond
			cfg.WelcomeTimeout = 300 * time.Millisecond
		})
	if hashOf(t, tr) != want {
		t.Fatal("trace under faults differs from in-process merge")
	}
	for i, local := range locals {
		src := fmt.Sprintf("vantage%d", i)
		got := laneLines(t, fleet, src)
		wantLane := normLines(t, local, "", false)
		if !reflect.DeepEqual(got, wantLane) {
			t.Fatalf("lane %s under faults diverges from emitter's own journal:\n got %v\nwant %v", src, got, wantLane)
		}
	}
}

// TestIngestHandOffStress repeats the end of a clean run back to back:
// each hand-off is a fresh collector and three emitters over loopback,
// input 0 shipping its journal. Every emitter must return nil (none left
// redialing a collector that closed under it), every trace must equal
// the in-process merge, and input 0's lane must hold its whole journal,
// including the snapshots written after its events drained.
func TestIngestHandOffStress(t *testing.T) {
	streams := [][]stream.Event{genStream(0, 8), genStream(1, 8), genStream(2, 8)}
	want := hashOf(t, directMerge(streams))
	for n := 0; n < 200; n++ {
		tr, fleet, locals := runShippedFleet(t, streams, nil, func(i int, cfg *ingest.EmitterConfig) {
			if i != 0 {
				cfg.Ship = nil
			}
		})
		if hashOf(t, tr) != want {
			t.Fatalf("hand-off %d: trace differs from in-process merge", n)
		}
		if got, wantLane := laneLines(t, fleet, "vantage0"), normLines(t, locals[0], "", false); !reflect.DeepEqual(got, wantLane) {
			t.Fatalf("hand-off %d: lane vantage0 has %d lines, want %d", n, len(got), len(wantLane))
		}
	}
}

// TestJournalShipRestartResumesLane kills a shipping emitter after its
// first journal lines are applied and brings up a replacement process
// with a fresh journal. The welcome's JournalResume makes the new
// process number its lines after the dead one's acked watermark, so the
// lane continues — first life's lines, then second life's, no
// duplicates, no overwrite.
func TestJournalShipRestartResumesLane(t *testing.T) {
	streams := [][]stream.Event{genStream(0, 60)}
	want := hashOf(t, directMerge(streams))

	fleet := &bytes.Buffer{}
	fj := obs.NewJournal(fleet)
	fj.SetSource("collector")
	col, err := ingest.NewCollector(ingest.CollectorConfig{
		Inputs:     1,
		EvictAfter: 30 * time.Second,
		Obs:        &obs.Observer{Journal: fj},
	})
	if err != nil {
		t.Fatal(err)
	}
	trCh := runCollector(t, col)

	// First life: three journal events and half the stream, then death
	// with no flush.
	ship1 := ingest.NewJournalShip()
	j1 := obs.NewJournal(ship1)
	e1 := ingest.NewEmitter(ingest.EmitterConfig{
		Addr: col.Addr(), Input: 0, Ship: ship1, Source: "vantage0", Obs: &obs.Observer{Journal: j1},
	})
	e1done := make(chan error, 1)
	go func() { e1done <- e1.Run() }()
	for i := 0; i < 3; i++ {
		j1.Event("life1", obs.A("n", i))
	}
	feedBatches(e1.Intake(), 0, streams[0][:30])
	deadline := time.Now().Add(5 * time.Second)
	for {
		h := col.Health()
		if h.Inputs[0].JournalSeq >= 3 && h.Inputs[0].AppliedSeq > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("collector never applied first life's journal; health = %+v", col.Health())
		}
		time.Sleep(5 * time.Millisecond)
	}
	e1.Stop()
	if err := <-e1done; err != nil {
		t.Fatalf("first life: %v", err)
	}

	// Second life: fresh journal, regenerated stream. Its two events
	// must land after the first life's three in the same lane.
	ship2 := ingest.NewJournalShip()
	j2 := obs.NewJournal(ship2)
	e2 := ingest.NewEmitter(ingest.EmitterConfig{
		Addr: col.Addr(), Input: 0, Ship: ship2, Source: "vantage0", Obs: &obs.Observer{Journal: j2},
	})
	e2done := make(chan error, 1)
	go func() { e2done <- e2.Run() }()
	j2.Event("life2", obs.A("n", 0))
	j2.Event("life2", obs.A("n", 1))
	feedBatches(e2.Intake(), 0, streams[0])
	close(e2.Intake())
	<-e2.EventsDrained()
	ship2.Close()
	if err := <-e2done; err != nil {
		t.Fatalf("second life: %v", err)
	}

	tr := <-trCh
	if hashOf(t, tr) != want {
		t.Fatal("trace after restart differs from in-process merge")
	}
	lane := laneLines(t, fleet.Bytes(), "vantage0")
	var names []string
	for _, l := range lane {
		var m map[string]any
		if err := json.Unmarshal([]byte(l), &m); err != nil {
			t.Fatal(err)
		}
		names = append(names, m["name"].(string))
	}
	wantNames := []string{"life1", "life1", "life1", "life2", "life2"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Fatalf("lane after restart = %v, want %v", names, wantNames)
	}
}

// TestJournalShipWriteSemantics pins the io.Writer bridge: partial
// lines buffer until their newline, complete lines queue and signal
// Ready, Take drains, Close is terminal and drops later writes.
func TestJournalShipWriteSemantics(t *testing.T) {
	s := ingest.NewJournalShip()
	if _, err := s.Write([]byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.Ready():
		t.Fatal("Ready fired with only a partial line queued")
	default:
	}
	if _, err := s.Write([]byte("\n{\"b\":2}\n{\"c\"")); err != nil {
		t.Fatal(err)
	}
	<-s.Ready()
	lines, closed := s.Take()
	if closed {
		t.Fatal("closed before Close")
	}
	if len(lines) != 2 || string(lines[0]) != `{"a":1}` || string(lines[1]) != `{"b":2}` {
		t.Fatalf("Take = %q", lines)
	}
	if _, err := s.Write([]byte(":3}\n\n")); err != nil { // blank line is skipped
		t.Fatal(err)
	}
	<-s.Ready()
	lines, _ = s.Take()
	if len(lines) != 1 || string(lines[0]) != `{"c":3}` {
		t.Fatalf("Take after completion = %q", lines)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("{\"late\":1}\n")); err != nil {
		t.Fatal(err)
	}
	<-s.Ready()
	lines, closed = s.Take()
	if len(lines) != 0 || !closed {
		t.Fatalf("after Close: lines=%q closed=%v, want none and closed", lines, closed)
	}
}
