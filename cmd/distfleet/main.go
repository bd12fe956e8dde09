// Command distfleet is the fault-injection smoke harness for the
// distributed ingest pipeline (make distfleet-smoke). It runs an ingest
// collector in-process, launches one cmd/vantage subprocess per fleet
// node, and asserts that the drained merged trace is SHA-256-identical
// to a single-process engine.Run with the same parameters — under
// three escalating scenarios:
//
//	clean          N emitters over loopback TCP, no interference. Runs
//	               twice: the two merged fleet journals must be
//	               obs.Canonical-identical.
//	faults+restart every emitter sabotages its own connections with
//	               faultnet (drops, dup, reorder, delay), and one
//	               vantage is SIGKILLed mid-run and restarted; the
//	               restart must resume from the collector's acks and
//	               still converge to the identical trace.
//	dead-input     one vantage is SIGKILLed and never restarted; the
//	               collector must evict it (no deadlock), finish, and
//	               account the losses exactly (DeadInputs/LostSessions).
//
// Every vantage ships its journal in-band (-ship-journal -heartbeat), so
// each scenario also produces a merged fleet journal: the collector's
// own spans and per-input liveness events interleaved, on the
// collector's clock, with every vantage's spans, heartbeats and
// snapshots. The harness asserts the journal tells each scenario's
// story — all processes present in normalized time order for clean
// runs, and the dead vantage's last heartbeat preceding its
// input_stalled preceding its input_evicted. -fleet-journal saves the
// journals for `analyze -timeline`.
//
// Exits non-zero on any divergence, lost data, or deadlock.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"

	p2pquery "repro"
	"repro/internal/capture"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/trace"
)

type params struct {
	nodes   int
	scale   float64
	days    int
	seed    uint64
	bin     string
	timeout time.Duration
	fleet   string
}

func main() {
	log.SetFlags(0)
	nodes := flag.Int("nodes", 3, "fleet size / emitter process count")
	scale := flag.Float64("scale", 0.02, "workload scale")
	days := flag.Int("days", 2, "observation days")
	seed := flag.Uint64("seed", 2004, "workload seed")
	bin := flag.String("vantage", "bin/vantage", "path to the vantage binary")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-scenario deadline (a hang past this is a deadlock)")
	fleet := flag.String("fleet-journal", "", "save each scenario's merged fleet journal to this path (scenario name appended after the first)")
	flag.Parse()
	p := params{nodes: *nodes, scale: *scale, days: *days, seed: *seed, bin: *bin, timeout: *timeout, fleet: *fleet}

	if _, err := os.Stat(p.bin); err != nil {
		log.Fatalf("distfleet: vantage binary %q not found (run `make bin/vantage` first): %v", p.bin, err)
	}

	// Reference: the single-process run every scenario must match.
	cfg := capture.DefaultConfig(p.seed, p.scale)
	cfg.Workload.Days = p.days
	refRes, err := p2pquery.Run(p2pquery.RunConfig{Sim: cfg, Nodes: p.nodes})
	if err != nil {
		log.Fatalf("distfleet: reference run: %v", err)
	}
	ref := refRes.Trace
	refHash, err := ref.Hash()
	if err != nil {
		log.Fatalf("distfleet: reference hash: %v", err)
	}
	log.Printf("reference: nodes=%d conns=%d sha256=%x", p.nodes, len(ref.Conns), refHash[:8])

	cleanA := runScenario(p, scenario{name: "clean"}, refHash, len(ref.Conns))
	cleanB := runScenario(p, scenario{name: "clean-repeat"}, refHash, len(ref.Conns))
	ca, err := obs.Canonical(bytes.NewReader(cleanA))
	if err != nil {
		log.Fatalf("clean fleet journal: %v", err)
	}
	cb, err := obs.Canonical(bytes.NewReader(cleanB))
	if err != nil {
		log.Fatalf("clean-repeat fleet journal: %v", err)
	}
	if !slices.Equal(ca, cb) {
		log.Fatalf("two same-spec clean runs produced canonically different fleet journals (%d vs %d lines)", len(ca), len(cb))
	}
	log.Printf("clean fleet journals canonical-identical across runs (%d canonical lines)", len(ca))

	runScenario(p, scenario{name: "faults+restart", faults: true, kill: true, restart: true}, refHash, len(ref.Conns))
	// The fast heartbeat makes the victim ship several liveness lines
	// before the kill even on a short run, so the journal story
	// (heartbeat -> stalled -> evicted) has material to assert on. It
	// must be well under the victim's whole stream: at the smoke size
	// that is under 100 ms, so two heartbeats at 50 ms can arrive only
	// after its trailer.
	runScenario(p, scenario{name: "dead-input", kill: true, evictAfter: 2 * time.Second, heartbeat: 10 * time.Millisecond}, refHash, len(ref.Conns))

	fmt.Println("distfleet-smoke PASS")
}

type scenario struct {
	name       string
	faults     bool
	kill       bool
	restart    bool
	evictAfter time.Duration // 0 = generous default (eviction must not fire)
	heartbeat  time.Duration // 0 = 250ms default journal heartbeat
}

// runScenario brings up collector + subprocess emitters, applies the
// scenario's interference, and dies loudly on any broken invariant.
// Returns the scenario's merged fleet journal.
func runScenario(p params, sc scenario, refHash [32]byte, refConns int) []byte {
	log.Printf("--- scenario %s", sc.name)
	evictAfter := sc.evictAfter
	if evictAfter == 0 {
		evictAfter = 2 * p.timeout // must never fire in lossless scenarios
	}
	// Each scenario gets its own fleet journal: the collector's own lane
	// plus per-input liveness lanes, with every vantage's shipped lines
	// merged in on the collector's clock. The scenario assertions below
	// read it, and -fleet-journal saves it.
	var journal bytes.Buffer
	fj := obs.NewJournal(&journal)
	fj.SetSource("collector")
	ob := &obs.Observer{Metrics: obs.NewRegistry(), Journal: fj}
	col, err := ingest.NewCollector(ingest.CollectorConfig{
		Inputs:     p.nodes,
		Window:     trace.Time(engine.DefaultMergeWindow),
		StallAfter: evictAfter / 4,
		EvictAfter: evictAfter,
		Obs:        ob,
	})
	if err != nil {
		log.Fatalf("%s: collector: %v", sc.name, err)
	}
	type result struct {
		tr  *trace.Trace
		err error
	}
	colDone := make(chan result, 1)
	go func() {
		tr, err := col.Run()
		colDone <- result{tr, err}
	}()

	procs := make([]*exec.Cmd, p.nodes)
	for i := range procs {
		procs[i] = startVantage(p, sc, col.Addr(), i, 0)
	}

	victim := -1
	if sc.kill {
		victim = (p.nodes - 1) / 2 // an interior input, 0 when nodes==1
		// The kill must land after the victim has shipped journal lines
		// too — its span_start (and, for the eviction story, heartbeats)
		// must already be applied so the fleet journal can tell the story.
		minJournal := uint64(1)
		if !sc.restart {
			minJournal = 3 // span_start + at least two heartbeats
		}
		waitApplied(p, sc, col, victim, 200, minJournal)
		if err := procs[victim].Process.Kill(); err != nil {
			log.Fatalf("%s: kill vantage %d: %v", sc.name, victim, err)
		}
		_ = procs[victim].Wait()
		log.Printf("%s: SIGKILLed vantage %d at applied_seq=%d", sc.name, victim, appliedSeq(col, victim))
		if sc.restart {
			time.Sleep(200 * time.Millisecond)
			procs[victim] = startVantage(p, sc, col.Addr(), victim, 1)
			log.Printf("%s: restarted vantage %d (must resume from acks)", sc.name, victim)
		}
	}

	var res result
	select {
	case res = <-colDone:
	case <-time.After(p.timeout):
		h := col.Health()
		log.Fatalf("%s: DEADLOCK — collector did not finish within %v (health: %+v)", sc.name, p.timeout, h)
	}
	if res.err != nil {
		log.Fatalf("%s: collector: %v", sc.name, res.err)
	}
	for i, proc := range procs {
		err := proc.Wait()
		if i == victim && !sc.restart {
			continue // killed on purpose; its exit error is expected
		}
		if err != nil {
			log.Fatalf("%s: vantage %d exited: %v", sc.name, i, err)
		}
	}

	gotHash, err := res.tr.Hash()
	if err != nil {
		log.Fatalf("%s: trace hash: %v", sc.name, err)
	}
	dead, lost := col.DeadInputs(), col.LostSessions()
	log.Printf("%s: conns=%d sha256=%x dead_inputs=%d lost_sessions=%d",
		sc.name, len(res.tr.Conns), gotHash[:8], dead, lost)
	if err := fj.Err(); err != nil {
		log.Fatalf("%s: fleet journal: %v", sc.name, err)
	}
	saveFleetJournal(p, sc, journal.Bytes())

	if sc.kill && !sc.restart {
		// Lossy by construction: the victim's unsent tail is gone. The
		// contract is exact accounting and a complete merge of the rest.
		if dead != 1 {
			log.Fatalf("%s: dead_inputs=%d, want exactly 1", sc.name, dead)
		}
		if len(res.tr.Conns) > refConns {
			log.Fatalf("%s: %d conns exceeds lossless reference %d", sc.name, len(res.tr.Conns), refConns)
		}
		if res.tr.Nodes != p.nodes {
			log.Fatalf("%s: trace nodes=%d, want %d", sc.name, res.tr.Nodes, p.nodes)
		}
		assertStallThenEvict(sc.name, journal.Bytes(), victim)
		assertDeadInputStory(sc.name, journal.Bytes(), victim)
		return journal.Bytes()
	}
	if dead != 0 || lost != 0 {
		log.Fatalf("%s: lossless scenario reported losses: dead=%d lost=%d", sc.name, dead, lost)
	}
	if gotHash != refHash {
		log.Fatalf("%s: trace DIVERGED from single-process reference\n  got  %x\n  want %x",
			sc.name, gotHash, refHash)
	}
	assertFleetJournal(sc.name, journal.Bytes(), p.nodes, sc.restart, victim)
	return journal.Bytes()
}

// saveFleetJournal writes the scenario's merged journal when
// -fleet-journal is set: the first (clean) scenario gets the bare path,
// later scenarios get the name appended, so every artifact survives for
// `analyze -timeline`.
func saveFleetJournal(p params, sc scenario, journal []byte) {
	if p.fleet == "" {
		return
	}
	path := p.fleet
	if sc.name != "clean" {
		path += "." + strings.Map(func(r rune) rune {
			if r == '+' {
				return '-'
			}
			return r
		}, sc.name)
	}
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		log.Fatalf("%s: save fleet journal: %v", sc.name, err)
	}
	log.Printf("%s: fleet journal saved to %s", sc.name, path)
}

// startVantage launches one emitter subprocess. life distinguishes a
// restart (different fault seed, so the replayed connections see a
// different fault schedule — a stricter test than replaying the same one).
func startVantage(p params, sc scenario, addr string, input, life int) *exec.Cmd {
	args := []string{
		"-collector", addr,
		"-input", fmt.Sprint(input),
		"-seed", fmt.Sprint(p.seed),
		"-scale", fmt.Sprint(p.scale),
		"-days", fmt.Sprint(p.days),
		"-nodes", fmt.Sprint(p.nodes),
		"-keepalive", "250ms",
		"-ship-journal",
	}
	hb := sc.heartbeat
	if hb == 0 {
		hb = 250 * time.Millisecond
	}
	args = append(args, "-heartbeat", hb.String())
	if sc.faults {
		args = append(args,
			"-fault-seed", fmt.Sprint(p.seed+uint64(input)*31+uint64(life)*1009+1),
			"-fault-drop", "0.02",
			"-fault-dup", "0.05",
			"-fault-reorder", "0.05",
			"-fault-delay", "0.05",
			"-fault-delay-max", "5ms",
			"-ack-timeout", "500ms",
			"-welcome-timeout", "500ms",
			"-retry-max", "1000",
			"-retry-base", "1ms",
			"-retry-cap", "20ms",
		)
	}
	cmd := exec.Command(p.bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("%s: start vantage %d: %v", sc.name, input, err)
	}
	return cmd
}

// waitApplied polls collector health until the input has applied at
// least min events and minJournal shipped journal lines — the kill must
// land mid-stream, not before the emitter has proven the resume path has
// something to resume from (and its journal lane has something to show).
func waitApplied(p params, sc scenario, col *ingest.Collector, input int, min, minJournal uint64) {
	deadline := time.Now().Add(p.timeout)
	for {
		h := col.Health()
		st := h.Inputs[input]
		if st.AppliedSeq >= min && st.JournalSeq >= minJournal {
			if st.State == ingest.StateDone {
				log.Fatalf("%s: vantage %d finished before the kill landed — raise -scale or -days", sc.name, input)
			}
			return
		}
		if time.Now().After(deadline) {
			log.Fatalf("%s: vantage %d never reached applied_seq %d / journal_seq %d (at %d / %d)",
				sc.name, input, min, minJournal, st.AppliedSeq, st.JournalSeq)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func appliedSeq(col *ingest.Collector, input int) uint64 {
	return col.Health().Inputs[input].AppliedSeq
}

// jline is one parsed fleet-journal line, as the assertions read it.
type jline struct {
	Kind  string         `json:"kind"`
	TMs   float64        `json:"t_ms"`
	Src   string         `json:"src"`
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs"`
}

func parseFleet(name string, journal []byte) []jline {
	var out []jline
	dec := json.NewDecoder(bytes.NewReader(journal))
	for i := 0; dec.More(); i++ {
		var l jline
		if err := dec.Decode(&l); err != nil {
			log.Fatalf("%s: fleet journal line %d unparseable: %v", name, i, err)
		}
		out = append(out, l)
	}
	return out
}

// assertFleetJournal checks a lossless scenario's merged journal carries
// every process's timeline in collector-normalized time: the collector's
// collect span, a simulate span + final metrics snapshot in every
// vantage's lane (two simulate starts for a restarted victim — one per
// life), an input_done liveness event per input, and every line's
// rebased t_ms inside the collect span's interval.
func assertFleetJournal(name string, journal []byte, nodes int, restart bool, victim int) {
	lines := parseFleet(name, journal)
	var t0, t1 float64
	haveT0, haveT1 := false, false
	for _, l := range lines {
		if l.Src == "collector" && l.Name == "collect" {
			switch l.Kind {
			case "span_start":
				t0, haveT0 = l.TMs, true
			case "span_end":
				t1, haveT1 = l.TMs, true
			}
		}
	}
	if !haveT0 || !haveT1 {
		log.Fatalf("%s: fleet journal missing the collector's collect span", name)
	}
	const slackMs = 250
	for i := 0; i < nodes; i++ {
		lane := fmt.Sprintf("vantage%d", i)
		starts, ends, metrics, done := 0, 0, 0, 0
		for _, l := range lines {
			switch {
			case l.Src == lane && l.Kind == "span_start" && l.Name == "simulate":
				starts++
			case l.Src == lane && l.Kind == "span_end" && l.Name == "simulate":
				ends++
			case l.Src == lane && l.Kind == "metrics":
				metrics++
			case l.Src == "collector/"+lane && l.Kind == "event" && l.Name == "input_done":
				done++
			}
			if l.Src == lane && (l.TMs < t0-slackMs || l.TMs > t1+slackMs) {
				log.Fatalf("%s: %s line at t_ms=%.1f outside the collect span [%.1f, %.1f] — clock rebase broken",
					name, lane, l.TMs, t0, t1)
			}
		}
		wantStarts := 1
		if restart && i == victim {
			wantStarts = 2 // one per process life
		}
		if starts != wantStarts || ends < 1 || metrics < 1 || done < 1 {
			log.Fatalf("%s: lane %s incomplete: simulate starts=%d (want %d) ends=%d metrics=%d input_done=%d",
				name, lane, starts, wantStarts, ends, metrics, done)
		}
	}
	log.Printf("%s: fleet journal carries all %d lanes in collector time [%.0f ms, %.0f ms]", name, nodes+1, t0, t1)
}

// assertDeadInputStory checks the merged journal tells the eviction
// story end-to-end in collector-normalized time: the victim's own last
// shipped heartbeat precedes the collector's input_stalled, which
// precedes input_evicted.
func assertDeadInputStory(name string, journal []byte, victim int) {
	lane := fmt.Sprintf("vantage%d", victim)
	lastHB := -1.0
	tStalled, tEvicted := -1.0, -1.0
	for _, l := range parseFleet(name, journal) {
		switch {
		case l.Src == lane && l.Kind == "heartbeat":
			if l.TMs > lastHB {
				lastHB = l.TMs
			}
		case l.Src == "collector/"+lane && l.Kind == "event" && l.Name == "input_stalled":
			if tStalled < 0 {
				tStalled = l.TMs
			}
		case l.Src == "collector/"+lane && l.Kind == "event" && l.Name == "input_evicted":
			if tEvicted < 0 {
				tEvicted = l.TMs
			}
		}
	}
	if lastHB < 0 {
		log.Fatalf("%s: victim's lane %s shipped no heartbeat before the kill", name, lane)
	}
	if tStalled < 0 || tEvicted < 0 {
		log.Fatalf("%s: fleet journal missing stalled/evicted for %s (stalled=%.1f evicted=%.1f)", name, lane, tStalled, tEvicted)
	}
	if !(lastHB <= tStalled && tStalled <= tEvicted) {
		log.Fatalf("%s: eviction story out of order: last heartbeat %.1f, input_stalled %.1f, input_evicted %.1f",
			name, lastHB, tStalled, tEvicted)
	}
	log.Printf("%s: journal story in order: heartbeat %.0f ms -> stalled %.0f ms -> evicted %.0f ms", name, lastHB, tStalled, tEvicted)
}

// assertStallThenEvict checks the collector's journal told the dead
// input's story in order: input_stalled (StallAfter) strictly before
// input_evicted (EvictAfter), both for the killed vantage.
func assertStallThenEvict(name string, journal []byte, victim int) {
	stalled, evicted := -1, -1
	dec := json.NewDecoder(bytes.NewReader(journal))
	for i := 0; dec.More(); i++ {
		var rec struct {
			Kind  string         `json:"kind"`
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		}
		if err := dec.Decode(&rec); err != nil {
			log.Fatalf("%s: journal line %d unparseable: %v", name, i, err)
		}
		if rec.Kind != "event" {
			continue
		}
		in, ok := rec.Attrs["input"].(float64)
		if !ok || int(in) != victim {
			continue
		}
		switch rec.Name {
		case "input_stalled":
			if stalled < 0 {
				stalled = i
			}
		case "input_evicted":
			if evicted < 0 {
				evicted = i
			}
		}
	}
	if stalled < 0 || evicted < 0 {
		log.Fatalf("%s: journal missing the victim's liveness transitions (stalled line %d, evicted line %d):\n%s",
			name, stalled, evicted, journal)
	}
	if stalled >= evicted {
		log.Fatalf("%s: journal order broken: input_stalled (line %d) must precede input_evicted (line %d)",
			name, stalled, evicted)
	}
	log.Printf("%s: journal records input_stalled -> input_evicted for vantage %d", name, victim)
}
