package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"
)

// flagValue returns the value following name in a command line.
func flagValue(args []string, name string) (string, bool) {
	i := slices.Index(args, name)
	if i < 0 || i+1 >= len(args) {
		return "", false
	}
	return args[i+1], true
}

// TestVantageArgsFaultFlags pins who gets which fault flags. In the
// dead-input scenario only the victim slows its writes, losslessly (delay
// at probability 1, nothing dropped, duplicated or reordered); a clean
// run injects nothing; and under faults+restart every input is faulted
// and a restarted life draws a different fault schedule than its first.
func TestVantageArgsFaultFlags(t *testing.T) {
	p := params{nodes: 3, scale: 0.02, days: 2, seed: 2004}
	victim := victimOf(p)
	dead := scenario{name: "dead-input", kill: true, evictAfter: 2 * time.Second, heartbeat: 10 * time.Millisecond}
	for input := range p.nodes {
		args := vantageArgs(p, dead, "127.0.0.1:1", input, 0)
		delay, slowed := flagValue(args, "-fault-delay")
		if slowed != (input == victim) {
			t.Fatalf("dead-input input %d (victim %d): -fault-delay given %v", input, victim, slowed)
		}
		if hb, _ := flagValue(args, "-heartbeat"); hb != "10ms" {
			t.Fatalf("dead-input input %d: -heartbeat %q, want 10ms", input, hb)
		}
		if !slowed {
			continue
		}
		if max, _ := flagValue(args, "-fault-delay-max"); delay != "1" || max != victimWriteDelay.String() {
			t.Fatalf("victim: -fault-delay %q -fault-delay-max %q, want 1 and %s", delay, max, victimWriteDelay)
		}
		for _, lossy := range []string{"-fault-drop", "-fault-dup", "-fault-reorder"} {
			if _, ok := flagValue(args, lossy); ok {
				t.Fatalf("victim gets %s; its slowing must be lossless", lossy)
			}
		}
	}

	for input := range p.nodes {
		if args := vantageArgs(p, scenario{name: "clean"}, "127.0.0.1:1", input, 0); slices.ContainsFunc(args, func(a string) bool { return strings.HasPrefix(a, "-fault-") }) {
			t.Fatalf("clean input %d gets fault flags: %v", input, args)
		}
	}

	faults := scenario{name: "faults+restart", faults: true, kill: true, restart: true}
	seeds := make(map[string]bool)
	for input := range p.nodes {
		for life := range 2 {
			seed, ok := flagValue(vantageArgs(p, faults, "127.0.0.1:1", input, life), "-fault-seed")
			if !ok {
				t.Fatalf("faults+restart input %d life %d: no -fault-seed", input, life)
			}
			if seeds[seed] {
				t.Fatalf("faults+restart input %d life %d reuses fault seed %s", input, life, seed)
			}
			seeds[seed] = true
		}
	}
}

// journalOf joins canned journal lines.
func journalOf(lines ...string) []byte { return []byte(strings.Join(lines, "\n") + "\n") }

// TestAssertDeadInputStory feeds the eviction-story check canned fleet
// journals: the victim's last heartbeat, then the collector's
// input_stalled, then its input_evicted is the one story it accepts.
func TestAssertDeadInputStory(t *testing.T) {
	const (
		hb      = `{"kind":"heartbeat","t_ms":10,"src":"vantage1"}`
		hbLate  = `{"kind":"heartbeat","t_ms":30,"src":"vantage1"}`
		other   = `{"kind":"heartbeat","t_ms":90,"src":"vantage0"}`
		stalled = `{"kind":"event","t_ms":20,"src":"collector/vantage1","name":"input_stalled","attrs":{"input":1}}`
		evicted = `{"kind":"event","t_ms":40,"src":"collector/vantage1","name":"input_evicted","attrs":{"input":1}}`
		evictEq = `{"kind":"event","t_ms":20,"src":"collector/vantage1","name":"input_evicted","attrs":{"input":1}}`
	)
	for _, c := range []struct {
		name    string
		journal []byte
		ok      bool
	}{
		{"correct story", journalOf(hb, other, stalled, evicted), true},
		{"stalled and evicted at one instant", journalOf(hb, stalled, evictEq), true},
		{"heartbeat after the stall", journalOf(hb, stalled, hbLate, evicted), false},
		{"evicted before stalled", journalOf(hb, evictEq, stalled), false},
		{"no heartbeat", journalOf(other, stalled, evicted), false},
		{"never evicted", journalOf(hb, stalled), false},
		{"unparseable", journalOf(hb, "{"), false},
	} {
		if err := assertDeadInputStory(c.journal, 1); (err == nil) != c.ok {
			t.Errorf("%s: error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// TestAssertFleetJournal feeds the lossless-scenario check canned fleet
// journals: every vantage lane present inside the collect span passes,
// and a missing lane, a line outside the span or a restarted victim with
// one life fail.
func TestAssertFleetJournal(t *testing.T) {
	lane := func(i int, lives int) []string {
		src := fmt.Sprintf("vantage%d", i)
		var out []string
		for range lives {
			out = append(out, fmt.Sprintf(`{"kind":"span_start","t_ms":100,"src":%q,"name":"simulate"}`, src))
		}
		return append(out,
			fmt.Sprintf(`{"kind":"span_end","t_ms":200,"src":%q,"name":"simulate"}`, src),
			fmt.Sprintf(`{"kind":"metrics","t_ms":210,"src":%q}`, src),
			fmt.Sprintf(`{"kind":"event","t_ms":220,"src":"collector/%s","name":"input_done","attrs":{"input":%d}}`, src, i))
	}
	fleet := func(lanes ...[]string) []byte {
		lines := []string{`{"kind":"span_start","t_ms":50,"src":"collector","name":"collect"}`}
		for _, l := range lanes {
			lines = append(lines, l...)
		}
		return journalOf(append(lines, `{"kind":"span_end","t_ms":300,"src":"collector","name":"collect"}`)...)
	}
	late := append(lane(1, 1), `{"kind":"heartbeat","t_ms":900,"src":"vantage1"}`)
	for _, c := range []struct {
		name    string
		journal []byte
		restart bool
		ok      bool
	}{
		{"every lane", fleet(lane(0, 1), lane(1, 1)), false, true},
		{"restarted victim with two lives", fleet(lane(0, 1), lane(1, 2)), true, true},
		{"missing vantage lane", fleet(lane(0, 1)), false, false},
		{"restarted victim with one life", fleet(lane(0, 1), lane(1, 1)), true, false},
		{"line outside the collect span", fleet(lane(0, 1), late), false, false},
		{"no collect span", journalOf(lane(0, 1)...), false, false},
	} {
		if err := assertFleetJournal(c.journal, 2, c.restart, 1); (err == nil) != c.ok {
			t.Errorf("%s: error %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
