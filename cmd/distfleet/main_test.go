package main

import (
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
