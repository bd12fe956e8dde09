package scenario

import (
	"strings"
	"testing"
	"time"
)

const fullSpec = `# a full-feature spec exercising every schema corner
version: 1
name: kitchen-sink
description: "every field, once"
sim:
  seed: 7
  scale: 0.25
  days: 10
  nodes: 8
  online: true
classes:
  - name: polluter
    share: 0.15
    query_scale: 3.0
    inject:
      - "free mp3 download"   # trailing comment
      - 'it''s planted'
  - name: lurker
    share: 0.1
    duration_scale: 2.5
events:
  - churn:
      at: 1d12h
      fraction: 0.6
      outage: 2h
      recovery: 6h
      surge: 1.8
checks:
  - metric: polluter_share
    min: 0.1
    max: 0.6
  - metric: churn_recovery
    min: 0.5
`

func TestParseFullSpec(t *testing.T) {
	sp, err := Parse([]byte(fullSpec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if sp.Name != "kitchen-sink" || sp.Description != "every field, once" {
		t.Errorf("name/description: %q %q", sp.Name, sp.Description)
	}
	if sp.Sim.Seed == nil || *sp.Sim.Seed != 7 {
		t.Errorf("sim.seed: %v", sp.Sim.Seed)
	}
	if sp.Sim.Scale == nil || *sp.Sim.Scale != 0.25 {
		t.Errorf("sim.scale: %v", sp.Sim.Scale)
	}
	if sp.Sim.Days == nil || *sp.Sim.Days != 10 || sp.Sim.Nodes == nil || *sp.Sim.Nodes != 8 {
		t.Errorf("sim.days/nodes: %v %v", sp.Sim.Days, sp.Sim.Nodes)
	}
	if sp.Sim.Online == nil || !*sp.Sim.Online {
		t.Errorf("sim.online: %v", sp.Sim.Online)
	}
	if len(sp.Classes) != 2 {
		t.Fatalf("classes: %d", len(sp.Classes))
	}
	p := sp.Classes[0]
	if p.Name != "polluter" || p.Share != 0.15 || p.QueryScale != 3 {
		t.Errorf("polluter class: %+v", p)
	}
	if len(p.Inject) != 2 || p.Inject[0] != "free mp3 download" || p.Inject[1] != "it's planted" {
		t.Errorf("inject (quoting): %q", p.Inject)
	}
	if sp.Classes[1].DurationScale != 2.5 {
		t.Errorf("lurker duration_scale: %v", sp.Classes[1].DurationScale)
	}
	if len(sp.Events) != 1 || sp.Events[0].Churn == nil {
		t.Fatalf("events: %+v", sp.Events)
	}
	ch := sp.Events[0].Churn
	if ch.At != 36*time.Hour || ch.Fraction != 0.6 || ch.Outage != 2*time.Hour || ch.Recovery != 6*time.Hour || ch.Surge != 1.8 {
		t.Errorf("churn: %+v", ch)
	}
	if len(sp.Checks) != 2 || sp.Checks[0].Metric != "polluter_share" || sp.Checks[1].Min == nil || *sp.Checks[1].Min != 0.5 {
		t.Errorf("checks: %+v", sp.Checks)
	}
}

// TestParseErrorsNameTheField: every rejection must carry the offending
// field path (or at minimum the line), so a broken spec is fixable
// without reading this package's source.
func TestParseErrorsNameTheField(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring the error must contain
	}{
		{"unknown top-level field", "version: 1\nbogus: 1\n", "bogus"},
		{"unknown sim field", "version: 1\nsim:\n  warp: 9\n", "sim.warp"},
		{"missing version", "name: x\n", "version"},
		{"future version", "version: 99\n", "version"},
		{"bad number", "version: 1\nsim:\n  scale: fast\n", "sim.scale"},
		{"bad bool", "version: 1\nsim:\n  online: yes\n", "sim.online"},
		{"retired sim.stream", "version: 1\nsim:\n  stream: true\n", "sim.stream: unknown field"},
		{"retired sim.memlimit", "version: 1\nsim:\n  memlimit: 1073741824\n", "sim.memlimit: unknown field"},
		{"bad duration", "version: 1\nevents:\n  - churn:\n      at: soon\n      fraction: 0.5\n", "events[0].churn.at"},
		{"fraction out of range", "version: 1\nevents:\n  - churn:\n      at: 1h\n      fraction: 1.5\n", "events[0].churn.fraction"},
		{"churn missing at", "version: 1\nevents:\n  - churn:\n      fraction: 0.5\n", "events[0].churn.at"},
		{"class missing name", "version: 1\nclasses:\n  - share: 0.5\n", "classes[0].name"},
		{"class missing share", "version: 1\nclasses:\n  - name: x\n", "classes[0].share"},
		{"shares above one", "version: 1\nclasses:\n  - name: a\n    share: 0.7\n  - name: b\n    share: 0.7\n", "classes"},
		{"unknown metric", "version: 1\nchecks:\n  - metric: vibes\n    min: 0\n", "checks[0].metric"},
		{"check without bounds", "version: 1\nchecks:\n  - metric: conns\n", "checks[0]"},
		{"unknown preset", "version: 1\npreset: warpdrive\n", "preset"},
		{"tab indentation", "version: 1\nsim:\n\tseed: 1\n", "tab"},
		{"duplicate key", "version: 1\nname: a\nname: b\n", "duplicate"},
		{"flow syntax", "version: 1\nclasses: [a, b]\n", "classes"},
		{"scalar root", "just a string\n", "key"},
		{"list where mapping expected", "version: 1\nsim:\n  - seed: 1\n", "sim"},
		{"empty document", "# only comments\n", "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.in))
			if err == nil {
				t.Fatalf("Parse accepted malformed input:\n%s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

func TestParseDuration(t *testing.T) {
	cases := map[string]time.Duration{
		"90s":    90 * time.Second,
		"36h":    36 * time.Hour,
		"10d":    240 * time.Hour,
		"10d12h": 252 * time.Hour,
		"1d30m":  24*time.Hour + 30*time.Minute,
	}
	for in, want := range cases {
		got, err := parseDuration(in)
		if err != nil || got != want {
			t.Errorf("parseDuration(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, bad := range []string{"d", "-1d", "1dd", "soon", ""} {
		if _, err := parseDuration(bad); err == nil {
			t.Errorf("parseDuration(%q) accepted", bad)
		}
	}
}
