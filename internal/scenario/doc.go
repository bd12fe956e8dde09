// Package scenario is the declarative experiment layer: a YAML spec
// (strict decode, versioned schema) describes a full measurement run —
// base simulation shape, per-client-class workload overrides, a timeline
// of churn transients, and headline-metric assertions — and compiles into
// the configs the existing stack already takes (capture.Config with a
// workload.Scenario attached), so the engine itself never learns about
// specs. Every binary accepts -spec/-preset; p2pquery.LoadScenario /
// RunScenario expose the same path as a library.
//
// A spec with no classes and no events compiles with a nil
// workload.Scenario, which the generator treats as contractually
// invisible: the paper40d preset's trace is byte-identical (SHA-256
// equal) to the historical flag-driven run.
//
// # Schema reference (version 1)
//
// The format is a strict subset of YAML: block mappings with identifier
// keys, block sequences, scalars (bare, "double-quoted" with Go escapes,
// or 'single-quoted'), and # comments. Flow syntax, anchors, tabs and
// multi-document streams are rejected with errors naming the line;
// unknown fields, type mismatches and out-of-range values are errors
// naming the field path.
//
//	version: 1              # required; must equal scenario.SchemaVersion
//	name: my-experiment     # label for reports and errors
//	description: free text
//	preset: laptop          # optional: extend a built-in preset
//	                        # (preset is the base, this file overlays it)
//
//	sim:                    # all optional; precedence spec < preset <
//	  seed: 2004            #   explicit CLI flag (internal/cliflags)
//	  scale: 0.05           # fraction of the paper's arrival volume
//	  days: 40              # measurement period
//	  nodes: 4              # vantage fleet size
//	  online: true          # attach the online sketch layer and print
//	                        #   its block before the report
//
// Compile rejects scale ≤ 0, days < 1 and nodes < 1 whichever layer set
// them, so a command-line flag meets the same check as a spec field.
//
//	classes:                # scenario client classes (workload overlay)
//	  - name: polluter      # required; carried on Session.Class
//	    share: 0.15         # required; fraction of arrivals, sum ≤ 1
//	    duration_scale: 2.0 # optional; multiplies session duration
//	    query_scale: 3.0    # optional; scales query count (>1 adds
//	                        #   uniformly placed extras, <1 thins)
//	    inject:             # optional; the class's own query vocabulary
//	      - "free mp3 download"   # (content injection — makes the class
//	      - "movie screener"      #   automated: exempt from the user
//	                              #   quick-disconnect draw)
//
//	events:                 # scenario timeline
//	  - churn:              # mass-disconnect/recovery transient
//	      at: 1d12h         # required; durations take 90s/36h/10d/10d12h
//	      fraction: 0.6     # required; share disconnected + suppression
//	      outage: 2h        # arrival suppression window after "at"
//	      recovery: 6h      # linear-decay reconnection surge window
//	      surge: 1.8        # optional peak multiplier (default
//	                        #   1 + fraction)
//
//	checks:                 # headline-metric assertions (CI gates)
//	  - metric: under64s_share
//	    min: 0.2            # at least one of min/max
//	    max: 0.6
//
// Metrics: conns, hop1_queries, under64s_share, under64s_drift,
// polluter_share, churn_outage_drop, churn_recovery — see metrics.go for
// exact definitions.
//
// # Presets
//
// Three built-ins, themselves written as spec documents (Preset):
//
//   - paper40d — the paper's 40-day full-scale measurement on a
//     48-vantage fleet with the online sketch layer; compiles to exactly
//     today's default config (pinned by trace-hash equality).
//   - laptop — 4 days at scale 0.05 on 4 nodes; seconds, not minutes.
//   - tenweek — 70 days at scale 0.02 with the online sketch layer: 2.5×
//     the paper's period, the long-run memory/drift stress.
//
// # Cookbook
//
// Run a committed spec, then gate on its checks (exit 1 on failure):
//
//	analyze -spec scenarios/churn-recovery.yaml -only summary -checks
//
// Run a preset, overriding its scale for a smoke pass (explicit flags
// always win over spec and preset):
//
//	analyze -preset paper40d -scale 0.02 -days 2 -nodes 4 -only summary
//
// Describe a polluter experiment and generate its labelled workload:
//
//	workloadgen -spec scenarios/polluter.yaml | jq -r .class | sort | uniq -c
//
// As a library:
//
//	c, _ := p2pquery.LoadScenario("scenarios/tenweek.yaml")
//	res, _ := p2pquery.RunScenario(c)
//	results, ok := p2pquery.EvaluateScenario(res.Trace, c)
//
// The scenario suite (make scenario-suite) runs every committed spec at
// smoke scale and fails on any unmet check; CI runs it alongside
// distfleet-smoke.
package scenario
