// Command repro is the one-shot paper reproduction: it simulates the
// measurement deployment at a configurable scale, runs the filter and
// analysis pipeline, and prints every table and figure of the paper with
// the published values alongside for comparison.
//
// Usage:
//
//	repro [-seed N] [-scale F] [-days N] [-nodes N] [-ksboot B] [-trace FILE] [-maxconns N]
//	repro -spec FILE | -preset NAME [overriding flags]
//
// At -scale 1.0 the simulation generates the paper's full 4.36 M
// connections; the default 0.05 finishes in tens of seconds and is more
// than enough for every distributional comparison. With -nodes > 1 the
// arrivals shard across a fleet of vantage ultrapeers and the merged
// trace is characterized — at -scale 1.0 with enough nodes that the
// per-node caps don't bind, the whole 4.36 M-connection stream is
// recorded (see internal/engine). -spec/-preset describe the
// run declaratively (internal/scenario); explicitly set flags override
// the spec.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	p2pquery "repro"
	"repro/internal/cliflags"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	sim := cliflags.Bind(flag.CommandLine, cliflags.Defaults{Seed: 2004, Scale: 0.05, Days: 40, Nodes: 1, MemLimit: -1})
	ksboot := flag.Int("ksboot", 0, "parametric-bootstrap replicates for the appendix-fit KS p-values (0 = asymptotic)")
	tracePath := flag.String("trace", "", "optional path to save the raw trace")
	maxConns := flag.Int("maxconns", 200, "simultaneous connection cap per node (the paper's node held 200)")
	flag.Parse()

	sc, err := sim.Resolve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "resolving run configuration: %v\n", err)
		os.Exit(2)
	}
	sc.Sim.MaxConns = *maxConns
	cliflags.ApplyMemLimit(sc.MemLimit, sc.Stream)

	wl := sc.Sim.Workload
	fmt.Printf("simulating %d days at scale %.3g across %d node(s) (seed %d)...\n", wl.Days, wl.Scale, sc.Nodes, wl.Seed)
	start := time.Now()
	res, err := p2pquery.Run(p2pquery.RunConfig{Sim: sc.Sim, Nodes: sc.Nodes})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulating: %v\n", err)
		os.Exit(1)
	}
	tr := res.Trace
	fmt.Printf("simulated %d connections, %d hop-1 queries, %d total messages in %v (rejected %d at the per-node %d-conn cap)\n\n",
		len(tr.Conns), len(tr.Queries), tr.Counts.Total(), time.Since(start).Round(time.Millisecond),
		res.Stats.Rejected, sc.Sim.MaxConns)

	if *tracePath != "" {
		if err := tr.WriteFile(*tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "saving trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace saved to %s\n\n", *tracePath)
	}

	start = time.Now()
	c := core.CharacterizeOpts(tr, core.Options{KSBootstrap: *ksboot})
	fmt.Printf("characterized %d retained sessions in %v\n\n",
		len(c.Sessions), time.Since(start).Round(time.Millisecond))

	if err := report.RenderAll(os.Stdout, c); err != nil {
		fmt.Fprintf(os.Stderr, "rendering report: %v\n", err)
		os.Exit(1)
	}
}
