// Command tracegen runs the measurement simulation and writes the raw
// trace to a file for later analysis (cmd/analyze) or external tooling
// (-jsonl exports the connection and query records as JSON lines).
//
// The run is described either by the shared simulation flags or by a
// declarative spec: -spec FILE / -preset NAME compile through
// internal/scenario, with explicitly set flags overriding the spec
// (precedence spec < preset < flag). Every run is the engine's
// bounded-memory stream drained into the trace; -stream only lets
// -memlimit's auto setting apply.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	p2pquery "repro"
	"repro/internal/cliflags"
)

func main() {
	sim := cliflags.Bind(flag.CommandLine, cliflags.Defaults{Seed: 2004, Scale: 0.05, Days: 40, Nodes: 1, MemLimit: -1})
	out := flag.String("o", "gnutella.trace", "output trace file")
	jsonl := flag.String("jsonl", "", "optional JSONL export path")
	flag.Parse()

	sc, err := sim.Resolve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "resolving run configuration: %v\n", err)
		os.Exit(2)
	}
	cliflags.ApplyMemLimit(sc.MemLimit, sc.Stream)

	start := time.Now()
	res, err := p2pquery.Run(p2pquery.RunConfig{Sim: sc.Sim, Nodes: sc.Nodes})
	if err != nil {
		fmt.Fprintf(os.Stderr, "simulating: %v\n", err)
		os.Exit(1)
	}
	tr := res.Trace
	fmt.Printf("simulated %d connections / %d messages across %d node(s) in %v (%d arrivals, %d rejected)\n",
		len(tr.Conns), tr.Counts.Total(), sc.Nodes,
		time.Since(start).Round(time.Millisecond), res.Stats.Arrivals, res.Stats.Rejected)

	if err := tr.WriteFile(*out); err != nil {
		fmt.Fprintf(os.Stderr, "writing %s: %v\n", *out, err)
		os.Exit(1)
	}
	fmt.Printf("trace written to %s\n", *out)

	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			fmt.Fprintf(os.Stderr, "creating %s: %v\n", *jsonl, err)
			os.Exit(1)
		}
		if err := tr.ExportJSONL(f); err != nil {
			fmt.Fprintf(os.Stderr, "exporting: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "closing: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("JSONL export written to %s\n", *jsonl)
	}
}
