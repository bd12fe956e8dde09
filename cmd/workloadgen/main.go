// Command workloadgen emits a synthetic P2P query workload as JSON lines,
// one session per line — the paper's Figure 12 deliverable in pipeable
// form. Downstream simulators consume the stream to evaluate new P2P
// system designs against realistic, geographically and diurnally
// heterogeneous query behavior.
//
// With -spec FILE or -preset NAME the workload is described
// declaratively (internal/scenario): client classes partition the
// arrivals — each session line then carries a "class" column naming its
// class (absent for the base class) — and churn events shape the arrival
// rate. Explicitly set flags override the spec; the fleet-shape flags
// the shared block also binds (-nodes -online) are accepted but inert
// here, since no measurement node is simulated.
// Same spec + seed ⇒ byte-identical output (pinned by test).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliflags"
	"repro/internal/workload"
)

type jsonQuery struct {
	OffsetSec  float64 `json:"offset_sec"`
	Text       string  `json:"text"`
	PreConnect bool    `json:"pre_connect,omitempty"`
}

type jsonSession struct {
	StartSec    float64     `json:"start_sec"`
	Region      string      `json:"region"`
	Addr        string      `json:"addr"`
	Ultrapeer   bool        `json:"ultrapeer"`
	SharedFiles int         `json:"shared_files"`
	Passive     bool        `json:"passive"`
	DurationSec float64     `json:"duration_sec"`
	Class       string      `json:"class,omitempty"`
	Queries     []jsonQuery `json:"queries,omitempty"`
}

func main() {
	sim := cliflags.Bind(flag.CommandLine, cliflags.Defaults{Seed: 2004, Scale: 0.01, Days: 1, Nodes: 1})
	flag.Parse()

	sc, err := sim.Resolve()
	if err != nil {
		fmt.Fprintf(os.Stderr, "resolving run configuration: %v\n", err)
		os.Exit(2)
	}
	gen := workload.NewGenerator(sc.Sim.Workload)

	w := bufio.NewWriterSize(os.Stdout, 1<<20)
	enc := json.NewEncoder(w)
	n := 0
	for s := gen.Next(); s != nil; s = gen.Next() {
		rec := jsonSession{
			StartSec:    s.Start.Seconds(),
			Region:      s.Region.Short(),
			Addr:        s.Addr.String(),
			Ultrapeer:   s.Ultrapeer,
			SharedFiles: s.SharedFiles,
			Passive:     s.Passive,
			DurationSec: s.Duration.Seconds(),
			Class:       s.Class,
		}
		for _, q := range s.Queries {
			rec.Queries = append(rec.Queries, jsonQuery{
				OffsetSec:  q.Offset.Seconds(),
				Text:       q.Text,
				PreConnect: q.PreConnect,
			})
		}
		if err := enc.Encode(rec); err != nil {
			fmt.Fprintf(os.Stderr, "encoding: %v\n", err)
			os.Exit(1)
		}
		n++
	}
	if err := w.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "flushing: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "emitted %d sessions\n", n)
}
