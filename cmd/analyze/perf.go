package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// perfSim is the simulation-phase block of the -perf accounting line,
// present only on simulation runs — a saved trace measures none of it.
type perfSim struct {
	Arrivals           uint64  `json:"arrivals"`
	RejectedArrivals   uint64  `json:"rejected_arrivals"`
	MaxPeakConns       int     `json:"max_peak_conns"`
	MergePeakPending   int     `json:"merge_peak_pending"`
	SpilledSessions    int     `json:"spilled_sessions"`
	DeadInputs         int     `json:"dead_inputs"`
	LostSessions       uint64  `json:"lost_sessions"`
	SchedEventsMaxNode uint64  `json:"sched_events_max_node"`
	SchedEventsTotal   uint64  `json:"sched_events_total"`
	SimulateS          float64 `json:"simulate_s"`
	SimulatePeakRSS    int64   `json:"simulate_peak_rss_bytes"`
	SimulateHeapLive   int64   `json:"simulate_heap_live_bytes"`
}

// perfLine is the full -perf accounting line. The embedded *perfSim
// splices the simulation fields into the object right after "conns"; a
// nil pointer drops the whole block, where omitempty would also drop a
// simulation's genuine zeros (rejected_arrivals, dead_inputs).
type perfLine struct {
	Conns int `json:"conns"`
	*perfSim
	Nodes         int     `json:"nodes"`
	Hop1Queries   int     `json:"hop1_queries"`
	CharacterizeS float64 `json:"characterize_s"`
	TotalS        float64 `json:"total_s"`
	PeakRSSBytes  int64   `json:"peak_rss_bytes"`
	Workers       int     `json:"workers"`
	Scale         float64 `json:"scale"`
	Days          int     `json:"days"`
}

// round2 keeps the wall-clock figures at two decimals instead of full
// float64 noise.
func round2(s float64) float64 { return math.Round(s*100) / 100 }

// writePerf emits the accounting line as one JSON object on one line.
func writePerf(w io.Writer, line *perfLine) error {
	if line.perfSim != nil {
		line.SimulateS = round2(line.SimulateS)
	}
	line.CharacterizeS = round2(line.CharacterizeS)
	line.TotalS = round2(line.TotalS)
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
