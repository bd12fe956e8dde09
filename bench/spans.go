package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer's public API during the traced
// run. Times are microseconds since the recorder started.
type span struct {
	Name    string  `json:"name"`
	Parent  int     `json:"parent"` // index into the span list; -1 for a root
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
	// CPUUS is the process's user+sys time over the span. The staged
	// replay runs one stage at a time, so it is the stage's own CPU —
	// goroutines the stage starts included, which wall time hides.
	CPUUS float64 `json:"cpu_us"`
	// SelfUS is the duration minus the interval the children cover.
	SelfUS float64 `json:"self_us"`
}

func (s span) seconds() float64    { return (s.EndUS - s.StartUS) / 1e6 }
func (s span) cpuSeconds() float64 { return s.CPUUS / 1e6 }

// recorder keeps every span of a traced run in memory and writes them
// out once, at the end. Spans open and close on the calling goroutine
// in stack order; it is not safe for concurrent use.
type recorder struct {
	t0    time.Time
	spans []span
	open  int // innermost open span, -1 at top level
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), open: -1} }

func (r *recorder) sinceUS() float64 { return float64(time.Since(r.t0).Nanoseconds()) / 1e3 }

// do runs fn inside a span named name, a child of whichever span is open,
// and returns the closed span.
func (r *recorder) do(name string, fn func()) span {
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Parent: r.open})
	r.open = id
	cpu0 := cpuSeconds()
	r.spans[id].StartUS = r.sinceUS()
	fn()
	r.spans[id].EndUS = r.sinceUS()
	r.spans[id].CPUUS = (cpuSeconds() - cpu0) * 1e6
	r.open = r.spans[id].Parent
	return r.spans[id]
}

// byName returns the first span called name, or a zero span.
func (r *recorder) byName(name string) span {
	for _, s := range r.spans {
		if s.Name == name {
			return s
		}
	}
	return span{}
}

// fillSelf sets every span's self time: its duration minus the union of
// its children's intervals.
func fillSelf(spans []span) {
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.StartUS, s.EndUS})
		}
	}
	for i := range spans {
		iv := kids[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := 0.0, spans[i].StartUS
		for _, k := range iv {
			lo, hi := max(k[0], end), k[1]
			if hi > lo {
				covered += hi - lo
				end = hi
			}
		}
		spans[i].SelfUS = spans[i].EndUS - spans[i].StartUS - covered
	}
}

// checkTree reports the first way spans fail to be a well-formed tree:
// a parent that is not an earlier span, a child outside its parent's
// interval, or a negative self time.
func checkTree(spans []span) error {
	for i, s := range spans {
		if s.EndUS < s.StartUS {
			return fmt.Errorf("span %d %q ends before it starts", i, s.Name)
		}
		if s.SelfUS < 0 {
			return fmt.Errorf("span %d %q has negative self time %v", i, s.Name, s.SelfUS)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span %d %q has parent %d, not an earlier span", i, s.Name, s.Parent)
		}
		if p := spans[s.Parent]; s.StartUS < p.StartUS || s.EndUS > p.EndUS {
			return fmt.Errorf("span %d %q lies outside its parent %q", i, s.Name, p.Name)
		}
	}
	return nil
}

// spanFile is the layout of out/<workload>.spans.json.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Size     string `json:"size"`
	Spans    []span `json:"spans"`
}

func (r *recorder) write(path, workload string, seed uint64, size string) error {
	fillSelf(r.spans)
	data, err := json.MarshalIndent(spanFile{workload, seed, size, r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
