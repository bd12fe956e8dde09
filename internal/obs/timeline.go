package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// tlLine is one parsed journal line.
type tlLine struct {
	kind    string
	src     string
	name    string
	t       float64
	dur     float64
	id      uint64
	attrs   map[string]any
	samples map[string]float64
}

func parseJournal(r io.Reader) ([]tlLine, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var out []tlLine
	ln := 0
	for sc.Scan() {
		ln++
		raw := sc.Text()
		if strings.TrimSpace(raw) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(raw), &m); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", ln, err)
		}
		var l tlLine
		l.kind, _ = m["kind"].(string)
		l.src, _ = m["src"].(string)
		l.name, _ = m["name"].(string)
		l.t, _ = m["t_ms"].(float64)
		l.dur, _ = m["dur_ms"].(float64)
		if id, ok := m["id"].(float64); ok {
			l.id = uint64(id)
		}
		if a, ok := m["attrs"].(map[string]any); ok {
			l.attrs = a
		}
		if s, ok := m["samples"].(map[string]any); ok {
			l.samples = make(map[string]float64, len(s))
			for k, v := range s {
				if f, ok := v.(float64); ok {
					l.samples[k] = f
				}
			}
		}
		out = append(out, l)
	}
	return out, sc.Err()
}

// timelineGapMs is the intra-lane silence (milliseconds between
// consecutive lines) above which WriteTimeline prints a gap annotation.
const timelineGapMs = 1000

// WriteTimeline reads a (single-process or fleet) JSONL journal and
// renders a human-readable account of the run: one lane per src, lines
// in time order, span open/close markers with measured durations,
// stall/evict events flagged, runs of heartbeats collapsed to one line,
// intra-lane silences above one second annotated, and each lane's final
// metrics / latency snapshots rolled up at the bottom of the lane.
func WriteTimeline(w io.Writer, r io.Reader) error {
	lines, err := parseJournal(r)
	if err != nil {
		return err
	}
	if len(lines) == 0 {
		_, err := fmt.Fprintln(w, "empty journal")
		return err
	}
	lanes := make(map[string][]tlLine)
	var order []string
	minT, maxT := lines[0].t, lines[0].t
	for _, l := range lines {
		if _, ok := lanes[l.src]; !ok {
			order = append(order, l.src)
		}
		lanes[l.src] = append(lanes[l.src], l)
		if l.t < minT {
			minT = l.t
		}
		if l.t > maxT {
			maxT = l.t
		}
	}
	sort.Strings(order)
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "fleet timeline: %d lanes, %d lines, %s – %s\n",
		len(order), len(lines), fmtMs(minT), fmtMs(maxT))
	for _, src := range order {
		ll := lanes[src]
		sort.SliceStable(ll, func(i, k int) bool { return ll[i].t < ll[k].t })
		label := src
		if label == "" {
			label = "(main)"
		}
		fmt.Fprintf(bw, "\nlane %s: %d lines\n", label, len(ll))
		writeLane(bw, ll)
	}
	return bw.Flush()
}

func writeLane(w io.Writer, ll []tlLine) {
	var lastMetrics, lastLatency map[string]float64
	prevT := ll[0].t
	hb := 0 // pending collapsed heartbeats
	var hbFirst, hbLast float64
	flushHB := func() {
		if hb == 0 {
			return
		}
		fmt.Fprintf(w, "  %10s  * %d heartbeats through %s\n", fmtMs(hbFirst), hb, fmtMs(hbLast))
		hb = 0
	}
	for _, l := range ll {
		if l.t-prevT > timelineGapMs {
			flushHB()
			fmt.Fprintf(w, "  %10s  ~ gap %s\n", fmtMs(prevT), fmtMs(l.t-prevT))
		}
		prevT = l.t
		if l.kind == "heartbeat" {
			if hb == 0 {
				hbFirst = l.t
			}
			hbLast = l.t
			hb++
			continue
		}
		flushHB()
		switch l.kind {
		case "span_start":
			fmt.Fprintf(w, "  %10s  > %s%s\n", fmtMs(l.t), l.name, fmtAttrs(l.attrs))
		case "span_end":
			fmt.Fprintf(w, "  %10s  < %s dur=%s%s\n", fmtMs(l.t), l.name, fmtMs(l.dur), fmtAttrs(l.attrs))
		case "event":
			mark := "."
			switch l.name {
			case "input_stalled", "input_evicted":
				mark = "!"
			case "input_recovered", "input_done":
				mark = "+"
			}
			fmt.Fprintf(w, "  %10s  %s %s%s\n", fmtMs(l.t), mark, l.name, fmtAttrs(l.attrs))
		case "metrics":
			lastMetrics = l.samples
			fmt.Fprintf(w, "  %10s  = metrics snapshot (%d samples)\n", fmtMs(l.t), len(l.samples))
		case "latency":
			lastLatency = l.samples
			fmt.Fprintf(w, "  %10s  = latency snapshot (%d samples)\n", fmtMs(l.t), len(l.samples))
		default:
			fmt.Fprintf(w, "  %10s  ? %s\n", fmtMs(l.t), l.kind)
		}
	}
	flushHB()
	writeRollup(w, "metrics", lastMetrics)
	writeRollup(w, "latency", lastLatency)
}

func writeRollup(w io.Writer, what string, samples map[string]float64) {
	if len(samples) == 0 {
		return
	}
	names := make([]string, 0, len(samples))
	for n := range samples {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %s rollup:\n", what)
	for _, n := range names {
		fmt.Fprintf(w, "    %s = %s\n", n, formatFloat(samples[n]))
	}
}

func fmtAttrs(attrs map[string]any) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, " %s=%v", k, attrs[k])
	}
	return sb.String()
}

func fmtMs(ms float64) string {
	switch {
	case ms >= 60_000:
		return fmt.Sprintf("%.1fm", ms/60_000)
	case ms >= 1000:
		return fmt.Sprintf("%.2fs", ms/1000)
	default:
		return fmt.Sprintf("%.1fms", ms)
	}
}
