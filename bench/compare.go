package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readBenchmarkFile() (*benchmarkFile, error) {
	var b benchmarkFile
	return &b, readJSON(filepath.Join("..", "BENCHMARK.json"), &b)
}

// absSlack is how far a metric's median may move, and how wide its
// quartiles may lie, in the metric's own unit before its relative bound is
// applied at all. Set-up is a few tenths of a second on most workloads, so
// a scheduling hiccup is a large share of it and no sign of work moved
// into set-up; the issue gives it half a second.
var absSlack = map[string]float64{"setup_s": 0.5}

// allBetter reports whether every run of b reads better than every run
// of a.
func allBetter(a, b summary, lowerIsBetter bool) bool {
	for _, x := range a.Values {
		for _, y := range b.Values {
			if lowerIsBetter && y >= x || !lowerIsBetter && y <= x {
				return false
			}
		}
	}
	return true
}

// compare applies each end-to-end metric's bound to every workload of
// two result files, A the parent and B the change. A pair regresses when
// B's median is worse than A's by more than the bound, and is unresolved
// when either side's quartile spread exceeds the bound (unless every run
// of B beats every run of A); a pair that moves and spreads by no more than
// the metric's absSlack passes outright. It reports whether every pair
// passed.
func compare(out io.Writer, pathA, pathB string) (bool, error) {
	bf, err := readBenchmarkFile()
	if err != nil {
		return false, err
	}
	var a, b resultsFile
	if err := readJSON(pathA, &a); err != nil {
		return false, err
	}
	if err := readJSON(pathB, &b); err != nil {
		return false, err
	}
	inB := make(map[string]*workloadResult, len(b.Workloads))
	for _, w := range b.Workloads {
		inB[w.Name] = w
	}
	var bad []string
	fmt.Fprintf(out, "%-15s %-24s %-5s %12s %22s %3s %12s %22s %3s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "n", "B median", "B q1..q3", "n", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := inB[wa.Name]
		if !ok {
			return false, fmt.Errorf("%s: workload %s is missing", pathB, wa.Name)
		}
		for _, m := range bf.EndToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				return false, fmt.Errorf("%s: metric %s is missing from a result file", wa.Name, m.Name)
			}
			lower := m.Better == "lower"
			worse := (sb.Median - sa.Median) / sa.Median
			if !lower {
				worse = -worse
			}
			spread := max((sa.Q3-sa.Q1)/sa.Median, (sb.Q3-sb.Q1)/sb.Median)
			slack := absSlack[m.Name]
			verdict, fails := "ok", false
			switch {
			case slack > 0 && math.Abs(sb.Median-sa.Median) <= slack && sa.Q3-sa.Q1 <= slack && sb.Q3-sb.Q1 <= slack:
				verdict = fmt.Sprintf("ok (within %g %s)", slack, m.Unit)
			case spread > m.Bound && allBetter(sa, sb, lower):
				verdict = "ok (every run better)"
			case spread > m.Bound:
				verdict, fails = fmt.Sprintf("unresolved (spread %.1f%%)", 100*spread), true
			case worse > m.Bound:
				verdict, fails = "REGRESSION", true
			}
			if fails {
				bad = append(bad, fmt.Sprintf("%s on %s: %s", m.Name, wa.Name, verdict))
			}
			fmt.Fprintf(out, "%-15s %-24s %-5s %12.6g %10.5g..%-10.5g %3d %12.6g %10.5g..%-10.5g %3d %+7.1f%% %5.0f%%  %s\n",
				wa.Name, m.Name, sa.Unit, sa.Median, sa.Q1, sa.Q3, sa.N, sb.Median, sb.Q1, sb.Q3, sb.N, 100*worse, 100*m.Bound, verdict)
		}
		if wa.Failed != 0 || wb.Failed != 0 {
			bad = append(bad, fmt.Sprintf("failed sessions on %s: A %d, B %d", wa.Name, wa.Failed, wb.Failed))
		}
	}
	for _, line := range bad {
		fmt.Fprintln(out, "FAIL", line)
	}
	return len(bad) == 0, nil
}
