package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// endToEnd is every end-to-end metric a timed run reports, and how one
// pass yields it. BENCHMARK.json gives each its regression bound. The four
// time metrics are scaled to the probe's reference speed (probe.go).
var endToEnd = []struct {
	metricDef
	of func(p passResult) float64
}{
	{metricDef{"wall_s", "s", "lower"}, func(p passResult) float64 { return p.atRefSpeed(p.WallS) }},
	{metricDef{"sessions_per_s", "1/s", "higher"}, func(p passResult) float64 { return float64(p.Attempted) / p.atRefSpeed(p.WallS) }},
	{metricDef{"cpu_s", "s", "lower"}, func(p passResult) float64 { return p.atRefSpeed(p.CPUS) }},
	{metricDef{"peak_rss_mb", "MB", "lower"}, func(p passResult) float64 { return p.PeakRSSMB }},
	{metricDef{"allocs_per_item", "count", "lower"}, func(p passResult) float64 { return float64(p.Mallocs) / float64(p.Items) }},
	{metricDef{"alloc_bytes_per_item", "B", "lower"}, func(p passResult) float64 { return float64(p.AllocBytes) / float64(p.Items) }},
	{metricDef{"setup_s", "s", "lower"}, func(p passResult) float64 { return p.atRefSpeed(p.SetupS) }},
}

// atRefSpeed converts seconds measured in this pass to seconds at the speed
// at which the probe takes probeRefS.
func (p passResult) atRefSpeed(seconds float64) float64 { return seconds * probeRefS / p.ProbeS }

// A timed run takes cold passes, one child process at a time, for as long
// as another one fits into its --seconds, and never fewer than minPasses.
// Every pass has the run's seed and so the same inputs: how many there are
// changes how well the medians are known, not what they are medians of.
const minPasses = 5

// summary is one metric over a run's passes.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// quartiles returns the three cut points Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), which
// is what the acceptance procedure measures spread with.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(unit string, values []float64) summary {
	q1, q2, q3 := quartiles(values)
	return summary{Unit: unit, Median: q2, Q1: q1, Q3: q3, N: len(values), Values: values}
}

// metricValue is one metric as the result line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one workload produced: every pass, the
// end-to-end summaries over them, and the traced run's per-layer numbers.
type workloadResult struct {
	Name      string             `json:"name"`
	Size      size               `json:"size"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Correct   bool               `json:"correct"`
	Passes    []passResult       `json:"passes,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end,omitempty"`
	Traced    *tracedResult      `json:"traced,omitempty"`
}

// child re-runs this binary in a child mode and decodes the JSON it
// prints. A pass in a fresh process is what a CLI user pays, and makes
// peak RSS and the allocation counts the pass's own.
func child(into any, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("child %v: %w", args, err)
	}
	if err := json.Unmarshal(bytes.TrimSpace(stdout), into); err != nil {
		return fmt.Errorf("child %v printed %q: %w", args, stdout, err)
	}
	return nil
}

func childArgs(mode string, w *workload, seed uint64) []string {
	return []string{"-child", mode, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10)}
}

// timedRun takes cold passes of w at its std size, every one from the same
// seed and with no tracing, until the next would end after seconds.
func timedRun(w *workload, seed uint64, seconds float64) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Size: w.sizes[stdSize]}
	start := time.Now()
	for i := 0; ; i++ {
		// A pass is expected to take what the passes so far took on average.
		if elapsed := time.Since(start).Seconds(); i >= minPasses && elapsed+elapsed/float64(i) > seconds {
			break
		}
		var pr passResult
		if err := child(&pr, append(childArgs("pass", w, seed), "-pass", strconv.Itoa(i))...); err != nil {
			return nil, err
		}
		res.Passes = append(res.Passes, pr)
		res.Attempted += pr.Attempted
		res.Failed += pr.Failed
	}
	res.Correct = res.Failed == 0
	res.EndToEnd = make(map[string]summary, len(endToEnd))
	for _, m := range endToEnd {
		values := make([]float64, len(res.Passes))
		for i, pr := range res.Passes {
			values[i] = m.of(pr)
		}
		res.EndToEnd[m.Name] = summarize(m.Unit, values)
	}
	return res, nil
}

// tracedRun takes the traced run of w, at its std size, in a child process.
func tracedRun(w *workload, seed uint64) (*workloadResult, error) {
	var tr tracedResult
	if err := child(&tr, childArgs("traced", w, seed)...); err != nil {
		return nil, err
	}
	return &workloadResult{Name: w.name, Size: w.sizes[stdSize], Attempted: tr.Attempted, Failed: tr.Failed, Correct: tr.Failed == 0, Traced: &tr}, nil
}

// print writes every metric the result holds, by name and unit.
func (r *workloadResult) print(out io.Writer) {
	fmt.Fprintf(out, "%s  scale %g, %d d, %d nodes, %d passes per timed region\n", r.Name, r.Size.Scale, r.Size.Days, r.Size.Nodes, r.Size.Passes)
	if r.EndToEnd != nil {
		fmt.Fprintf(out, "  %-36s %-6s %14s %14s %14s %3s\n", "end to end", "unit", "median", "q1", "q3", "n")
		for _, m := range endToEnd {
			s := r.EndToEnd[m.Name]
			fmt.Fprintf(out, "  %-36s %-6s %14.6g %14.6g %14.6g %3d\n", m.Name, s.Unit, s.Median, s.Q1, s.Q3, s.N)
		}
		// What the four time metrics were scaled from, pass by pass.
		for _, pr := range r.Passes {
			fmt.Fprintf(out, "    pass %d as measured: wall %.4f s, cpu %.4f s, set-up %.4f s, probe %.4f s (reference %g s)\n", pr.Pass, pr.WallS, pr.CPUS, pr.SetupS, pr.ProbeS, probeRefS)
		}
	}
	if r.Traced != nil {
		fmt.Fprintf(out, "  %-36s %-6s %14s\n", "per layer (traced run)", "unit", "value")
		for _, m := range perLayer {
			fmt.Fprintf(out, "  %-36s %-6s %14.6g\n", m.Name, m.Unit, r.Traced.PerLayer[m.Name])
		}
		fmt.Fprintf(out, "  budget: end-to-end cpu_s %.3f, staged as\n", r.Traced.EndToEnd.CPUS)
		for _, b := range r.Traced.Budget {
			fmt.Fprintf(out, "    %8.3f s  %s\n", b.CPUS, b.Stage)
		}
		fmt.Fprintf(out, "  spans: bench/%s\n", r.Traced.SpanFile)
	}
	verdict := "correct"
	if !r.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(out, "  sessions attempted %d, failed %d (failed_share %g): %s\n", r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted), verdict)
	for _, pr := range r.Passes {
		for _, p := range pr.Problems {
			fmt.Fprintf(out, "    pass %d (seed %d): %s\n", pr.Pass, pr.Seed, p)
		}
	}
	if r.Traced != nil {
		for _, p := range r.Traced.Problems {
			fmt.Fprintf(out, "    traced run: %s\n", p)
		}
	}
}

// resultLine is the last line of a contract run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *workloadResult) line() resultLine {
	l := resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	if r.Traced != nil {
		for _, m := range perLayer {
			l.Metrics[m.Name] = metricValue{r.Traced.PerLayer[m.Name], m.Unit}
		}
		return l
	}
	for name, s := range r.EndToEnd {
		l.Metrics[name] = metricValue{s.Median, s.Unit}
	}
	return l
}

// machineInfo says where a result file was measured.
type machineInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func thisMachine() machineInfo {
	m := machineInfo{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			if name, ok := bytes.CutPrefix(line, []byte("model name")); ok {
				m.CPU = string(bytes.TrimLeft(name, " \t:"))
				break
			}
		}
	}
	return m
}

// resultsFile is out/results.json and baseline/pr12.json: one full suite
// run, every pass included, which `compare` reads.
type resultsFile struct {
	Machine   machineInfo       `json:"machine"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadResult `json:"workloads"`
}

// suite runs every workload, timed and then traced, prints every metric
// and writes out/results.json.
func suite(out io.Writer, seed uint64, seconds float64) (*resultsFile, error) {
	rf := &resultsFile{Machine: thisMachine(), Seed: seed, Seconds: seconds}
	for _, w := range workloads {
		res, err := timedRun(w, seed, seconds)
		if err != nil {
			return nil, err
		}
		traced, err := tracedRun(w, seed)
		if err != nil {
			return nil, err
		}
		res.Traced = traced.Traced
		res.Attempted += traced.Attempted
		res.Failed += traced.Failed
		res.Correct = res.Failed == 0
		res.print(out)
		rf.Workloads = append(rf.Workloads, res)
	}
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "wrote bench/%s\n", path)
	return rf, nil
}
