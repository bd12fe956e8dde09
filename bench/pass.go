package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/obs"
)

// processStart is as early as the benchmark's own code can look at the
// clock; set-up time is counted from it.
var processStart = time.Now()

// cpuSeconds is the process's user+sys time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// measurement is what the meter saw over one timed region.
type measurement struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	PeakRSSMB  float64 `json:"peak_rss_mb"`
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	// HWMReset says the high-water mark was cleared when the region
	// started, so PeakRSSMB is the region's own peak and not set-up's.
	HWMReset bool `json:"hwm_reset"`
}

// meter measures a timed region, which a workload may pause for a check
// it has to make between two parts of the region.
type meter struct {
	t0       time.Time
	cpu0     float64
	ms0      runtime.MemStats
	hwmReset bool
	sum      measurement
}

// startMeter returns set-up's garbage to the system, clears the RSS
// high-water mark and starts the clocks.
func startMeter() *meter {
	m := &meter{}
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current RSS (Linux 4.0
	// and later). Where the kernel refuses, the peak includes set-up and
	// the result says so.
	m.hwmReset = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	m.resume()
	return m
}

func (m *meter) resume() {
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuSeconds()
	m.t0 = time.Now()
}

// pause stops the clocks and the allocation counts until resume. Peak RSS
// is the process's and keeps counting.
func (m *meter) pause() {
	wall := time.Since(m.t0).Seconds()
	cpu := cpuSeconds() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.sum.WallS += wall
	m.sum.CPUS += cpu
	m.sum.Mallocs += ms.Mallocs - m.ms0.Mallocs
	m.sum.AllocBytes += ms.TotalAlloc - m.ms0.TotalAlloc
}

func (m *meter) stop() (measurement, error) {
	m.pause()
	rss := obs.PeakRSSBytes()
	if rss == 0 {
		return measurement{}, errors.New("no VmHWM in /proc/self/status: peak RSS cannot be measured here")
	}
	m.sum.PeakRSSMB = float64(rss) / (1 << 20)
	m.sum.HWMReset = m.hwmReset
	return m.sum, nil
}

// passResult is one cold pass of one workload: a child process's whole
// report to the parent, and one entry of a result file's runs.
type passResult struct {
	Pass   int     `json:"pass"`
	Seed   uint64  `json:"seed"`
	SetupS float64 `json:"setup_s"`
	measurement
	// Attempted is the sessions expected in the output; Failed those
	// missing from it or reported lost, or all of them on a broken
	// invariant or hash.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Items is the input items the timed region consumed (see inputs.items).
	Items int `json:"items"`
	// ProbeS is the mean of the two speed probes taken just before and just
	// after the timed region (0 on the traced run's pass, which takes none):
	// the pass's time metrics are scaled by probeRefS ÷ ProbeS.
	ProbeS float64 `json:"probe_s"`
	// Golden says whether golden.json pinned this pass's hashes.
	Golden bool `json:"golden"`
}

// verified runs a workload's timed region under the meter, between two
// speed probes if probed, and then every check, returning the outputs for
// the traced run to reuse.
func verified(w *workload, sizeName string, in *inputs, probed bool) (*outputs, passResult, error) {
	pr := passResult{Seed: in.seed, Attempted: in.expected, Items: in.items}
	var before float64
	if probed {
		before = speedProbe()
	}
	m := startMeter()
	out, err := w.timed(in, m)
	if err != nil {
		return nil, pr, fmt.Errorf("%s: timed region: %w", w.name, err)
	}
	if pr.measurement, err = m.stop(); err != nil {
		return nil, pr, err
	}
	if probed {
		pr.ProbeS = (before + speedProbe()) / 2
	}
	if pr.Golden, err = checkGolden(w.name, sizeName, in.seed, out); err != nil {
		return nil, pr, err
	}
	pr.Failed = max(0, in.expected-out.sessions) + int(out.lost)
	if out.sessions > in.expected {
		out.problems = append(out.problems, fmt.Sprintf("output holds %d sessions, expected %d", out.sessions, in.expected))
	}
	if len(out.problems) > 0 {
		pr.Failed = pr.Attempted
	}
	pr.Problems = out.problems
	return out, pr, nil
}

// runPass is one cold pass: set-up, the timed region, the checks.
func runPass(w *workload, sizeName string, seed uint64, pass int) (passResult, error) {
	in, err := w.setup(seed, w.sizes[sizeName])
	if err != nil {
		return passResult{}, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	if in.tracePath != "" {
		defer os.Remove(in.tracePath)
	}
	setup := time.Since(processStart).Seconds()
	_, pr, err := verified(w, sizeName, in, true)
	pr.Pass = pass
	pr.SetupS = setup
	return pr, err
}

// goldenEntry pins one workload's outputs at one size for seed 2004.
type goldenEntry struct {
	Trace  string `json:"trace_sha256"`
	Report string `json:"report_sha256"`
}

// goldenFile is golden.json: seed → size → workload → hashes.
type goldenFile struct {
	Seed  uint64                            `json:"seed"`
	Sizes map[string]map[string]goldenEntry `json:"sizes"`
}

// checkGolden compares the pass's first trace and report with golden.json
// when it pins this seed and size, appending mismatches to out.problems.
// Other seeds are checked by invariants alone.
func checkGolden(workload, sizeName string, seed uint64, out *outputs) (bool, error) {
	data, err := os.ReadFile("golden.json")
	if err != nil {
		return false, err
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return false, fmt.Errorf("golden.json: %w", err)
	}
	want, ok := g.Sizes[sizeName][workload]
	if !ok || seed != g.Seed {
		return false, nil
	}
	sum, err := out.trace.Hash()
	if err != nil {
		return false, err
	}
	if got := hex.EncodeToString(sum[:]); got != want.Trace {
		out.problems = append(out.problems, fmt.Sprintf("trace sha256 %s, golden %s", got, want.Trace))
	}
	// wire-replay renders no report and pins none.
	if want.Report != "" {
		sum := sha256.Sum256(out.report)
		if got := hex.EncodeToString(sum[:]); got != want.Report {
			out.problems = append(out.problems, fmt.Sprintf("report sha256 %s, golden %s", got, want.Report))
		}
	}
	return true, nil
}
