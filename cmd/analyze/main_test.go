package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	p2pquery "repro"
)

// buildAnalyze compiles the analyze binary once per test run.
func buildAnalyze(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "analyze")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// smallTrace writes a small simulated trace file for the CLI to read.
func smallTrace(t *testing.T) string {
	t.Helper()
	cfg := p2pquery.DefaultSimulation(7, 0.01)
	cfg.Workload.Days = 2
	tr := p2pquery.Simulate(cfg)
	path := filepath.Join(t.TempDir(), "trace.bin")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIAnalyzeTraceFile(t *testing.T) {
	bin := buildAnalyze(t)
	trace := smallTrace(t)

	out, err := exec.Command(bin, "-only", "summary", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("analyze -only summary: %v\n%s", err, out)
	}
	for _, want := range []string{"Headline measures", "passive session share", "p90 retained session"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("summary output missing %q:\n%s", want, out)
		}
	}

	out, err = exec.Command(bin, "-only", "fits", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("analyze -only fits: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Appendix fits") {
		t.Errorf("fits output missing header:\n%s", out)
	}
}

func TestCLIAnalyzeSimulate(t *testing.T) {
	bin := buildAnalyze(t)
	cmd := exec.Command(bin, "-simulate", "-seed", "11", "-scale", "0.004", "-days", "1",
		"-only", "table2", "-perf")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("analyze -simulate: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Table 2") {
		t.Errorf("table2 section missing:\n%s", stdout.String())
	}
	for _, want := range []string{`"conns":`, `"peak_rss_bytes":`, `"characterize_s":`} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("perf line missing %q: %s", want, stderr.String())
		}
	}
}

func TestCLIAnalyzeSimulateFleet(t *testing.T) {
	bin := buildAnalyze(t)
	cmd := exec.Command(bin, "-simulate", "-seed", "11", "-scale", "0.004", "-days", "1",
		"-nodes", "3", "-only", "summary", "-perf")
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("analyze -simulate -nodes 3: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "Headline measures") {
		t.Errorf("summary section missing:\n%s", stdout.String())
	}
	// The perf line reports the simulate and characterize phases
	// separately: wall-clock and peak RSS each.
	for _, want := range []string{`"nodes":3`, `"arrivals":`, `"max_peak_conns":`,
		`"simulate_s":`, `"simulate_peak_rss_bytes":`,
		`"characterize_s":`, `"peak_rss_bytes":`} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("perf line missing %q: %s", want, stderr.String())
		}
	}
}

// TestCLIAnalyzeSimWorkersByteIdentical pins the engine's determinism
// contract end to end through the CLI: every vantage's event loop runs on
// its own goroutine, so the OS threads available to the simulation are
// its workers, and the rendered report must be byte-identical however
// many GOMAXPROCS grants.
func TestCLIAnalyzeSimWorkersByteIdentical(t *testing.T) {
	bin := buildAnalyze(t)
	run := func(procs string) string {
		cmd := exec.Command(bin, "-simulate", "-seed", "5", "-scale", "0.004", "-days", "1",
			"-nodes", "3", "-only", "summary")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("analyze at GOMAXPROCS=%s: %v", procs, err)
		}
		return string(out)
	}
	ref := run("1")
	for _, p := range []string{"2", "4"} {
		if got := run(p); got != ref {
			t.Errorf("GOMAXPROCS=%s output differs from GOMAXPROCS=1", p)
		}
	}
}

// TestCLIAnalyzeKSBootstrap drives the -ksboot flag: the fits table must
// tag its verdicts with the bootstrap source.
func TestCLIAnalyzeKSBootstrap(t *testing.T) {
	bin := buildAnalyze(t)
	trace := smallTrace(t)
	out, err := exec.Command(bin, "-only", "fits", "-ksboot", "9", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("analyze -ksboot: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "(boot)") {
		t.Errorf("fits output missing bootstrap verdict tag:\n%s", out)
	}
	out, err = exec.Command(bin, "-only", "fits", trace).CombinedOutput()
	if err != nil {
		t.Fatalf("analyze fits: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "(asym)") {
		t.Errorf("fits output missing asymptotic verdict tag:\n%s", out)
	}
}

func TestCLIAnalyzeCSVExport(t *testing.T) {
	bin := buildAnalyze(t)
	trace := smallTrace(t)
	dir := filepath.Join(t.TempDir(), "csv")
	out, err := exec.Command(bin, "-only", "summary", "-csv", dir, trace).CombinedOutput()
	if err != nil {
		t.Fatalf("analyze -csv: %v\n%s", err, out)
	}
	// The SHA-256 of every exported file for smallTrace's fixed trace: a
	// refactor of the figure containers or the series order shows here.
	want := map[string]string{
		"fig5_passive_duration_ccdf.csv":    "94a48bcac1145feed782f4b27176ed9cfc054393491952fe7be46c829ed0870a",
		"fig6_queries_per_session_ccdf.csv": "985a219965029c0108d3b1ac10b0368a2b3d98213064930047ddad58a4054ccc",
		"fig7_first_query_ccdf.csv":         "5a29f98593eb80775b80bccd363883d1cf2cf97c54efb1de90d298c548f5d0d1",
		"fig8_interarrival_ccdf.csv":        "bcf6b626e95b2662c8f22dcdd71ad85c9a4c5d50fff9f51677d0984c520cd471",
		"fig9_after_last_ccdf.csv":          "b0209461818626ea6b3118a6ab83f6ca947015c35f234ed19d3497413c979b60",
		"fig11_popularity_pmf.csv":          "af2278a8c6d5d5a14da7ed509c1ccaf1dc270861f9a1abd6f0c9ad545750a195",
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(want) {
		t.Errorf("CSV export wrote %d files, want %d", len(entries), len(want))
	}
	for f, sum := range want {
		data, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing CSV export: %v", err)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != sum {
			t.Errorf("%s: sha256 %s, want %s", f, got, sum)
		}
	}
}

func TestCLIAnalyzeBadUsage(t *testing.T) {
	bin := buildAnalyze(t)
	cases := [][]string{
		{},                            // no trace file
		{"-only", "nope", "x"},        // unknown section
		{"-simulate", "trailing-arg"}, // -simulate takes no file
		{filepath.Join(t.TempDir(), "missing.bin")}, // unreadable trace
		{"-simulate", "-heartbeat", "50ms"},         // heartbeat without a journal
		// Run shapes the engine cannot honour meet the spec's range checks.
		{"-simulate", "-days", "0"},
		{"-simulate", "-scale", "0"},
		{"-simulate", "-nodes", "0"},
		{"-simulate", "-memlimit", "1"}, // retired: GOMEMLIMIT sets the limit
	}
	for _, args := range cases {
		// A bad run shape must be refused, not simulated: -days 0 used to
		// hang, so each case gets a deadline; a killed run exits -1.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := exec.CommandContext(ctx, bin, args...).Run()
		cancel()
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Errorf("analyze %v: expected nonzero exit, got %v", args, err)
			continue
		}
		if code := ee.ExitCode(); code != 1 && code != 2 {
			t.Errorf("analyze %v: exit code %d, want 1 or 2", args, code)
		}
	}
}

// TestCLIAnalyzeWritesTrace: -o and -jsonl write the simulated trace, and
// reading -o's file back reproduces the simulate run's report exactly.
func TestCLIAnalyzeWritesTrace(t *testing.T) {
	bin := buildAnalyze(t)
	dir := t.TempDir()
	file, jsonl := filepath.Join(dir, "trace.bin"), filepath.Join(dir, "trace.jsonl")
	simOut, err := exec.Command(bin, "-simulate", "-seed", "7", "-scale", "0.004", "-days", "1", "-nodes", "2",
		"-only", "summary", "-o", file, "-jsonl", jsonl).Output()
	if err != nil {
		t.Fatalf("analyze -simulate -o: %v", err)
	}
	readOut, err := exec.Command(bin, "-only", "summary", file).Output()
	if err != nil {
		t.Fatalf("analyze %s: %v", file, err)
	}
	if string(readOut) != string(simOut) {
		t.Errorf("report from the written trace differs from the simulate run's:\n%s\nvs\n%s", readOut, simOut)
	}

	tr, err := p2pquery.ReadTrace(file)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(data, []byte("\n")); len(tr.Conns) == 0 || n != len(tr.Conns)+len(tr.Queries) {
		t.Errorf("JSONL has %d lines, want %d conns + %d hop-1 queries", n, len(tr.Conns), len(tr.Queries))
	}
}

// TestCLIAnalyzeStreamMatchesBatch drives -online through the CLI: the
// online characterization block must print, and the canonical trace hash
// must equal the run without the flag — the full-scale acceptance check
// at test scale.
func TestCLIAnalyzeStreamMatchesBatch(t *testing.T) {
	bin := buildAnalyze(t)
	run := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		args := append([]string{"-simulate", "-seed", "11", "-scale", "0.004", "-days", "1",
			"-nodes", "3", "-tracehash", "-only", "summary", "-perf"}, extra...)
		cmd := exec.Command(bin, args...)
		var so, se strings.Builder
		cmd.Stdout = &so
		cmd.Stderr = &se
		if err := cmd.Run(); err != nil {
			t.Fatalf("analyze %v: %v\nstderr: %s", args, err, se.String())
		}
		return so.String(), se.String()
	}
	batchOut, batchErr := run()
	streamOut, streamErr := run("-online")

	for _, want := range []string{"Online characterization", "top keyword sets", "Headline measures"} {
		if !strings.Contains(streamOut, want) {
			t.Errorf("-online output missing %q", want)
		}
	}
	if strings.Contains(batchOut, "Online characterization") {
		t.Error("batch output unexpectedly contains the online block")
	}

	hashOf := func(stderr string) string {
		t.Helper()
		for _, line := range strings.Split(stderr, "\n") {
			if strings.HasPrefix(line, "trace sha256 ") {
				return strings.TrimPrefix(line, "trace sha256 ")
			}
		}
		t.Fatalf("no trace hash in stderr: %s", stderr)
		return ""
	}
	if hb, hs := hashOf(batchErr), hashOf(streamErr); hb != hs {
		t.Errorf("trace hashes differ: batch %s stream %s", hb, hs)
	}

	// The report itself (below the online block) must be byte-identical:
	// same drained trace, same characterization.
	if i := strings.Index(streamOut, "Headline measures"); i < 0 || streamOut[i:] != batchOut {
		t.Error("report section differs between batch and streaming runs")
	}
}
