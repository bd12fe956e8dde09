package main

import (
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	p2pquery "repro"
	"repro/internal/engine"
	"repro/internal/ingest"
	"repro/internal/trace"
)

// buildVantage compiles the vantage binary once per test.
func buildVantage(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vantage")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// exitCode runs the binary to completion and returns its exit status.
func exitCode(t *testing.T, bin string, args ...string) int {
	t.Helper()
	err := exec.Command(bin, args...).Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	default:
		t.Fatalf("running vantage: %v", err)
		return -1
	}
}

// TestVantageStreamRequiresCollector: without -collector there is
// nowhere to stream to, and the process must fail rather than simulate.
func TestVantageStreamRequiresCollector(t *testing.T) {
	if code := exitCode(t, buildVantage(t), "-scale", "0.002", "-days", "1"); code == 0 {
		t.Fatal("vantage without -collector exited 0")
	}
}

// TestVantageStreamRejectsLookahead: the producer window is a
// constant, so its old flag is a usage error.
func TestVantageStreamRejectsLookahead(t *testing.T) {
	if code := exitCode(t, buildVantage(t), "-collector", "127.0.0.1:1", "-lookahead", "8"); code != 2 {
		t.Fatalf("-lookahead 8: exit %d, want 2", code)
	}
}

// TestVantageStreamMatchesInProcessRun is the one-process version of
// the distributed-fleet contract: a -nodes 1 vantage process streaming
// into an in-process collector drains to a trace hash-identical to the
// in-process run with the same seed, scale and days.
func TestVantageStreamMatchesInProcessRun(t *testing.T) {
	const seed, scale, days = 2004, 0.002, 1
	cfg := p2pquery.DefaultSimulation(seed, scale)
	cfg.Workload.Days = days
	res, err := p2pquery.Run(p2pquery.RunConfig{Sim: cfg, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace.Conns) == 0 {
		t.Fatal("in-process run recorded no sessions")
	}
	want, err := res.Trace.Hash()
	if err != nil {
		t.Fatal(err)
	}

	bin := buildVantage(t)
	col, err := ingest.NewCollector(ingest.CollectorConfig{Inputs: 1, Window: trace.Time(engine.DefaultMergeWindow)})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		tr  *trace.Trace
		err error
	}
	done := make(chan result, 1)
	go func() {
		tr, err := col.Run()
		done <- result{tr, err}
	}()
	out, err := exec.Command(bin, "-collector", col.Addr(), "-input", "0",
		"-seed", fmt.Sprint(seed), "-scale", fmt.Sprint(scale), "-days", fmt.Sprint(days), "-nodes", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("vantage: %v\n%s", err, out)
	}
	var r result
	select {
	case r = <-done:
	case <-time.After(time.Minute):
		t.Fatalf("collector did not finish (health %+v)", col.Health())
	}
	if r.err != nil {
		t.Fatal(r.err)
	}
	got, err := r.tr.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("vantage trace hash %x, in-process run %x", got[:8], want[:8])
	}
	if col.DeadInputs() != 0 {
		t.Fatalf("clean vantage run evicted %d inputs", col.DeadInputs())
	}
}
