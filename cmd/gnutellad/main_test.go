package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"

	"repro/internal/guid"
)

// buildGnutellad compiles the daemon binary once per test run.
func buildGnutellad(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gnutellad")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

var (
	listenRe  = regexp.MustCompile(`gnutellad listening on ([0-9.:]+)`)
	metricsRe = regexp.MustCompile(`metrics on http://([0-9.:]+)/metrics`)
)

// startDaemon launches the binary on ephemeral ports and scrapes the
// actual addresses off its log output.
func startDaemon(t *testing.T) (listenAddr, metricsAddr string) {
	t.Helper()
	bin := buildGnutellad(t)
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting daemon: %v", err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	sc := bufio.NewScanner(stderr)
	deadline := time.After(10 * time.Second)
	lines := make(chan string)
	go func() {
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	for listenAddr == "" || metricsAddr == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("daemon exited before announcing its addresses")
			}
			if m := listenRe.FindStringSubmatch(line); m != nil {
				listenAddr = m[1]
			}
			if m := metricsRe.FindStringSubmatch(line); m != nil {
				metricsAddr = m[1]
			}
		case <-deadline:
			t.Fatal("timed out waiting for daemon addresses")
		}
	}
	// Keep draining the log so the daemon never blocks on a full pipe.
	go func() {
		for range lines {
		}
	}()
	return listenAddr, metricsAddr
}

// TestCLIGnutelladServesQueriesAndMetrics is the daemon's end-to-end
// integration test: handshake over real TCP, a hop-1 keyword query, and
// the live metrics endpoint reporting what was ingested.
func TestCLIGnutelladServesQueriesAndMetrics(t *testing.T) {
	listenAddr, metricsAddr := startDaemon(t)

	peer, err := transport.Dial(listenAddr, transport.Options{
		UserAgent: "test-client/1.0",
		Ultrapeer: false,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	guids := guid.NewSource(42, 7)
	send := func(text string) {
		t.Helper()
		env := wire.Envelope{
			Header:  wire.Header{GUID: guids.Next(), Type: wire.TypeQuery, TTL: 6, Hops: 1},
			Payload: &wire.Query{SearchText: text},
		}
		if err := peer.Send(env); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	send("metallica one")
	send("one metallica") // same keyword set after canonicalization
	send("led zeppelin iv")
	if err := peer.Send(wire.NewEnvelope(guids.Next(), 1, &wire.Bye{Code: 200, Reason: "done"})); err != nil {
		t.Fatalf("bye: %v", err)
	}
	peer.Close()

	// Poll the online snapshot until the daemon has ingested the queries
	// and observed the session close.
	var snap struct {
		Sessions    uint64 `json:"sessions"`
		Queries     uint64 `json:"queries"`
		Distinct    int    `json:"distinct_keys"`
		TopKeywords []struct {
			Key   string `json:"Key"`
			Count uint64 `json:"Count"`
		} `json:"top_keywords"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("http://%s/online.json", metricsAddr))
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&snap)
			resp.Body.Close()
			if err == nil && snap.Queries >= 3 && snap.Sessions >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never reflected the traffic (last: %+v, err: %v)", snap, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if snap.Distinct != 2 {
		t.Errorf("distinct keyword sets = %d, want 2 (canonicalization collapses reorderings)", snap.Distinct)
	}
	if len(snap.TopKeywords) == 0 || snap.TopKeywords[0].Count != 2 {
		t.Errorf("top keyword entry should have count 2: %+v", snap.TopKeywords)
	}

	// /metrics is the Prometheus exposition of the same state.
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", metricsAddr))
	if err != nil {
		t.Fatalf("prometheus endpoint: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Errorf("/metrics content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE gnutellad_queries_hop1_total counter",
		"gnutellad_queries_hop1_total 3",
		"online_sessions 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// TestGnutelladMetricsHandler exercises the handler in-process: /metrics
// serves Prometheus text over the daemon registry, /online.json the
// online-characterization snapshot, and /metrics.json is gone.
func TestGnutelladMetricsHandler(t *testing.T) {
	d := newDaemon(nil, &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 6346})
	d.mConns.Inc()
	d.online.ObserveQuery(time.Second, "metallica one", false)
	srv := httptest.NewServer(d.metricsHandler(false))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentTypePrometheus {
		t.Fatalf("content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE gnutellad_conns_total counter",
		"gnutellad_conns_total 1",
		"online_queries 1",
		"# TYPE process_goroutines gauge",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, body)
		}
	}

	resp, err = http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/metrics.json status %d, want 404", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/online.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("online snapshot content type %q", ct)
	}
	var snap struct {
		Queries uint64 `json:"queries"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Queries != 1 {
		t.Fatalf("online snapshot queries = %d, want 1", snap.Queries)
	}
}

// TestCLIGnutelladRejectsBadLibrary: a missing library file is a clean
// startup failure, not a hang.
func TestCLIGnutelladRejectsBadLibrary(t *testing.T) {
	bin := buildGnutellad(t)
	out, err := exec.Command(bin, "-library", filepath.Join(t.TempDir(), "nope.txt")).CombinedOutput()
	if err == nil {
		t.Fatalf("expected failure, got success:\n%s", out)
	}
	if !regexp.MustCompile(`library:`).Match(out) {
		t.Errorf("error output missing library diagnostic:\n%s", out)
	}
}
