package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func TestJournalSourceLane(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.SetSource("collector")
	j.Event("started")
	j.EventSrc("collector/vantage1", "input_stalled", A("input", "vantage1"))
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if !strings.Contains(lines[0], `"src":"collector"`) {
		t.Fatalf("default src not stamped: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"src":"collector/vantage1"`) {
		t.Fatalf("explicit src lane not stamped: %s", lines[1])
	}
}

func TestJournalIngestLineRebasesClock(t *testing.T) {
	// An emitter-side journal produces lines on its own clock; the
	// collector folds them in with an offset and a lane.
	var ebuf bytes.Buffer
	em := NewJournal(&ebuf)
	sp := em.Begin("simulate", A("node", 3))
	sp.End()

	var fbuf bytes.Buffer
	fleet := NewJournal(&fbuf)
	fleet.SetSource("collector")
	for _, line := range strings.Split(strings.TrimSpace(ebuf.String()), "\n") {
		if err := fleet.IngestLine([]byte(line), "vantage3", 250); err != nil {
			t.Fatal(err)
		}
	}
	var got []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(fbuf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad fleet line %q: %v", line, err)
		}
		got = append(got, m)
	}
	if len(got) != 2 {
		t.Fatalf("got %d fleet lines, want 2", len(got))
	}
	for i, m := range got {
		if m["src"] != "vantage3" {
			t.Fatalf("line %d src = %v", i, m["src"])
		}
		if tms := m["t_ms"].(float64); tms < 250 {
			t.Fatalf("line %d t_ms = %v, want >= offset 250", i, tms)
		}
	}
	if got[0]["kind"] != "span_start" || got[0]["name"] != "simulate" {
		t.Fatalf("span_start lost in shipping: %v", got[0])
	}
	if attrs := got[0]["attrs"].(map[string]any); attrs["node"] != float64(3) {
		t.Fatalf("attrs lost in shipping: %v", got[0])
	}
	if _, ok := got[1]["dur_ms"]; !ok {
		t.Fatalf("span_end dur_ms lost in shipping: %v", got[1])
	}
	if err := fleet.IngestLine([]byte("{not json"), "vantage3", 0); err == nil {
		t.Fatal("malformed shipped line accepted")
	}
	for _, line := range []string{"null", " null ", "[1]", `"x"`, "7"} {
		if err := fleet.IngestLine([]byte(line), "vantage3", 0); err == nil {
			t.Fatalf("non-object shipped line %q accepted", line)
		}
	}
}

func TestCanonicalGroupsLanes(t *testing.T) {
	// Two fleet journals whose lanes interleave differently (wall-clock
	// arrival order) but whose per-lane sequences match must be
	// Canonical-identical.
	mk := func(interleave bool) []string {
		var buf bytes.Buffer
		j := NewJournal(&buf)
		j.SetSource("collector")
		j.Event("a")
		if interleave {
			j.IngestLine([]byte(`{"kind":"event","t_ms":1,"name":"x"}`), "v0", 10)
			j.Event("b")
		} else {
			j.Event("b")
			j.IngestLine([]byte(`{"kind":"event","t_ms":1,"name":"x"}`), "v0", 99)
		}
		j.Heartbeat()
		lines, err := Canonical(&buf)
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}
	a, b := mk(true), mk(false)
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("canonical lengths %d, %d, want 3", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lane-grouped canonical mismatch at %d:\n%s\n%s", i, a[i], b[i])
		}
	}
	// Lanes sort by src: collector lines before v0.
	if !strings.Contains(a[0], `"src":"collector"`) || !strings.Contains(a[2], `"src":"v0"`) {
		t.Fatalf("lane ordering wrong: %v", a)
	}
}

func TestCanonicalDropsLatencyLines(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	r := NewRegistry()
	r.WallHistogram("ingest_ack_rtt_seconds", "", ExpBuckets(1e-4, 4, 6)).Observe(0.01)
	j.Event("ok")
	j.Latency(r)
	lines, err := Canonical(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], `"name":"ok"`) {
		t.Fatalf("latency line survived Canonical: %v", lines)
	}
}

func TestLatencyLineCarriesWallSamples(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	r := NewRegistry()
	r.WallHistogram("ingest_ack_rtt_seconds", "", ExpBuckets(1e-4, 4, 6)).Observe(0.25)
	r.Counter("engine_arrivals_total", "").Inc()
	j.Latency(r)
	var m struct {
		Kind    string             `json:"kind"`
		Samples map[string]float64 `json:"samples"`
	}
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.Kind != "latency" {
		t.Fatalf("kind = %q", m.Kind)
	}
	if m.Samples["ingest_ack_rtt_seconds_count"] != 1 || m.Samples["ingest_ack_rtt_seconds_sum"] != 0.25 {
		t.Fatalf("latency samples = %v", m.Samples)
	}
	if _, ok := m.Samples["engine_arrivals_total"]; ok {
		t.Fatal("deterministic counter leaked into latency line")
	}

	// No wall histograms registered → no latency line at all.
	var buf2 bytes.Buffer
	NewJournal(&buf2).Latency(NewRegistry())
	if buf2.Len() != 0 {
		t.Fatalf("empty latency snapshot wrote a line: %q", buf2.String())
	}
}

func TestWallHistogramExcludedFromSamples(t *testing.T) {
	r := NewRegistry()
	h := r.WallHistogram("frame_encode_seconds", "", ExpBuckets(1e-5, 10, 4))
	h.Observe(0.001)
	r.Counter("c_total", "").Inc()
	for _, s := range r.Samples() {
		if strings.HasPrefix(s.Name, "frame_encode_seconds") {
			t.Fatalf("wall histogram leaked into Samples: %v", s)
		}
	}
	ws := r.WallSamples()
	if len(ws) != 2 || ws[0].Name != "frame_encode_seconds_count" && ws[1].Name != "frame_encode_seconds_count" {
		t.Fatalf("WallSamples = %v", ws)
	}
	// Still present in the Prometheus exposition.
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "frame_encode_seconds_bucket") {
		t.Fatalf("wall histogram missing from exposition:\n%s", buf.String())
	}
	// Re-finding the family returns the same handle.
	if r.WallHistogram("frame_encode_seconds", "", nil).Count() != 1 {
		t.Fatal("WallHistogram re-lookup returned a fresh handle")
	}
}

func TestFamilyNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "")
	r.Gauge("a_gauge", "")
	r.WallHistogram("c_seconds", "", ExpBuckets(1e-4, 4, 3))
	got := r.FamilyNames()
	want := []string{"a_gauge", "b_total", "c_seconds"}
	if len(got) != len(want) {
		t.Fatalf("FamilyNames = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FamilyNames = %v, want %v", got, want)
		}
	}
	var nilReg *Registry
	if nilReg.FamilyNames() != nil {
		t.Fatal("nil registry FamilyNames not nil")
	}
}

// shortWriter writes at most one byte less than asked, returning nil
// error — an io.Writer contract violation the journal must latch.
type shortWriter struct{ n int }

func (w *shortWriter) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	w.n += len(p) - 1
	return len(p) - 1, nil
}

type failWriter struct{ err error }

func (w *failWriter) Write(p []byte) (int, error) { return 0, w.err }

func TestJournalShortWriteLatched(t *testing.T) {
	j := NewJournal(&shortWriter{})
	j.Event("x")
	if !errors.Is(j.Err(), io.ErrShortWrite) {
		t.Fatalf("Err() = %v, want io.ErrShortWrite", j.Err())
	}
	// Latched: later writes are suppressed, error sticks.
	j.Event("y")
	if !errors.Is(j.Err(), io.ErrShortWrite) {
		t.Fatalf("latched error replaced: %v", j.Err())
	}
	if err := j.IngestLine([]byte(`{"kind":"event"}`), "v", 0); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("IngestLine after latched error = %v", err)
	}
}

func TestJournalClosedWriterLatched(t *testing.T) {
	werr := errors.New("file already closed")
	j := NewJournal(&failWriter{err: werr})
	sp := j.Begin("phase")
	sp.End()
	if !errors.Is(j.Err(), werr) {
		t.Fatalf("Err() = %v, want %v", j.Err(), werr)
	}
	if err := j.IngestLine([]byte(`{"kind":"event","t_ms":1}`), "v", 0); !errors.Is(err, werr) {
		t.Fatalf("IngestLine = %v, want %v", err, werr)
	}
	// Short write on IngestLine's own path latches too.
	j2 := NewJournal(&shortWriter{})
	if err := j2.IngestLine([]byte(`{"kind":"event","t_ms":1}`), "v", 0); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("IngestLine short write = %v", err)
	}
}

func TestStartHeartbeatStopCeases(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	stop := StartHeartbeat(j, time.Millisecond, nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		j.mu.Lock()
		n := buf.Len()
		j.mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	j.mu.Lock()
	n := buf.Len()
	j.mu.Unlock()
	if n == 0 {
		t.Fatal("no heartbeat before stop")
	}
	// After stop returns, the goroutine may complete at most one
	// already-fired tick; wait it out, then require silence.
	time.Sleep(20 * time.Millisecond)
	j.mu.Lock()
	n = buf.Len()
	j.mu.Unlock()
	time.Sleep(50 * time.Millisecond)
	j.mu.Lock()
	after := buf.Len()
	j.mu.Unlock()
	if after != n {
		t.Fatalf("heartbeats kept flowing after stop: %d -> %d bytes", n, after)
	}
	stop() // idempotent
	if got := StartHeartbeat(nil, time.Millisecond, nil); got == nil {
		t.Fatal("nil journal StartHeartbeat returned nil stop")
	}
	if got := StartHeartbeat(j, 0, nil); got == nil {
		t.Fatal("non-positive interval StartHeartbeat returned nil stop")
	}
}

func TestTimeOrder(t *testing.T) {
	in := strings.Join([]string{
		`{"kind":"event","t_ms":5,"name":"late","src":"collector"}`,
		`{"kind":"event","t_ms":2,"name":"early","src":"v0"}`,
		`{"kind":"event","t_ms":5,"name":"tie","src":"v1"}`,
	}, "\n")
	got, err := TimeOrder(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d lines", len(got))
	}
	if !strings.Contains(got[0], "early") {
		t.Fatalf("not time-ordered: %v", got)
	}
	// Stable: equal t_ms keeps file order.
	if !strings.Contains(got[1], "late") || !strings.Contains(got[2], "tie") {
		t.Fatalf("tie order not stable: %v", got)
	}
}

func TestWriteTimeline(t *testing.T) {
	var ebuf bytes.Buffer
	em := NewJournal(&ebuf)
	sp := em.Begin("simulate", A("node", 0))
	em.Heartbeat()
	em.Heartbeat()
	sp.End()
	r := NewRegistry()
	r.Counter("engine_arrivals_total", "").Add(42)
	em.Metrics(r)

	var fbuf bytes.Buffer
	fleet := NewJournal(&fbuf)
	fleet.SetSource("collector")
	cs := fleet.Begin("collect")
	for _, line := range strings.Split(strings.TrimSpace(ebuf.String()), "\n") {
		if err := fleet.IngestLine([]byte(line), "vantage0", 1.5); err != nil {
			t.Fatal(err)
		}
	}
	fleet.EventSrc("collector/vantage0", "input_stalled", A("input", "vantage0"))
	cs.End()

	var out bytes.Buffer
	if err := WriteTimeline(&out, bytes.NewReader(fbuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{
		"3 lanes",
		"lane collector:",
		"lane collector/vantage0:",
		"lane vantage0:",
		"> simulate node=0",
		"< simulate dur=",
		"! input_stalled",
		"2 heartbeats",
		"metrics rollup:",
		"engine_arrivals_total = 42",
		"> collect",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("timeline missing %q:\n%s", want, s)
		}
	}

	var empty bytes.Buffer
	if err := WriteTimeline(&empty, strings.NewReader("")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(empty.String(), "empty journal") {
		t.Fatalf("empty journal render: %q", empty.String())
	}
}

func TestWriteTimelineGapAnnotation(t *testing.T) {
	in := strings.Join([]string{
		`{"kind":"event","t_ms":0,"name":"a"}`,
		`{"kind":"event","t_ms":5000,"name":"b"}`,
		`{"kind":"event","t_ms":5900,"name":"c"}`,
	}, "\n")
	var out bytes.Buffer
	if err := WriteTimeline(&out, strings.NewReader(in)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "~ gap 5.00s") {
		t.Fatalf("gap annotation missing:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "~ gap"); n != 1 {
		t.Fatalf("%d gap annotations, want 1 (a 900 ms silence is not a gap):\n%s", n, out.String())
	}
}
