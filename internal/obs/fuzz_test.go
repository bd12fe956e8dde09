package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

// FuzzWriteTimeline: `analyze -timeline` feeds WriteTimeline whatever
// file it is given, so no input may panic it — a malformed journal is an
// error or a rendering, never a crash. The main seed is a real two-lane
// fleet journal: a vantage's spans, heartbeat and metrics ingested into a
// collector's lane beside the collector's own span and stall event.
func FuzzWriteTimeline(f *testing.F) {
	var vbuf bytes.Buffer
	v := NewJournal(&vbuf)
	sp := v.Begin("simulate", A("input", 0))
	v.Heartbeat()
	sp.End(A("conns", 12))
	r := NewRegistry()
	r.Counter("engine_arrivals_total", "").Add(12)
	v.Metrics(r)

	var fbuf bytes.Buffer
	fleet := NewJournal(&fbuf)
	fleet.SetSource("collector")
	cs := fleet.Begin("collect")
	for _, line := range bytes.Split(bytes.TrimSpace(vbuf.Bytes()), []byte("\n")) {
		if err := fleet.IngestLine(line, "vantage0", 1.5); err != nil {
			f.Fatal(err)
		}
	}
	fleet.Event("input_stalled", A("input", "vantage0"))
	cs.End()

	f.Add(fbuf.Bytes())
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = WriteTimeline(io.Discard, bytes.NewReader(data))
	})
}

// FuzzIngestLine: the collector hands IngestLine bytes a remote emitter
// shipped, so no line may panic it, and a line it accepts must land in the
// fleet journal as exactly one JSON object filed under the shipper's lane.
func FuzzIngestLine(f *testing.F) {
	f.Add([]byte(`{"kind":"event","t_ms":1.5,"name":"x","attrs":{"node":3}}`), 250.0)
	f.Add([]byte(`{"t_ms":"late","src":"spoofed"}`), 0.0)
	f.Add([]byte("null"), 0.0)
	f.Add([]byte("[]"), 0.0)
	f.Add([]byte("{not json"), 0.0)
	f.Fuzz(func(t *testing.T, line []byte, offsetMs float64) {
		var buf bytes.Buffer
		j := NewJournal(&buf)
		if err := j.IngestLine(line, "vantage0", offsetMs); err != nil {
			if buf.Len() != 0 {
				t.Fatalf("rejected line %q still wrote %q", line, buf.Bytes())
			}
			return
		}
		out := bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
		if bytes.Contains(out, []byte("\n")) {
			t.Fatalf("accepted line %q wrote more than one line: %q", line, buf.Bytes())
		}
		var m map[string]any
		if err := json.Unmarshal(out, &m); err != nil || m == nil {
			t.Fatalf("accepted line %q re-encoded as %q, not a JSON object (%v)", line, out, err)
		}
		if m["src"] != "vantage0" {
			t.Fatalf("accepted line %q filed under src %v", line, m["src"])
		}
	})
}
