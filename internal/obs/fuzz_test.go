package obs

import (
	"bytes"
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
		_ = WriteTimeline(io.Discard, bytes.NewReader(data), TimelineOptions{})
	})
}
