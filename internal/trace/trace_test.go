package trace

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleTrace() *Trace {
	return &Trace{
		Seed:  42,
		Scale: 0.05,
		Days:  40,
		Counts: MessageCounts{
			Ping: 100, Pong: 60, Query: 200, QueryHit: 5, Bye: 1, QueryHop1: 30,
		},
		Conns: []Conn{
			{ID: 0, Start: 0, End: 90 * time.Second, Addr: netip.MustParseAddr("66.1.2.3"),
				Ultrapeer: true, UserAgent: "LimeWire/3.8.10"},
			{ID: 1, Start: 5 * time.Second, End: 20 * time.Second, Addr: netip.MustParseAddr("80.1.1.1"),
				UserAgent: "Mutella/0.4.5", SilentClose: true},
		},
		Queries: []Query{
			{ConnID: 0, At: 10 * time.Second, Text: "blue song", TTL: 6, Hops: 1},
			{ConnID: 0, At: 30 * time.Second, SHA1: true, TTL: 6, Hops: 1},
		},
		Pongs: []Pong{
			{At: time.Second, Addr: netip.MustParseAddr("66.1.2.3"), SharedFiles: 12, Hops: 1},
			{At: 2 * time.Second, Addr: netip.MustParseAddr("220.1.2.3"), SharedFiles: 0, Hops: 4},
		},
		PongSampleRate: 1,
		Hits: []Hit{
			{At: 3 * time.Second, Addr: netip.MustParseAddr("212.9.9.9"), Hops: 3},
		},
		HitSampleRate: 0.5,
	}
}

func TestRoundTripBuffer(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip mismatch:\nwant %+v\ngot  %+v", tr, got)
	}
}

func TestRoundTripFile(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "t.trace")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("file round trip mismatch")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	_, err := Read(strings.NewReader("not a trace\nmore bytes"))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v", err)
	}
	_, err = Read(strings.NewReader(""))
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("empty: err = %v", err)
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); !os.IsNotExist(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestMessageCountsTotal(t *testing.T) {
	m := MessageCounts{Ping: 1, Pong: 2, Query: 3, QueryHit: 4, Push: 5, Bye: 6}
	if m.Total() != 21 {
		t.Fatalf("total = %d", m.Total())
	}
}

func TestConnDuration(t *testing.T) {
	c := Conn{Start: 10 * time.Second, End: 75 * time.Second}
	if c.Duration() != 65*time.Second {
		t.Fatalf("duration = %v", c.Duration())
	}
}

func TestQueriesPerConn(t *testing.T) {
	tr := sampleTrace()
	idx := tr.QueriesPerConn()
	if len(idx) != len(tr.Conns) {
		t.Fatalf("index has %d slots, want %d", len(idx), len(tr.Conns))
	}
	qs := idx[0]
	if len(qs) != 2 || qs[0].Text != "blue song" || !qs[1].SHA1 {
		t.Fatalf("conn 0 queries = %+v", qs)
	}
	if len(idx[1]) != 0 {
		t.Fatal("queryless connection should have no queries")
	}
}

func TestQueriesPerConnSparseIDs(t *testing.T) {
	// Imported traces may use arbitrary connection IDs; the positional
	// index must fall back to ID mapping, keep receive order, and drop
	// queries that reference no known connection.
	tr := &Trace{
		Conns: []Conn{{ID: 100}, {ID: 7}},
		Queries: []Query{
			{ConnID: 7, At: 1 * time.Second, Text: "a"},
			{ConnID: 100, At: 2 * time.Second, Text: "b"},
			{ConnID: 7, At: 3 * time.Second, Text: "c"},
			{ConnID: 999, At: 4 * time.Second, Text: "orphan"},
		},
	}
	idx := tr.QueriesPerConn()
	if len(idx[0]) != 1 || idx[0][0].Text != "b" {
		t.Fatalf("conn at position 0 (ID 100) queries = %+v", idx[0])
	}
	if len(idx[1]) != 2 || idx[1][0].Text != "a" || idx[1][1].Text != "c" {
		t.Fatalf("conn at position 1 (ID 7) queries = %+v", idx[1])
	}
}

func TestExportJSONL(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(tr.Conns)+len(tr.Queries) {
		t.Fatalf("got %d lines", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"conn"`) || !strings.Contains(lines[0], `"66.1.2.3"`) {
		t.Errorf("first line = %s", lines[0])
	}
	if !strings.Contains(lines[2], `"kind":"query"`) || !strings.Contains(lines[2], `"blue song"`) {
		t.Errorf("third line = %s", lines[2])
	}
}

func TestLargeTraceRoundTrip(t *testing.T) {
	tr := &Trace{Seed: 1, Scale: 1, Days: 1, PongSampleRate: 1, HitSampleRate: 1}
	for i := 0; i < 20000; i++ {
		tr.Conns = append(tr.Conns, Conn{
			ID:    uint64(i),
			Start: time.Duration(i) * time.Second,
			End:   time.Duration(i+90) * time.Second,
			Addr:  netip.AddrFrom4([4]byte{66, byte(i >> 8), byte(i), 1}),
		})
		if i%3 == 0 {
			tr.Queries = append(tr.Queries, Query{ConnID: uint64(i), At: time.Duration(i) * time.Second, Text: "q", Hops: 1})
		}
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Conns) != 20000 || len(got.Queries) != len(tr.Queries) {
		t.Fatalf("sizes: %d conns, %d queries", len(got.Conns), len(got.Queries))
	}
	if got.Conns[19999] != tr.Conns[19999] {
		t.Fatal("last conn mismatch")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := tr.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Every line decodes back, in order, to exactly the record's fields;
	// float seconds survive encoding/json's shortest round-trip form.
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	for i, c := range tr.Conns {
		want := jsonConn{"conn", c.ID, c.Start.Seconds(), c.End.Seconds(), c.Addr.String(), c.Ultrapeer, c.UserAgent, c.SilentClose}
		var got jsonConn
		if err := dec.Decode(&got); err != nil || got != want {
			t.Fatalf("conn line %d = %+v (%v), want %+v", i, got, err, want)
		}
	}
	for i, q := range tr.Queries {
		want := jsonQuery{"query", q.ConnID, q.At.Seconds(), q.Text, q.SHA1, q.TTL, q.Hops}
		var got jsonQuery
		if err := dec.Decode(&got); err != nil || got != want {
			t.Fatalf("query line %d = %+v (%v), want %+v", i, got, err, want)
		}
	}
	if dec.More() {
		t.Fatal("records past the conns and queries")
	}
}
