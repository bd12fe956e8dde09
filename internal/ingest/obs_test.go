package ingest_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/stream"
)

// TestCollectorJournalStallEvictOrder pins the liveness narrative the
// journal tells for a vantage that dies mid-run: input_stalled (at
// StallAfter) strictly before input_evicted (at EvictAfter), both
// carrying the input index, with the stall/eviction counters agreeing.
func TestCollectorJournalStallEvictOrder(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	o := &obs.Observer{Metrics: reg, Journal: obs.NewJournal(&buf)}

	col, err := ingest.NewCollector(ingest.CollectorConfig{
		Inputs:     2,
		StallAfter: 50 * time.Millisecond,
		EvictAfter: 400 * time.Millisecond,
		Tick:       20 * time.Millisecond,
		Obs:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	trCh := runCollector(t, col)

	// Input 1 completes cleanly.
	e1 := ingest.NewEmitter(ingest.EmitterConfig{Addr: col.Addr(), Input: 1, Obs: o})
	e1done := make(chan error, 1)
	go func() { e1done <- e1.Run() }()
	feedBatches(e1.Intake(), 1, genStream(1, 10))
	close(e1.Intake())
	if err := <-e1done; err != nil {
		t.Fatalf("emitter 1: %v", err)
	}

	// Input 0 connects, delivers one open, then its process dies and
	// never returns.
	e0 := ingest.NewEmitter(ingest.EmitterConfig{Addr: col.Addr(), Input: 0, Obs: o})
	e0done := make(chan error, 1)
	go func() { e0done <- e0.Run() }()
	e0.Intake() <- stream.Batch{Events: []stream.Event{{Kind: stream.EvOpen, ID: 1, Time: time.Second}}}
	deadline := time.Now().Add(5 * time.Second)
	for col.Health().Inputs[0].AppliedSeq < 1 {
		if time.Now().After(deadline) {
			t.Fatal("collector never applied input 0's open")
		}
		time.Sleep(5 * time.Millisecond)
	}
	e0.Stop()
	<-e0done

	<-trCh
	if col.DeadInputs() != 1 {
		t.Fatalf("DeadInputs = %d, want 1", col.DeadInputs())
	}

	stalled, evicted := -1, -1
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	for i := 0; dec.More(); i++ {
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("journal line %d: %v", i, err)
		}
		if rec["kind"] != "event" {
			continue
		}
		attrs, _ := rec["attrs"].(map[string]any)
		if in, ok := attrs["input"].(float64); !ok || int(in) != 0 {
			continue
		}
		switch rec["name"] {
		case "input_stalled":
			if stalled < 0 {
				stalled = i
			}
		case "input_evicted":
			if evicted < 0 {
				evicted = i
			}
		}
	}
	if stalled < 0 || evicted < 0 {
		t.Fatalf("journal missing transitions: stalled line %d, evicted line %d\n%s", stalled, evicted, buf.String())
	}
	if stalled >= evicted {
		t.Fatalf("input_stalled (line %d) must precede input_evicted (line %d)", stalled, evicted)
	}
	if v := reg.Value("ingest_stalls_total", -1); v < 1 {
		t.Fatalf("ingest_stalls_total = %v, want >= 1", v)
	}
	if v := reg.Value("ingest_evictions_total", -1); v != 1 {
		t.Fatalf("ingest_evictions_total = %v, want 1", v)
	}
}
