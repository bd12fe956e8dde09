package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Journal records a machine-readable run timeline as JSONL: one line per
// span start/end, discrete event, heartbeat, or metrics snapshot. Times
// are monotonic-clock milliseconds since the journal was created (t_ms),
// so journals from different hosts and runs line up structurally; the
// Canonical helper strips them for determinism comparisons. All methods
// are safe for concurrent use and no-ops on a nil *Journal.
//
// A journal that aggregates lines from several processes (the fleet
// journal the ingest collector writes) distinguishes them by the src
// field: SetSource stamps the journal's own lines, EventSrc writes a
// single event into an explicit lane, and IngestLine folds a line
// shipped from another process in — with its t_ms rebased onto this
// journal's clock — so one file carries every process's timeline on one
// time axis.
type Journal struct {
	mu    sync.Mutex
	w     io.Writer
	start time.Time
	ids   uint64
	src   string
	err   error
}

// NewJournal starts a journal writing JSONL lines to w. Lines are written
// unbuffered (one Write per line) so a crash loses at most the line being
// written.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, start: time.Now()}
}

// Err reports the first write error, if any.
func (j *Journal) Err() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// SetSource sets the src lane stamped on every subsequent line. A
// single-process journal leaves it empty (the field is omitted); a
// journal that also ingests shipped lines from other processes names its
// own lane — "collector" — so the fleet journal keeps every process's
// lines attributable.
func (j *Journal) SetSource(src string) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.src = src
	j.mu.Unlock()
}

// Now returns the journal's monotonic clock: milliseconds since the
// journal was created, the same value stamped as t_ms on its lines. The
// ingest handshake samples it on both ends to compute the per-input
// clock offset that rebases shipped lines onto the collector's axis.
func (j *Journal) Now() float64 {
	if j == nil {
		return 0
	}
	return j.since()
}

// Attr is one key/value attribute attached to a journal line.
type Attr struct {
	Key   string
	Value any
}

// A is shorthand for constructing an Attr.
func A(key string, value any) Attr { return Attr{Key: key, Value: value} }

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// record is the wire shape of one journal line. encoding/json emits
// struct fields in declaration order and sorts map keys, so identical
// logical lines render byte-identically.
type record struct {
	Kind    string             `json:"kind"`
	TMs     float64            `json:"t_ms"`
	Src     string             `json:"src,omitempty"`
	ID      uint64             `json:"id,omitempty"`
	Parent  uint64             `json:"parent,omitempty"`
	Name    string             `json:"name,omitempty"`
	DurMs   float64            `json:"dur_ms,omitempty"`
	Attrs   map[string]any     `json:"attrs,omitempty"`
	Samples map[string]float64 `json:"samples,omitempty"`
}

func (j *Journal) write(rec record) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if rec.Src == "" {
		rec.Src = j.src
	}
	j.writeLocked(rec)
}

func (j *Journal) writeLocked(rec record) {
	if j.err != nil {
		return
	}
	b, err := json.Marshal(rec)
	if err != nil {
		j.err = err
		return
	}
	b = append(b, '\n')
	n, err := j.w.Write(b)
	if err == nil && n < len(b) {
		// A short write without an error violates the io.Writer contract;
		// latch it anyway — a truncated line would corrupt the JSONL
		// stream, so the journal must stop rather than keep appending
		// after a torn record.
		err = io.ErrShortWrite
	}
	if err != nil {
		j.err = err
	}
}

func (j *Journal) since() float64 {
	return float64(time.Since(j.start).Microseconds()) / 1000
}

func (j *Journal) nextID() uint64 {
	j.mu.Lock()
	j.ids++
	id := j.ids
	j.mu.Unlock()
	return id
}

// Span is one traced phase: a named interval with a parent, attributes at
// start and end, and a recorded duration. Obtain via Journal.Begin or
// Span.Child; a nil *Span (from a nil journal) no-ops.
type Span struct {
	j     *Journal
	id    uint64
	name  string
	start time.Time
}

// Begin opens a top-level span and writes its span_start line.
func (j *Journal) Begin(name string, attrs ...Attr) *Span {
	return j.span(0, name, attrs)
}

func (j *Journal) span(parent uint64, name string, attrs []Attr) *Span {
	if j == nil {
		return nil
	}
	s := &Span{j: j, id: j.nextID(), name: name, start: time.Now()}
	j.write(record{Kind: "span_start", TMs: j.since(), ID: s.id, Parent: parent, Name: name, Attrs: attrMap(attrs)})
	return s
}

// Child opens a sub-span whose parent is s.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.j.span(s.id, name, attrs)
}

// End closes the span, writing its span_end line with the measured
// duration and any final attributes.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	dur := float64(time.Since(s.start).Microseconds()) / 1000
	s.j.write(record{Kind: "span_end", TMs: s.j.since(), ID: s.id, Name: s.name, DurMs: dur, Attrs: attrMap(attrs)})
}

// Event writes a discrete (instant) event line.
func (j *Journal) Event(name string, attrs ...Attr) {
	if j == nil {
		return
	}
	j.write(record{Kind: "event", TMs: j.since(), Name: name, Attrs: attrMap(attrs)})
}

// EventSrc writes a discrete event into an explicit src lane, overriding
// the journal's default source. The ingest collector uses it to file
// per-input liveness transitions (input_stalled, input_evicted, …) under
// a per-input lane — "collector/<source>" — so each lane's line sequence
// stays a deterministic function of that one input's run, which is what
// makes the fleet journal's canonical form comparable across runs.
func (j *Journal) EventSrc(src, name string, attrs ...Attr) {
	if j == nil {
		return
	}
	j.write(record{Kind: "event", TMs: j.since(), Src: src, Name: name, Attrs: attrMap(attrs)})
}

// IngestLine folds one JSONL line shipped from another process's journal
// into this one: the line's t_ms (and nothing else time-like — dur_ms is
// a duration, not an instant) is rebased by offsetMs onto this journal's
// clock, its src is set to the shipper's lane, and the result is
// appended under the same mutex as local lines. The rebased line
// round-trips through a map, so its keys render in sorted order; the
// Canonical and timeline readers normalize the same way, making the two
// layouts compare equal. A line that is not one JSON object is an error.
func (j *Journal) IngestLine(line []byte, src string, offsetMs float64) error {
	if j == nil {
		return nil
	}
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		return fmt.Errorf("obs: ingest journal line: %w", err)
	}
	if m == nil {
		// json.Unmarshal decodes the literal null into a nil map.
		return fmt.Errorf("obs: ingest journal line: %.20q is not a JSON object", line)
	}
	if t, ok := m["t_ms"].(float64); ok {
		m["t_ms"] = t + offsetMs
	}
	m["src"] = src
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	n, err := j.w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		j.err = err
	}
	return err
}

// Heartbeat writes a periodic progress line.
func (j *Journal) Heartbeat(attrs ...Attr) {
	if j == nil {
		return
	}
	j.write(record{Kind: "heartbeat", TMs: j.since(), Attrs: attrMap(attrs)})
}

// Metrics snapshots the deterministic metric state of r (counters,
// gauges, histogram sums/counts — GaugeFuncs excluded) as one metrics
// line.
func (j *Journal) Metrics(r *Registry) {
	if j == nil || r == nil {
		return
	}
	samples := r.Samples()
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[s.Name] = s.Value
	}
	j.write(record{Kind: "metrics", TMs: j.since(), Samples: m})
}

// Latency snapshots the wall-clock histogram state of r (the families
// registered via Registry.WallHistogram: per-frame encode/decode time,
// ack round-trips) as one latency line. Wall histograms measure real
// elapsed time, so their values differ run to run; keeping them on a
// dedicated line kind — dropped by Canonical alongside heartbeats —
// lets the deterministic metrics snapshot stay byte-comparable while
// the journal still carries the measured latency distribution.
func (j *Journal) Latency(r *Registry) {
	if j == nil || r == nil {
		return
	}
	samples := r.WallSamples()
	if len(samples) == 0 {
		return
	}
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		m[s.Name] = s.Value
	}
	j.write(record{Kind: "latency", TMs: j.since(), Samples: m})
}

// StartHeartbeat emits a heartbeat line (and calls fn for its attributes)
// every interval until the returned stop function is called. A nil
// journal or non-positive interval yields a no-op stop. fn may be nil.
func StartHeartbeat(j *Journal, interval time.Duration, fn func() []Attr) (stop func()) {
	if j == nil || interval <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				var attrs []Attr
				if fn != nil {
					attrs = fn()
				}
				j.Heartbeat(attrs...)
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Canonical reads a JSONL journal and returns its lines normalized for
// determinism comparison: heartbeat and latency lines (wall-clock
// driven, their count and values vary run to run) are dropped, and the
// t_ms / dur_ms timestamps are stripped from the rest. For a fleet
// journal — lines carrying src lanes — the surviving lines are then
// stable-sorted by lane: within one lane the order is the producing
// process's own deterministic sequence, but the interleaving *across*
// lanes depends on wall-clock arrival, so per-lane grouping is the
// strongest canonical form a multi-process journal supports. A
// single-source journal (every src empty) is untouched by the sort.
// Span structure, per-lane ordering, ids, names, attributes and metric
// snapshot values all survive, so two Canonical journals of the same
// deterministic run compare equal line for line.
func Canonical(r io.Reader) ([]string, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	type laneLine struct {
		src  string
		line string
	}
	var lines []laneLine
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", ln, err)
		}
		if m["kind"] == "heartbeat" || m["kind"] == "latency" {
			continue
		}
		delete(m, "t_ms")
		delete(m, "dur_ms")
		src, _ := m["src"].(string)
		b, err := json.Marshal(m)
		if err != nil {
			return nil, err
		}
		lines = append(lines, laneLine{src: src, line: string(b)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(lines, func(i, k int) bool { return lines[i].src < lines[k].src })
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = l.line
	}
	return out, nil
}
