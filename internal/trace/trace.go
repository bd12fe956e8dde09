// Package trace defines the measurement trace: what the passive
// measurement ultrapeer records over its 40-day run. The design mirrors
// what the paper's modified mutella client logged — per-connection
// handshake metadata and session boundaries, full records for hop-1 QUERY
// messages (the only queries attributable to a specific peer), shared-file
// reports from PONG messages, and aggregate counters for the firehose of
// forwarded wider-network traffic (Table 1).
//
// Traces serialize to a gob-based binary format (WriteFile/ReadFile) and
// export to JSONL for external tooling.
package trace

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"os"
	"time"
)

// Time is simulated trace time (offset from the trace epoch); an alias of
// time.Duration, matching internal/simtime.
type Time = time.Duration

// MessageCounts aggregates every message the node received, by type —
// the raw material of Table 1.
type MessageCounts struct {
	Ping     uint64
	Pong     uint64
	Query    uint64 // all hops, including hop-1
	QueryHit uint64
	Push     uint64
	Bye      uint64
	// QueryHop1 counts QUERY messages with hop count 1 — the subset that
	// is individually recorded and analyzed.
	QueryHop1 uint64
}

// Total returns the total message count.
func (m MessageCounts) Total() uint64 {
	return m.Ping + m.Pong + m.Query + m.QueryHit + m.Push + m.Bye
}

// Add accumulates another vantage's counters — the one place the
// per-field summation lives, shared by the batch and streaming merges so
// a new counter field cannot diverge between them.
func (m *MessageCounts) Add(d MessageCounts) {
	m.Ping += d.Ping
	m.Pong += d.Pong
	m.Query += d.Query
	m.QueryHit += d.QueryHit
	m.Push += d.Push
	m.Bye += d.Bye
	m.QueryHop1 += d.QueryHop1
}

// Conn is one direct overlay connection (one peer session).
type Conn struct {
	// ID is the connection's dense index; query records refer to it.
	ID uint64
	// Start is when the Gnutella handshake completed.
	Start Time
	// End is when the node observed the connection end. For silently
	// abandoned sessions this overestimates the true end by the probe
	// timeout (≈30 s), exactly as in the paper's methodology.
	End Time
	// Addr is the peer's IPv4 address.
	Addr netip.Addr
	// Ultrapeer reports the peer's negotiated mode.
	Ultrapeer bool
	// UserAgent is the handshake User-Agent header.
	UserAgent string
	// SilentClose marks sessions that ended by probe timeout rather than
	// an observed TCP close.
	SilentClose bool
}

// Duration returns the recorded session duration.
func (c *Conn) Duration() time.Duration { return c.End - c.Start }

// Query is one hop-1 QUERY message, attributed to its connection.
type Query struct {
	// ConnID links to the Conn that sent the query.
	ConnID uint64
	// At is the receive time.
	At Time
	// Text is the raw search text (empty for SHA1 source hunts).
	Text string
	// SHA1 reports a urn:sha1 extension (filter rule 1).
	SHA1 bool
	// TTL and Hops are the descriptor header fields at receipt.
	TTL  uint8
	Hops uint8
	// Hits counts the QUERYHIT responses the node observed for this
	// query's GUID — the raw material of the hit-rate extension (the
	// paper's stated future work).
	Hits uint32
}

// Pong is a shared-library report. Hops==1 pongs come from direct peers
// (Figure 2's "1-hop peers" series); larger hop counts are remote peers
// observed through the overlay (the "all peers" series, and Figure 1's
// all-peer geographic mix).
type Pong struct {
	At          Time
	Addr        netip.Addr
	SharedFiles uint32
	Hops        uint8
}

// Hit is a QUERYHIT observation; remote hit sources contribute to the
// all-peer geographic mix of Figure 1.
type Hit struct {
	At   Time
	Addr netip.Addr
	Hops uint8
}

// Trace is a complete measurement run.
type Trace struct {
	// Seed and Scale document how the trace was produced; Days is the
	// measurement period length.
	Seed  uint64
	Scale float64
	Days  int
	// Nodes is the number of vantage points that contributed: 1 for a
	// single-ultrapeer capture, N for a merged multi-vantage fleet trace
	// (see Merge). Zero in traces written before the field existed and
	// means 1.
	Nodes int
	// Counts aggregates all received messages (Table 1).
	Counts MessageCounts
	// Conns holds every direct connection.
	Conns []Conn
	// Queries holds every hop-1 QUERY.
	Queries []Query
	// Pongs holds 1-hop pongs plus a sampled subset of remote pongs;
	// PongSampleRate is the sampling probability applied to remote pongs.
	Pongs          []Pong
	PongSampleRate float64
	// Hits holds a sampled subset of QUERYHIT observations with
	// HitSampleRate the sampling probability.
	Hits          []Hit
	HitSampleRate float64
}

// QueriesPerConn indexes the trace's queries by connection position: the
// i-th element holds Conns[i]'s queries in receive order (possibly nil).
// Simulated and merged traces use the dense ID convention (Conn.ID ==
// index), for which the index is built with direct addressing; imported
// traces with arbitrary IDs fall back to a map. Queries referencing no
// known connection are dropped. The hot consumers (filter, merge) use
// this positional form rather than a map keyed by connection ID: it
// allocates one slice header per connection instead of a hash table over
// millions of entries. Every connection's slice is a capacity-capped
// window of one shared array, so appending to one copies it out rather
// than overwrite its neighbour.
func (t *Trace) QueriesPerConn() [][]*Query {
	out := make([][]*Query, len(t.Conns))
	// Size each connection's window with a counting pass so the index
	// costs exactly two scans and one array.
	counts := make([]uint32, len(t.Conns))
	dense := true
	for i := range t.Conns {
		if t.Conns[i].ID != uint64(i) {
			dense = false
			break
		}
	}
	pos := func(id uint64) (int, bool) {
		if id < uint64(len(out)) {
			return int(id), true
		}
		return 0, false
	}
	if !dense {
		m := make(map[uint64]int, len(t.Conns))
		for i := range t.Conns {
			m[t.Conns[i].ID] = i
		}
		pos = func(id uint64) (int, bool) { p, ok := m[id]; return p, ok }
	}
	total := 0
	for i := range t.Queries {
		if p, ok := pos(t.Queries[i].ConnID); ok {
			counts[p]++
			total++
		}
	}
	all := make([]*Query, total)
	off := 0
	for i, c := range counts {
		if c > 0 {
			out[i] = all[off : off : off+int(c)]
			off += int(c)
		}
	}
	for i := range t.Queries {
		q := &t.Queries[i]
		if p, ok := pos(q.ConnID); ok {
			out[p] = append(out[p], q)
		}
	}
	return out
}

const magic = "p2pquery-trace/1"

// Hash returns the SHA-256 of the trace's canonical serialization (the
// Write format, which is deterministic: gob field order is fixed and the
// gzip layer uses fixed settings). Two traces hash equal iff Write would
// produce identical bytes — the cheap way to compare a streamed full-scale
// merge against the batch path without holding both in memory.
func (t *Trace) Hash() ([32]byte, error) {
	h := sha256.New()
	if err := t.Write(h); err != nil {
		return [32]byte{}, err
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// WriteFile stores the trace in the gzip-compressed gob format.
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.Write(f); err != nil {
		return err
	}
	return f.Close()
}

// Write streams the trace to w.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := io.WriteString(bw, magic+"\n"); err != nil {
		return err
	}
	zw := gzip.NewWriter(bw)
	enc := gob.NewEncoder(zw)
	if err := enc.Encode(wireTrace(t)); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return bw.Flush()
}

// ReadFile loads a trace written by WriteFile.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// ErrBadFormat reports a stream that is not a trace file.
var ErrBadFormat = errors.New("trace: not a trace file")

// Read parses a trace from r.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	line, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	if line != magic+"\n" {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadFormat, line)
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadFormat, err)
	}
	defer zr.Close()
	var wt traceWire
	if err := gob.NewDecoder(zr).Decode(&wt); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return unwireTrace(&wt), nil
}

// traceWire is the gob schema. netip.Addr is carried as 4 raw bytes to
// keep the format compact and stable.
type traceWire struct {
	Seed           uint64
	Scale          float64
	Days           int
	Nodes          int
	Counts         MessageCounts
	Conns          []connWire
	Queries        []Query
	Pongs          []pongWire
	PongSampleRate float64
	Hits           []hitWire
	HitSampleRate  float64
}

type connWire struct {
	ID          uint64
	Start, End  Time
	Addr        [4]byte
	Ultrapeer   bool
	UserAgent   string
	SilentClose bool
}

type pongWire struct {
	At          Time
	Addr        [4]byte
	SharedFiles uint32
	Hops        uint8
}

type hitWire struct {
	At   Time
	Addr [4]byte
	Hops uint8
}

func addr4(a netip.Addr) [4]byte {
	if a.Is4() {
		return a.As4()
	}
	return [4]byte{}
}

func wireTrace(t *Trace) *traceWire {
	wt := &traceWire{
		Seed: t.Seed, Scale: t.Scale, Days: t.Days, Nodes: t.Nodes, Counts: t.Counts,
		Queries:        t.Queries,
		PongSampleRate: t.PongSampleRate,
		HitSampleRate:  t.HitSampleRate,
	}
	wt.Conns = make([]connWire, len(t.Conns))
	for i, c := range t.Conns {
		wt.Conns[i] = connWire{
			ID: c.ID, Start: c.Start, End: c.End, Addr: addr4(c.Addr),
			Ultrapeer: c.Ultrapeer, UserAgent: c.UserAgent, SilentClose: c.SilentClose,
		}
	}
	wt.Pongs = make([]pongWire, len(t.Pongs))
	for i, p := range t.Pongs {
		wt.Pongs[i] = pongWire{At: p.At, Addr: addr4(p.Addr), SharedFiles: p.SharedFiles, Hops: p.Hops}
	}
	wt.Hits = make([]hitWire, len(t.Hits))
	for i, h := range t.Hits {
		wt.Hits[i] = hitWire{At: h.At, Addr: addr4(h.Addr), Hops: h.Hops}
	}
	return wt
}

func unwireTrace(wt *traceWire) *Trace {
	t := &Trace{
		Seed: wt.Seed, Scale: wt.Scale, Days: wt.Days, Nodes: wt.Nodes, Counts: wt.Counts,
		Queries:        wt.Queries,
		PongSampleRate: wt.PongSampleRate,
		HitSampleRate:  wt.HitSampleRate,
	}
	t.Conns = make([]Conn, len(wt.Conns))
	for i, c := range wt.Conns {
		t.Conns[i] = Conn{
			ID: c.ID, Start: c.Start, End: c.End, Addr: netip.AddrFrom4(c.Addr),
			Ultrapeer: c.Ultrapeer, UserAgent: c.UserAgent, SilentClose: c.SilentClose,
		}
	}
	t.Pongs = make([]Pong, len(wt.Pongs))
	for i, p := range wt.Pongs {
		t.Pongs[i] = Pong{At: p.At, Addr: netip.AddrFrom4(p.Addr), SharedFiles: p.SharedFiles, Hops: p.Hops}
	}
	t.Hits = make([]Hit, len(wt.Hits))
	for i, h := range wt.Hits {
		t.Hits[i] = Hit{At: h.At, Addr: netip.AddrFrom4(h.Addr), Hops: h.Hops}
	}
	return t
}

// jsonConn mirrors Conn for JSONL export with string addresses.
type jsonConn struct {
	Kind        string  `json:"kind"`
	ID          uint64  `json:"id"`
	StartSec    float64 `json:"start_sec"`
	EndSec      float64 `json:"end_sec"`
	Addr        string  `json:"addr"`
	Ultrapeer   bool    `json:"ultrapeer"`
	UserAgent   string  `json:"user_agent"`
	SilentClose bool    `json:"silent_close"`
}

type jsonQuery struct {
	Kind   string  `json:"kind"`
	ConnID uint64  `json:"conn_id"`
	AtSec  float64 `json:"at_sec"`
	Text   string  `json:"text"`
	SHA1   bool    `json:"sha1"`
	TTL    uint8   `json:"ttl"`
	Hops   uint8   `json:"hops"`
}

// ExportJSONL writes the trace's connections and hop-1 queries as JSON
// lines: one object per record, kind-discriminated.
func (t *Trace) ExportJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	enc := json.NewEncoder(bw)
	for i := range t.Conns {
		c := &t.Conns[i]
		rec := jsonConn{
			Kind: "conn", ID: c.ID,
			StartSec: c.Start.Seconds(), EndSec: c.End.Seconds(),
			Addr: c.Addr.String(), Ultrapeer: c.Ultrapeer,
			UserAgent: c.UserAgent, SilentClose: c.SilentClose,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	for i := range t.Queries {
		q := &t.Queries[i]
		rec := jsonQuery{
			Kind: "query", ConnID: q.ConnID, AtSec: q.At.Seconds(),
			Text: q.Text, SHA1: q.SHA1, TTL: q.TTL, Hops: q.Hops,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}
