package ingest

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
)

// protoVersion is the ingest wire protocol version, the only one spoken:
// the collector closes any hello carrying another. Version 3 has the
// journal lane (frameJournal/frameJournalAck and the hello's
// Source/JournalTMs fields) and ends every input with frameBye.
const protoVersion = 3

// maxFrameLen bounds one frame's payload: a data frame carries at most
// maxFrameEvents session records, far under this; anything larger is a
// corrupt or hostile length prefix.
const maxFrameLen = 32 << 20

// maxFrameEvents caps events per data frame, mirroring the stream
// package's producer batch size so one frame is one Write of bounded
// size.
const maxFrameEvents = 256

type frameKind uint8

const (
	frameHello frameKind = iota + 1
	frameWelcome
	frameData
	frameAck
	frameJournal
	frameJournalAck
	// frameBye carries no payload: the emitter holds cumulative acks for
	// everything on both lanes and is closing for good.
	frameBye
)

// helloFrame opens a connection: which merger input this emitter feeds.
// Source names the emitter's lane in the fleet journal ("" lets the
// collector default to input<N>). JournalTMs is the emitter's own
// journal clock (obs.Journal.Now, milliseconds) sampled when the hello
// was written — the collector subtracts it from its own clock on
// receipt to estimate the per-input offset that rebases shipped journal
// lines onto the collector's time axis. Negative means the emitter has
// no journal to ship.
type helloFrame struct {
	Proto      int
	Input      int
	Source     string
	JournalTMs float64
}

// welcomeFrame answers a hello. Resume is the highest contiguous event
// seq the collector has applied for this input — the emitter retransmits
// everything after it and nothing at or before it. JournalResume is the
// same watermark for shipped journal lines; a fresh emitter process
// numbers its first line JournalResume+1, so a restarted vantage's lane
// continues where the dead process's last acked line left off. Evicted
// tells a late-returning emitter its input is already dead; there is no
// way back into the merge, so the emitter should stop.
type welcomeFrame struct {
	Resume        uint64
	JournalResume uint64
	Evicted       bool
}

// dataFrame carries a contiguous run of events: event i has sequence
// number FirstSeq+i.
type dataFrame struct {
	FirstSeq uint64
	Events   []stream.Event
}

// ackFrame acknowledges the highest contiguous seq applied. Cumulative:
// any ack covers every earlier seq, so lost or reordered acks are
// harmless. The same shape serves both event acks (frameAck) and
// journal-line acks (frameJournalAck) — the two sequence spaces are
// independent.
type ackFrame struct {
	Seq uint64
}

// journalFrame is the journal-shipping sidecar: a contiguous run of raw
// JSONL journal lines, line i carrying sequence number FirstSeq+i in
// the input's journal sequence space. Journal lines ride the same
// connection as event data and inherit the same fault-tolerance
// contract — sequence-numbered, cumulatively acked, retransmitted on
// reconnect, deduplicated and reordered at the collector.
type journalFrame struct {
	FirstSeq uint64
	Lines    [][]byte
}

// frame is the wire unit; the one pointer field matching Kind is set
// (none for a bye). Gob omits the nil ones.
type frame struct {
	Kind    frameKind
	Hello   *helloFrame
	Welcome *welcomeFrame
	Data    *dataFrame
	Ack     *ackFrame
	Journal *journalFrame
	JAck    *ackFrame
}

// newDataFrame and newJournalFrame build one lane's frame for a
// contiguous run whose first item carries seq first: the sendQueue
// frame builders.
func newDataFrame(first uint64, evs []stream.Event) *frame {
	return &frame{Kind: frameData, Data: &dataFrame{FirstSeq: first, Events: evs}}
}

func newJournalFrame(first uint64, lines [][]byte) *frame {
	return &frame{Kind: frameJournal, Journal: &journalFrame{FirstSeq: first, Lines: lines}}
}

// newAck builds lane's cumulative ack frame.
func newAck(lane int, seq uint64) *frame {
	if lane == laneJournal {
		return &frame{Kind: frameJournalAck, JAck: &ackFrame{Seq: seq}}
	}
	return &frame{Kind: frameAck, Ack: &ackFrame{Seq: seq}}
}

// encodeFrame renders f as one wire unit: 4-byte big-endian length
// prefix followed by the gob payload.
func encodeFrame(f *frame) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 0})
	if err := gob.NewEncoder(&buf).Encode(f); err != nil {
		return nil, fmt.Errorf("ingest: encode frame: %w", err)
	}
	b := buf.Bytes()
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b, nil
}

// decodeFrame decodes one payload with a fresh gob stream, so no
// decoder state survives between frames.
func decodeFrame(payload []byte) (*frame, error) {
	f := new(frame)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(f); err != nil {
		return nil, fmt.Errorf("ingest: decode frame: %w", err)
	}
	return f, nil
}

// writeFrame encodes f and delivers it with a single Write: length
// prefix and payload together, so a write-granular fault (drop, dup,
// reorder) acts on whole frames and never tears one except by killing
// the connection. enc, when non-nil, observes the encode time in
// seconds (the gob work alone, not the network write).
func writeFrame(w io.Writer, f *frame, enc *obs.Histogram) error {
	var start time.Time
	if enc != nil {
		start = time.Now()
	}
	b, err := encodeFrame(f)
	if enc != nil {
		enc.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// readFrame reads one length-prefixed frame and decodes it. dec, when
// non-nil, observes the decode time in seconds (the gob work alone, not
// the blocking network read).
func readFrame(r io.Reader, dec *obs.Histogram) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("ingest: frame length %d out of range", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	var start time.Time
	if dec != nil {
		start = time.Now()
	}
	f, err := decodeFrame(payload)
	if dec != nil {
		dec.Observe(time.Since(start).Seconds())
	}
	return f, err
}

// latencyBuckets is the shared bucket schema for the per-frame wall
// histograms: 10 µs to ~2.6 s, exponential.
func latencyBuckets() []float64 { return obs.ExpBuckets(1e-5, 4, 10) }
