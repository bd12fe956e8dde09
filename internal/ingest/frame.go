package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net/netip"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
)

// protoVersion is the ingest wire protocol version, the only one spoken:
// the collector closes any hello carrying another. Version 4 is the
// hand-written frame layout below; version 3, its gob-encoded
// predecessor, is refused like any other.
const protoVersion = 4

// maxFrameLen bounds one frame's payload: a data frame carries at most
// maxFrameEvents session records, far under this; anything larger is a
// corrupt or hostile length prefix.
const maxFrameLen = 32 << 20

// maxFrameEvents caps events per data frame, mirroring the stream
// package's producer batch size so one frame is one Write of bounded
// size.
const maxFrameEvents = 256

// readChunk is how far the payload buffer may grow ahead of the bytes
// that have arrived, so a length prefix claiming more than its peer sends
// costs at most this much memory.
const readChunk = 64 << 10

// errBadFrame marks a frame that is not a valid frame: a length prefix
// out of range, or a payload the codec refuses. I/O errors, including a
// payload cut short, are not bad frames.
var errBadFrame = errors.New("ingest: bad frame")

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

// frame is the wire unit. Exactly the one pointer field matching Kind is
// set (none for a bye): the codec writes only that one, and a decoded
// frame always has it.
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

// codec walks one frame in either direction: encoding appends each field
// to buf, decoding reads it from buf at off and stores it through the
// same pointer. Each layout is therefore written once (the methods
// below), and encoder and decoder cannot drift apart. Decoding is
// strict, so an accepted payload re-encodes to exactly its own bytes:
// varints must be minimal, bools 0 or 1, and every count must fit the
// bytes left before anything is allocated for it. The first error
// sticks, and every later step is a no-op.
type codec struct {
	dec bool
	buf []byte
	off int
	err error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", errBadFrame, fmt.Sprintf(format, args...))
	}
}

// take consumes the next n payload bytes; nil after an error.
func (c *codec) take(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if left := len(c.buf) - c.off; n > uint64(left) {
		c.fail("%d bytes wanted, %d left", n, left)
		return nil
	}
	b := c.buf[c.off : c.off+int(n)]
	c.off += int(n)
	return b
}

func (c *codec) uvarint(p *uint64) {
	if !c.dec {
		c.buf = binary.AppendUvarint(c.buf, *p)
		return
	}
	if c.err != nil {
		return
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 || n > 1 && c.buf[c.off+n-1] == 0 {
		c.fail("bad uvarint at offset %d", c.off)
		return
	}
	*p = v
	c.off += n
}

// uvar is an unsigned field as a uvarint.
func uvar[T ~uint8 | ~uint32 | ~uint64](c *codec, p *T) {
	v := uint64(*p)
	c.uvarint(&v)
	if uint64(T(v)) != v {
		c.fail("%d overflows its field", v)
	}
	*p = T(v)
}

// svar is a signed field as a zigzag uvarint, so small negatives (a
// JournalTMs of −1, a trace.Time before the epoch) stay one byte.
func svar[T ~int | ~int64](c *codec, p *T) {
	u := uint64(*p)<<1 ^ uint64(int64(*p)>>63)
	c.uvarint(&u)
	v := int64(u>>1) ^ -int64(u&1)
	if int64(T(v)) != v {
		c.fail("%d overflows int", v)
	}
	*p = T(v)
}

func (c *codec) bool(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	uvar(c, &v)
	if v > 1 {
		c.fail("bool %d", v)
	}
	*p = v == 1
}

// float is the raw IEEE bits, little-endian, so NaN payloads round-trip.
func (c *codec) float(p *float64) {
	if !c.dec {
		c.buf = binary.LittleEndian.AppendUint64(c.buf, math.Float64bits(*p))
	} else if b := c.take(8); b != nil {
		*p = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
}

// str is a length-prefixed string, copied out of the payload.
func (c *codec) str(p *string) {
	n := uint64(len(*p))
	c.uvarint(&n)
	if !c.dec {
		c.buf = append(c.buf, *p...)
	} else if b := c.take(n); b != nil {
		*p = string(b)
	}
}

// length is a slice length written as n+1, or 0 for a nil slice, so nil
// and empty both round-trip. Decoding refuses a length whose items, at
// least minItem encoded bytes each, cannot fit in the bytes left: a hostile
// count is an error before it is an allocation.
func (c *codec) length(n int, isNil bool, minItem int) (int, bool) {
	v := uint64(n) + 1
	if isNil {
		v = 0
	}
	c.uvarint(&v)
	if !c.dec {
		return n, isNil
	}
	if c.err != nil || v == 0 {
		return 0, true
	}
	if left := len(c.buf) - c.off; v-1 > uint64(left/minItem) {
		c.fail("%d items of at least %d bytes in %d bytes", v-1, minItem, left)
		return 0, true
	}
	return int(v - 1), false
}

// bytes is a length-prefixed byte slice, copied out of the payload.
func (c *codec) bytes(p *[]byte) {
	n, isNil := c.length(len(*p), *p == nil, 1)
	if !c.dec {
		c.buf = append(c.buf, *p...)
	} else if b := c.take(uint64(n)); b != nil && !isNil {
		*p = bytes.Clone(b)
	}
}

// slice walks a slice's length, then each item; minItem is an item's
// smallest encoding.
func slice[T any](c *codec, p *[]T, minItem int, item func(*codec, *T)) {
	n, isNil := c.length(len(*p), *p == nil, minItem)
	if c.dec && !isNil {
		*p = make([]T, n)
	}
	for i := range *p {
		item(c, &(*p)[i])
	}
}

// addr is netip.Addr's binary form, length-prefixed: 0 bytes for the
// zero Addr, 4 for IPv4, 16 plus the zone for IPv6.
func (c *codec) addr(p *netip.Addr) {
	var n uint64
	switch {
	case p.Is4():
		n = 4
	case p.Is6():
		n = 16 + uint64(len(p.Zone()))
	}
	c.uvarint(&n)
	if !c.dec {
		c.buf, _ = p.AppendBinary(c.buf) // never fails
	} else if b := c.take(n); b != nil {
		if err := p.UnmarshalBinary(b); err != nil {
			c.fail("address: %v", err)
		}
	}
}

// Presence flags of an encoded stream.Event: which optional parts follow.
// They record what is set, never what Kind implies.
const (
	hasSess = 1 << iota
	hasDone
	hasPong
	hasHit
	hasAll = hasSess | hasDone | hasPong | hasHit
)

// minEventLen is an event's smallest encoding: kind, flags, ID, Time.
const minEventLen = 4

func (c *codec) event(ev *stream.Event) {
	var flags uint8
	if !c.dec {
		flags = eventFlags(ev)
	}
	uvar(c, &ev.Kind)
	uvar(c, &flags)
	if flags&^hasAll != 0 {
		c.fail("event flags %#x", flags)
		return
	}
	uvar(c, &ev.ID)
	svar(c, &ev.Time)
	if flags&hasSess != 0 {
		c.session(part(c, &ev.Sess))
	}
	if flags&hasDone != 0 {
		c.end(part(c, &ev.Done))
	}
	if flags&hasPong != 0 {
		c.pong(&ev.Pong)
		if ev.Pong == (trace.Pong{}) {
			c.fail("zero pong flagged present")
		}
	}
	if flags&hasHit != 0 {
		c.hit(&ev.Hit)
		if ev.Hit == (trace.Hit{}) {
			c.fail("zero hit flagged present")
		}
	}
}

func eventFlags(ev *stream.Event) uint8 {
	var flags uint8
	if ev.Sess != nil {
		flags |= hasSess
	}
	if ev.Done != nil {
		flags |= hasDone
	}
	if ev.Pong != (trace.Pong{}) {
		flags |= hasPong
	}
	if ev.Hit != (trace.Hit{}) {
		flags |= hasHit
	}
	return flags
}

func (c *codec) session(s *stream.SessionRecord) {
	cn := &s.Conn
	uvar(c, &cn.ID)
	svar(c, &cn.Start)
	svar(c, &cn.End)
	c.addr(&cn.Addr)
	c.bool(&cn.Ultrapeer)
	c.str(&cn.UserAgent)
	c.bool(&cn.SilentClose)
	slice(c, &s.Queries, minQueryLen, (*codec).query)
}

// minQueryLen is a query's smallest encoding: one byte per field.
const minQueryLen = 7

func (c *codec) query(q *trace.Query) {
	uvar(c, &q.ConnID)
	svar(c, &q.At)
	c.str(&q.Text)
	c.bool(&q.SHA1)
	uvar(c, &q.TTL)
	uvar(c, &q.Hops)
	uvar(c, &q.Hits)
}

func (c *codec) pong(p *trace.Pong) {
	svar(c, &p.At)
	c.addr(&p.Addr)
	uvar(c, &p.SharedFiles)
	uvar(c, &p.Hops)
}

func (c *codec) hit(h *trace.Hit) {
	svar(c, &h.At)
	c.addr(&h.Addr)
	uvar(c, &h.Hops)
}

func (c *codec) end(e *stream.End) {
	m := &e.Counts
	for _, p := range [...]*uint64{&m.Ping, &m.Pong, &m.Query, &m.QueryHit, &m.Push, &m.Bye, &m.QueryHop1} {
		c.uvarint(p)
	}
	c.uvarint(&e.Seed)
	c.float(&e.Scale)
	svar(c, &e.Days)
	svar(c, &e.Nodes)
	c.float(&e.PongSampleRate)
	c.float(&e.HitSampleRate)
}

func (c *codec) frame(f *frame) {
	uvar(c, &f.Kind)
	switch f.Kind {
	case frameHello:
		h := part(c, &f.Hello)
		svar(c, &h.Proto)
		svar(c, &h.Input)
		c.str(&h.Source)
		c.float(&h.JournalTMs)
	case frameWelcome:
		w := part(c, &f.Welcome)
		c.uvarint(&w.Resume)
		c.uvarint(&w.JournalResume)
		c.bool(&w.Evicted)
	case frameData:
		d := part(c, &f.Data)
		c.uvarint(&d.FirstSeq)
		slice(c, &d.Events, minEventLen, (*codec).event)
	case frameAck:
		c.uvarint(&part(c, &f.Ack).Seq)
	case frameJournal:
		j := part(c, &f.Journal)
		c.uvarint(&j.FirstSeq)
		slice(c, &j.Lines, 1, (*codec).bytes)
	case frameJournalAck:
		c.uvarint(&part(c, &f.JAck).Seq)
	case frameBye:
	default:
		c.fail("unknown frame kind %d", f.Kind)
	}
}

// part returns the struct *p points to for the codec to walk, first
// allocating it when decoding.
func part[T any](c *codec, p **T) *T {
	if c.dec {
		*p = new(T)
	}
	return *p
}

// appendFrame appends f as one wire unit to dst: a 4-byte big-endian
// payload length, then the payload.
func appendFrame(dst []byte, f *frame) ([]byte, error) {
	c := codec{buf: append(dst, 0, 0, 0, 0)}
	c.frame(f)
	n := len(c.buf) - len(dst) - 4
	if c.err == nil && n > maxFrameLen {
		c.fail("payload of %d bytes", n)
	}
	if c.err != nil {
		return dst, c.err
	}
	binary.BigEndian.PutUint32(c.buf[len(dst):], uint32(n))
	return c.buf, nil
}

// decodeFrame decodes one payload. The frame it returns shares no memory
// with payload, and a payload with bytes left over is refused.
func decodeFrame(payload []byte) (*frame, error) {
	c := codec{dec: true, buf: payload}
	f := new(frame)
	c.frame(f)
	if c.err == nil && c.off != len(payload) {
		c.fail("%d trailing bytes", len(payload)-c.off)
	}
	if c.err != nil {
		return nil, c.err
	}
	return f, nil
}

// frameWriter encodes the frames of one writing goroutine into one
// buffer it reuses.
type frameWriter struct {
	enc *obs.Histogram // when non-nil, observes the encode time in seconds
	buf []byte
}

// write encodes f and delivers it with a single Write: length prefix
// and payload together, so a write-granular fault (drop, dup, reorder)
// acts on whole frames and never tears one except by killing the
// connection. The encode time excludes the network write.
func (fw *frameWriter) write(w io.Writer, f *frame) error {
	var start time.Time
	if fw.enc != nil {
		start = time.Now()
	}
	b, err := appendFrame(fw.buf[:0], f)
	if fw.enc != nil {
		fw.enc.Observe(time.Since(start).Seconds())
	}
	fw.buf = b
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// frameReader reads the frames of one reading goroutine into one
// payload buffer it reuses. The buffer grows only as payload bytes
// arrive, at most readChunk ahead of them, and decoded frames never
// alias it.
type frameReader struct {
	dec *obs.Histogram // when non-nil, observes the decode time in seconds
	hdr [4]byte
	buf []byte
}

// read reads one length-prefixed frame and decodes it. The decode time
// excludes the blocking network read.
func (fr *frameReader) read(r io.Reader) (*frame, error) {
	if _, err := io.ReadFull(r, fr.hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.hdr[:]))
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("%w: length %d out of range", errBadFrame, n)
	}
	b := fr.buf[:0]
	for len(b) < n {
		if len(b) == cap(b) {
			b = slices.Grow(b, min(n-len(b), max(len(b), readChunk)))
		}
		m, err := io.ReadFull(r, b[len(b):min(n, cap(b))])
		b = b[:len(b)+m]
		if err != nil {
			fr.buf = b
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	fr.buf = b
	var start time.Time
	if fr.dec != nil {
		start = time.Now()
	}
	f, err := decodeFrame(b)
	if fr.dec != nil {
		fr.dec.Observe(time.Since(start).Seconds())
	}
	return f, err
}

// latencyBuckets is the shared bucket schema for the per-frame wall
// histograms: 10 µs to ~2.6 s, exponential.
func latencyBuckets() []float64 { return obs.ExpBuckets(1e-5, 4, 10) }
