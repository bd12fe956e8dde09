package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/netip"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
)

// protoVersion is the ingest wire protocol version, the only one spoken:
// the collector closes any hello carrying another. Version 5 is the
// hand-written frame layout below, with every time a delta from the
// frame's previous one; version 4 wrote each time whole, and version 3
// was gob-encoded. Both are refused like any other.
const protoVersion = 5

// maxFrameLen bounds one frame's payload: a data frame carries at most
// maxFrameEvents session records, far under this; anything larger is a
// corrupt or hostile length prefix.
const maxFrameLen = 32 << 20

// maxFrameEvents caps events per data frame, mirroring the stream
// package's producer batch size so one frame is one Write of bounded
// size.
const maxFrameEvents = 256

// readChunk is how far a frame reader's buffer may grow ahead of the
// bytes that have arrived, so a length prefix claiming more than its peer
// sends costs at most this much memory.
const readChunk = 64 << 10

// minReadBuf is the smallest buffer a frame reader reads ahead into: room
// for a burst of acks, or the start of a data frame, in one Read.
const minReadBuf = 512

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

// setData and setJournal fill p as one lane's frame for a contiguous run
// whose first item carries seq first, and return it: the sendQueue frame
// builders. A writer fills its own parts (frameWriter.out) for every
// frame it writes, so writing one allocates nothing; the frame is valid
// until p is filled again.
func (p *parts) setData(first uint64, evs []stream.Event) *frame {
	p.data = dataFrame{FirstSeq: first, Events: evs}
	p.f = frame{Kind: frameData, Data: &p.data}
	return &p.f
}

func (p *parts) setJournal(first uint64, lines [][]byte) *frame {
	p.journal = journalFrame{FirstSeq: first, Lines: lines}
	p.f = frame{Kind: frameJournal, Journal: &p.journal}
	return &p.f
}

// setAck fills p as lane's cumulative ack frame and returns it.
func (p *parts) setAck(lane int, seq uint64) *frame {
	if lane == laneJournal {
		p.jack = ackFrame{Seq: seq}
		p.f = frame{Kind: frameJournalAck, JAck: &p.jack}
	} else {
		p.ack = ackFrame{Seq: seq}
		p.f = frame{Kind: frameAck, Ack: &p.ack}
	}
	return &p.f
}

// codec walks one frame in either direction: encoding appends each field
// to buf, decoding reads it from buf at off and stores it through the
// same pointer. Each layout is therefore written once (the methods
// below), and encoder and decoder cannot drift apart. Encoding only reads
// through those pointers, so the frame it walks may be read by other
// goroutines at the same time: the emitter encodes the producer's own
// batches, which other consumers may be reading too. Decoding is
// strict, so an accepted payload re-encodes to exactly its own bytes:
// varints must be minimal, bools 0 or 1, and every count must fit the
// bytes left before anything is allocated for it. The first error
// sticks, and every later step is a no-op.
type codec struct {
	dec bool
	buf []byte
	off int
	err error
	// prev is the frame's previous time field: each time is coded as the
	// difference from it (see time).
	prev trace.Time
	// s is where decoding puts a data frame's session records, queries
	// and session strings until slabs.place moves them out.
	s *slabs
	// p holds the frame decoding returns and the parts it points at.
	p parts
}

// parts are a frame and the part values it can point at. A frame reader
// decodes every frame into the same ones, so a decoded frame and its part
// live until the reader decodes the next frame: its callers use each
// frame before reading another, and keep only what decoding allocates
// afresh (a data frame's events, a journal frame's lines, a trailer). A
// frame writer likewise fills its own for every frame it writes.
type parts struct {
	f       frame
	hello   helloFrame
	welcome welcomeFrame
	data    dataFrame
	ack     ackFrame
	journal journalFrame
	jack    ackFrame
}

// fail records the first error. It moves the decoding offset to the end,
// so the inlined fast path of uvarint finds nothing more to read.
func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s", errBadFrame, fmt.Sprintf(format, args...))
		c.off = len(c.buf)
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

// uvarint is an unsigned varint: the one-byte case inline, else the
// strict multi-byte path out of line. The hot field kinds (uvar, time,
// bool) spell these two lines out themselves, so their one-byte values
// cost no call at all.
func (c *codec) uvarint(p *uint64) {
	if !c.oneByte(p) {
		c.longUvarint(p)
	}
}

// oneByte codes *p when it is a one-byte uvarint, most fields of most
// frames, and reports whether it was. It inlines in both directions.
func (c *codec) oneByte(p *uint64) bool {
	if c.dec {
		if c.off < len(c.buf) && c.buf[c.off] < 0x80 {
			*p = uint64(c.buf[c.off])
			c.off++
			return true
		}
		return false
	}
	if *p < 0x80 {
		c.buf = append(c.buf, byte(*p))
		return true
	}
	return false
}

// longUvarint codes a uvarint of any length. A value under 2⁵⁶, eight
// bytes or fewer, moves through one 64-bit word without a loop, so its
// length costs no mispredicted branch; longer ones take encoding/binary's
// loop. Decoding refuses a non-minimal varint (a trailing zero byte), so
// the value re-encodes to the same bytes.
func (c *codec) longUvarint(p *uint64) {
	if !c.dec {
		v := *p
		if v >= 1<<56 {
			c.buf = binary.AppendUvarint(c.buf, v)
			return
		}
		n := (bits.Len64(v|1) + 6) / 7
		w := v&0x7f | v<<1&0x7f00 | v<<2&0x7f0000 | v<<3&0x7f000000 |
			v<<4&0x7f00000000 | v<<5&0x7f0000000000 | v<<6&0x7f000000000000 | v<<7&0x7f00000000000000
		w |= 0x8080808080808080 & (1<<(8*(n-1)) - 1)
		c.buf = binary.LittleEndian.AppendUint64(c.buf, w)[:len(c.buf)+n]
		return
	}
	if c.err != nil {
		return
	}
	if c.off+8 <= len(c.buf) {
		w := binary.LittleEndian.Uint64(c.buf[c.off:])
		if stop := ^w & 0x8080808080808080; stop != 0 {
			k := bits.TrailingZeros64(stop) // the top bit of the last byte
			if k > 7 && w>>(k-7)&0x7f == 0 {
				c.fail("bad uvarint at offset %d", c.off)
				return
			}
			w &= 1<<k - 1
			*p = w&0x7f | w>>1&0x3f80 | w>>2&0x1fc000 | w>>3&0xfe00000 |
				w>>4&0x7f0000000 | w>>5&0x3f800000000 | w>>6&0x1fc0000000000 | w>>7&0xfe000000000000
			c.off += k/8 + 1
			return
		}
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
	if !c.oneByte(&v) {
		c.longUvarint(&v)
	}
	if !c.dec {
		return
	}
	if uint64(T(v)) != v {
		c.fail("%d overflows its field", v)
	}
	*p = T(v)
}

// svar is a signed int as a zigzag uvarint, so small negatives (an End's
// Nodes of −1) stay one byte.
func svar(c *codec, p *int) {
	u := uint64(*p)<<1 ^ uint64(int64(*p)>>63)
	c.uvarint(&u)
	if !c.dec {
		return
	}
	v := int64(u>>1) ^ -int64(u&1)
	if int64(int(v)) != v {
		c.fail("%d overflows int", v)
	}
	*p = int(v)
}

// time is a trace.Time as the zigzag uvarint of its difference from the
// frame's previous time field: the times of one frame's events lie close
// together, and a pong's or hit's time, equal to its event's, takes one
// byte. The difference wraps like int64 arithmetic, so every uvarint
// decodes to exactly one time and back.
func (c *codec) time(p *trace.Time) {
	d := uint64(*p - c.prev)
	u := d<<1 ^ uint64(int64(d)>>63)
	if !c.oneByte(&u) {
		c.longUvarint(&u)
	}
	if c.dec {
		*p = c.prev + trace.Time(u>>1^-(u&1))
	}
	c.prev = *p
}

func (c *codec) bool(p *bool) {
	var v uint64
	if *p {
		v = 1
	}
	if !c.oneByte(&v) {
		c.longUvarint(&v)
	}
	if !c.dec {
		return
	}
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
// smallest encoding. Decoding fills the array *p already holds when it
// has room for the items, zeroed first, and allocates one otherwise.
func slice[T any](c *codec, p *[]T, minItem int, item func(*codec, *T)) {
	n, isNil := c.length(len(*p), *p == nil, minItem)
	if c.dec {
		switch {
		case isNil:
			*p = nil
		case n > 0 && n <= cap(*p):
			*p = (*p)[:n]
			clear(*p)
		default:
			*p = make([]T, n)
		}
	}
	for i := range *p {
		item(c, &(*p)[i])
	}
}

// addr is netip.Addr's binary form, length-prefixed: 0 bytes for the
// zero Addr, 4 for IPv4, 16 plus the zone for IPv6. IPv4, what vantages
// record, is coded in place; the rest goes through the netip methods.
func (c *codec) addr(p *netip.Addr) {
	if c.dec {
		if c.off+5 <= len(c.buf) && c.buf[c.off] == 4 {
			*p = netip.AddrFrom4([4]byte(c.buf[c.off+1 : c.off+5]))
			c.off += 5
			return
		}
	} else if p.Is4() {
		a := p.As4()
		c.buf = append(c.buf, 4, a[0], a[1], a[2], a[3])
		return
	}
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
	c.time(&ev.Time)
	if flags&hasSess != 0 {
		if c.dec {
			ev.Sess = c.s.session()
		}
		c.session(ev.Sess)
	}
	if flags&hasDone != 0 {
		if c.dec {
			ev.Done = new(stream.End)
		}
		c.end(ev.Done)
	}
	if flags&hasPong != 0 {
		c.pong(&ev.Pong)
		if !pongSet(&ev.Pong) {
			c.fail("zero pong flagged present")
		}
	}
	if flags&hasHit != 0 {
		c.hit(&ev.Hit)
		if !hitSet(&ev.Hit) {
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
	if pongSet(&ev.Pong) {
		flags |= hasPong
	}
	if hitSet(&ev.Hit) {
		flags |= hasHit
	}
	return flags
}

// pongSet and hitSet report whether an event's pong or hit part is set,
// that is not zero, field by field: comparing the structs whole costs a
// memequal call per event. TestFrameCodecCoversEveryField pins their
// field counts, so a new field is added here as well as to the codec.
func pongSet(p *trace.Pong) bool {
	return p.At != 0 || p.Addr.IsValid() || p.SharedFiles != 0 || p.Hops != 0
}

func hitSet(h *trace.Hit) bool { return h.At != 0 || h.Addr.IsValid() || h.Hops != 0 }

func (c *codec) session(s *stream.SessionRecord) {
	cn := &s.Conn
	uvar(c, &cn.ID)
	c.time(&cn.Start)
	c.time(&cn.End)
	c.addr(&cn.Addr)
	c.bool(&cn.Ultrapeer)
	c.sessionStr(&cn.UserAgent)
	c.bool(&cn.SilentClose)
	n, isNil := c.length(len(s.Queries), s.Queries == nil, minQueryLen)
	if c.dec && !isNil {
		s.Queries = c.s.queries(n)
	}
	for i := range s.Queries {
		c.query(&s.Queries[i])
	}
}

// sessionStr is a string of a session record, encoded as str. Decoding
// leaves it empty and keeps its bytes in the frame's scratch: slabs.place
// sets it, from the frame's one string arena.
func (c *codec) sessionStr(p *string) {
	if !c.dec {
		c.str(p)
		return
	}
	var n uint64
	c.uvarint(&n)
	if b := c.take(n); c.err == nil {
		c.s.str(b)
	}
}

// minQueryLen is a query's smallest encoding: one byte per field.
const minQueryLen = 7

func (c *codec) query(q *trace.Query) {
	uvar(c, &q.ConnID)
	c.time(&q.At)
	c.sessionStr(&q.Text)
	c.bool(&q.SHA1)
	uvar(c, &q.TTL)
	uvar(c, &q.Hops)
	uvar(c, &q.Hits)
}

func (c *codec) pong(p *trace.Pong) {
	c.time(&p.At)
	c.addr(&p.Addr)
	uvar(c, &p.SharedFiles)
	uvar(c, &p.Hops)
}

func (c *codec) hit(h *trace.Hit) {
	c.time(&h.At)
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
		h := own(c, &f.Hello, &c.p.hello)
		svar(c, &h.Proto)
		svar(c, &h.Input)
		c.str(&h.Source)
		c.float(&h.JournalTMs)
	case frameWelcome:
		w := own(c, &f.Welcome, &c.p.welcome)
		c.uvarint(&w.Resume)
		c.uvarint(&w.JournalResume)
		c.bool(&w.Evicted)
	case frameData:
		d := own(c, &f.Data, &c.p.data)
		c.uvarint(&d.FirstSeq)
		if c.dec {
			d.Events = c.s.events()
		}
		slice(c, &d.Events, minEventLen, (*codec).event)
	case frameAck:
		c.uvarint(&own(c, &f.Ack, &c.p.ack).Seq)
	case frameJournal:
		j := own(c, &f.Journal, &c.p.journal)
		c.uvarint(&j.FirstSeq)
		slice(c, &j.Lines, 1, (*codec).bytes)
	case frameJournalAck:
		c.uvarint(&own(c, &f.JAck, &c.p.jack).Seq)
	case frameBye:
	default:
		c.fail("unknown frame kind %d", f.Kind)
	}
}

// own points *p at v, zeroed, when decoding — a part the reader reuses
// (see parts) — and returns the struct *p points to.
func own[T any](c *codec, p **T, v *T) *T {
	if c.dec {
		var zero T
		*v = zero
		*p = v
	}
	return *p
}

// appendFrame appends f as one wire unit to dst: a 4-byte big-endian
// payload length, then the payload.
func (c *codec) appendFrame(dst []byte, f *frame) ([]byte, error) {
	c.dec, c.buf, c.off, c.err, c.prev, c.s = false, append(dst, 0, 0, 0, 0), 0, nil, 0, nil
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

// decodeFrame decodes one payload with a scratch of its own.
func decodeFrame(payload []byte) (*frame, error) { return new(slabs).decode(payload) }

// decode decodes one payload, using s as a data frame's scratch. The
// frame it returns and its part are s's own, valid until the next decode
// (see parts); the rest of it shares no memory with payload or s. A
// payload with bytes left over is refused.
func (s *slabs) decode(payload []byte) (*frame, error) {
	s.reset()
	c := &s.c
	c.dec, c.buf, c.off, c.err, c.prev, c.s = true, payload, 0, nil, 0, s
	f := &c.p.f
	*f = frame{}
	c.frame(f)
	if c.err == nil && c.off != len(payload) {
		c.fail("%d trailing bytes", len(payload)-c.off)
	}
	if c.err != nil {
		return nil, c.err
	}
	if f.Kind == frameData {
		s.place(f.Data.Events)
	}
	return f, nil
}

// slabs is a frame reader's scratch for the data frames it decodes, kept
// from frame to frame. The codec decodes a frame's session records, their
// queries and the bytes of their strings (user agents, query texts) into
// it; place then moves them into three allocations of exactly the decoded
// size: one []stream.SessionRecord, one []trace.Query that each session's
// Queries subslices, and one string arena holding only the frame's string
// bytes, so a retained query text pins no pong or hit. A data frame thus
// costs the same few allocations whatever it carries. Every scratch item
// is taken under a count already checked against the bytes left.
type slabs struct {
	c    codec // walks the payload being decoded
	sess []stream.SessionRecord
	qs   []trace.Query
	strs []byte // the session strings' bytes, in decode order
	lens []int  // the session strings' lengths, in decode order
	// spare holds event arrays the merge has handed back to the reader's
	// input (stream.Batch.Return); a data frame decodes into one when it
	// can. nil until the reader knows its input.
	spare <-chan []stream.Event
}

// events returns a spare event array for the next data frame, or nil.
func (s *slabs) events() []stream.Event {
	select {
	case evs := <-s.spare:
		return evs
	default:
		return nil
	}
}

func (s *slabs) reset() {
	s.sess, s.qs, s.strs, s.lens = s.sess[:0], s.qs[:0], s.strs[:0], s.lens[:0]
}

// session takes the next scratch record, zeroed.
func (s *slabs) session() *stream.SessionRecord {
	s.sess = append(grow(s.sess, 1), stream.SessionRecord{})
	return &s.sess[len(s.sess)-1]
}

// queries takes the next n scratch queries, zeroed. Like a record, they
// may end up in an array the scratch has since outgrown; place copies
// them out of wherever they are.
func (s *slabs) queries(n int) []trace.Query {
	if n == 0 {
		return []trace.Query{} // empty, not nil: nil is its own encoding
	}
	i := len(s.qs)
	s.qs = grow(s.qs, n)[:i+n]
	q := s.qs[i : i+n : i+n]
	clear(q)
	return q
}

func (s *slabs) str(b []byte) {
	s.strs = append(grow(s.strs, len(b)), b...)
	s.lens = append(grow(s.lens, 1), len(b))
}

// grow makes room for n more items in s, at least doubling its capacity
// when it must grow, so a scratch that grows item by item allocates
// O(log n) times and at most about twice its final size in all.
func grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		return slices.Grow(s, max(n, len(s)))
	}
	return s
}

// place moves the frame's session records out of the scratch into slabs
// of their own and points evs at them. evs are the frame's events: each
// Sess is a scratch record, possibly in an array the scratch has since
// outgrown, and they come in the order session took them. place sets the
// session strings in the order the codec decoded them: each record's
// UserAgent, then its queries' Texts.
func (s *slabs) place(evs []stream.Event) {
	if len(s.sess) == 0 {
		return
	}
	sess := make([]stream.SessionRecord, len(s.sess))
	qs := make([]trace.Query, len(s.qs))
	arena := string(s.strs)
	str, off := 0, 0
	next := func() string {
		n := s.lens[str]
		str++
		off += n
		return arena[off-n : off]
	}
	for i := range evs {
		if evs[i].Sess == nil {
			continue
		}
		rec := &sess[0]
		*rec, sess = *evs[i].Sess, sess[1:]
		evs[i].Sess = rec
		rec.Conn.UserAgent = next()
		if rec.Queries != nil {
			n := len(rec.Queries)
			q := qs[:n:n]
			copy(q, rec.Queries)
			rec.Queries, qs = q, qs[n:]
			for k := range q {
				q[k].Text = next()
			}
		}
	}
}

// frameWriter encodes the frames of one writing goroutine into one
// buffer it reuses, with one codec it reuses.
type frameWriter struct {
	enc *obs.Histogram // when non-nil, observes each frame's encode time in seconds
	buf []byte         // frames encoded and not yet written
	c   codec
	out parts // the frame its caller fills for each write (see setData)
}

// add encodes f after the frames already waiting in the buffer. A frame
// that fails to encode leaves the buffer as it was.
func (fw *frameWriter) add(f *frame) error {
	var start time.Time
	if fw.enc != nil {
		start = time.Now()
	}
	b, err := fw.c.appendFrame(fw.buf, f)
	if fw.enc != nil {
		fw.enc.Observe(time.Since(start).Seconds())
	}
	fw.buf = b
	return err
}

// flush delivers the frames added since the last flush, if any, with a
// single Write: whole frames, length prefixes and payloads together, so a
// write-granular fault (drop, dup, reorder) acts on whole frames and never
// tears one except by killing the connection.
func (fw *frameWriter) flush(w io.Writer) error {
	if len(fw.buf) == 0 {
		return nil
	}
	_, err := w.Write(fw.buf)
	fw.buf = fw.buf[:0]
	return err
}

// write encodes f and delivers it with a single Write. The encode time
// excludes the network write.
func (fw *frameWriter) write(w io.Writer, f *frame) error {
	if err := fw.add(f); err != nil {
		return err
	}
	return fw.flush(w)
}

// frameReader reads the frames of one connection into one buffer it
// reuses, and decodes them with one scratch it reuses. It reads ahead: a
// Read takes whatever has arrived, as far as the buffer reaches, so the
// frames that arrived together cost one Read, and the ones after the
// frame returned wait in the buffer for the next call. The buffer grows
// only as bytes arrive, at most readChunk ahead of them, and decoded
// frames alias neither it nor the scratch (see parts). One reader serves
// a connection for its whole life: bytes read ahead belong to it.
type frameReader struct {
	dec *obs.Histogram // when non-nil, observes the decode time in seconds
	// timeout, when positive, is the read deadline set on a connection
	// (an io.Reader with SetReadDeadline) before each Read. A frame
	// already in the buffer costs neither a Read nor a deadline.
	timeout time.Duration
	buf     []byte // its whole capacity; buf[r:w] arrived and is not yet decoded
	r, w    int
	s       slabs
}

// buffered reports whether a whole frame is in the buffer, so the next
// read returns it without a Read.
func (fr *frameReader) buffered() bool {
	n := fr.w - fr.r
	return n >= 4 && uint64(n-4) >= uint64(binary.BigEndian.Uint32(fr.buf[fr.r:]))
}

// read returns the next frame, decoded. The decode time excludes the
// blocking network read.
func (fr *frameReader) read(rd io.Reader) (*frame, error) {
	if err := fr.fill(rd, 4); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(fr.buf[fr.r:]))
	if n == 0 || n > maxFrameLen {
		return nil, fmt.Errorf("%w: length %d out of range", errBadFrame, n)
	}
	if err := fr.fill(rd, 4+n); err != nil {
		return nil, err
	}
	payload := fr.buf[fr.r+4 : fr.r+4+n]
	fr.r += 4 + n
	var start time.Time
	if fr.dec != nil {
		start = time.Now()
	}
	f, err := fr.s.decode(payload)
	if fr.dec != nil {
		fr.dec.Observe(time.Since(start).Seconds())
	}
	return f, err
}

// fill reads until need bytes from fr.r on have arrived. Input that ends
// inside a frame is io.ErrUnexpectedEOF; io.EOF means it ended between
// frames.
func (fr *frameReader) fill(rd io.Reader, need int) error {
	for fr.w-fr.r < need {
		if cap(fr.buf)-fr.r < need {
			fr.room(need)
		}
		if fr.timeout > 0 {
			if c, ok := rd.(interface{ SetReadDeadline(time.Time) error }); ok {
				_ = c.SetReadDeadline(time.Now().Add(fr.timeout))
			}
		}
		m, err := rd.Read(fr.buf[fr.w:])
		fr.w += m
		if err != nil && fr.w-fr.r < need {
			if err == io.EOF && fr.w > fr.r {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}

// room moves the bytes not yet decoded to the front of the buffer, and
// grows it when need of them would still not fit. A reader of small
// frames (acks, a welcome) keeps minReadBuf; one that meets a larger frame
// reads ahead by readChunk: its buffer grows to readChunk, or to need if
// that is more, but never more than readChunk (or the bytes' own length,
// if larger) past the bytes that have arrived. A length prefix claiming
// more than its peer sends thus costs memory only as its bytes arrive.
func (fr *frameReader) room(need int) {
	n := copy(fr.buf, fr.buf[fr.r:fr.w])
	fr.r, fr.w = 0, n
	if need <= cap(fr.buf) {
		return
	}
	size := min(max(need, readChunk), n+max(n, readChunk))
	if need <= minReadBuf {
		size = minReadBuf
	}
	fr.buf = slices.Grow(fr.buf[:n], size-n)
	fr.buf = fr.buf[:cap(fr.buf)]
}

// latencyBuckets is the shared bucket schema for the per-frame wall
// histograms: 10 µs to ~2.6 s, exponential.
func latencyBuckets() []float64 { return obs.ExpBuckets(1e-5, 4, 10) }
