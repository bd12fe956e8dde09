package wire

import (
	"fmt"
	"io"

	"repro/internal/guid"
)

// Envelope pairs a descriptor header with its decoded payload — the unit
// the overlay routes and the measurement node records.
type Envelope struct {
	Header  Header
	Payload Message
}

// NewEnvelope builds an envelope for a freshly generated message, filling
// the header's type from the payload. PayloadLen is computed at encode
// time.
func NewEnvelope(g guid.GUID, ttl uint8, m Message) Envelope {
	return Envelope{
		Header:  Header{GUID: g, Type: m.Type(), TTL: ttl},
		Payload: m,
	}
}

// Forwarded returns a copy of the envelope with TTL decremented and hops
// incremented, as performed by every relaying servent. A TTL above the
// MaxTTL − Hops the limit leaves is clamped to it first, so the copy
// never carries TTL + Hops > MaxTTL. It reports false when the TTL is
// exhausted, or the hops have reached MaxTTL, and the message must not be
// forwarded.
func (e Envelope) Forwarded() (Envelope, bool) {
	if e.Header.Hops >= MaxTTL {
		return e, false
	}
	e.Header.TTL = min(e.Header.TTL, MaxTTL-e.Header.Hops)
	if e.Header.TTL <= 1 {
		return e, false
	}
	e.Header.TTL--
	e.Header.Hops++
	return e, true
}

// AppendEnvelope serializes header and payload onto dst, fixing up the
// header's payload-length field, and returns the extended slice.
func AppendEnvelope(dst []byte, e Envelope) []byte {
	start := len(dst)
	dst = AppendHeader(dst, e.Header)
	dst = e.Payload.AppendPayload(dst)
	plen := len(dst) - start - HeaderSize
	// Patch the little-endian length in place.
	dst[start+19] = byte(plen)
	dst[start+20] = byte(plen >> 8)
	dst[start+21] = byte(plen >> 16)
	dst[start+22] = byte(plen >> 24)
	return dst
}

// Parser decodes messages into a reusable set of payload structs, avoiding
// per-message allocation on hot paths (the decoding-layer pattern). The
// decoded Message returned by Parse and ReadMessage aliases the Parser's
// internal structs: it is valid only until the next call. Copy what must
// be retained.
type Parser struct {
	ping     Ping
	pong     Pong
	query    Query
	queryHit QueryHit
	push     Push
	bye      Bye
	buf      []byte
}

// Parse decodes one full message (header + payload) from buf. It returns
// the envelope and the number of bytes consumed. An incomplete buffer
// returns io.ErrShortBuffer with n = 0 so stream callers can wait for more
// data.
func (p *Parser) Parse(buf []byte) (Envelope, int, error) {
	var e Envelope
	if len(buf) < HeaderSize {
		return e, 0, io.ErrShortBuffer
	}
	if err := DecodeHeader(buf, &e.Header); err != nil {
		return e, 0, err
	}
	total := HeaderSize + int(e.Header.PayloadLen)
	if len(buf) < total {
		return e, 0, io.ErrShortBuffer
	}
	payload := buf[HeaderSize:total]
	m, err := p.decode(e.Header.Type, payload)
	if err != nil {
		return e, 0, err
	}
	e.Payload = m
	return e, total, nil
}

func (p *Parser) decode(t Type, payload []byte) (Message, error) {
	var m Message
	switch t {
	case TypePing:
		m = &p.ping
	case TypePong:
		m = &p.pong
	case TypeQuery:
		m = &p.query
	case TypeQueryHit:
		m = &p.queryHit
	case TypePush:
		m = &p.push
	case TypeBye:
		m = &p.bye
	default:
		return nil, fmt.Errorf("%w: %v", ErrBadType, t)
	}
	if err := m.DecodePayload(payload); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadMessage reads exactly one message from a stream. The returned
// envelope's payload aliases parser state, as with Parse.
func (p *Parser) ReadMessage(r io.Reader) (Envelope, error) {
	var e Envelope
	if cap(p.buf) < HeaderSize {
		p.buf = make([]byte, HeaderSize, 1024)
	}
	hdr := p.buf[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return e, err
	}
	if err := DecodeHeader(hdr, &e.Header); err != nil {
		return e, err
	}
	n := int(e.Header.PayloadLen)
	if cap(p.buf) < n {
		p.buf = make([]byte, n)
	}
	payload := p.buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return e, fmt.Errorf("%w: payload: %w", ErrShortPayload, err)
	}
	m, err := p.decode(e.Header.Type, payload)
	if err != nil {
		return e, err
	}
	e.Payload = m
	return e, nil
}

// WriteTo serializes the envelope to a stream using the given scratch
// buffer (which may be nil) and returns the scratch for reuse.
func WriteTo(w io.Writer, e Envelope, scratch []byte) ([]byte, error) {
	scratch = AppendEnvelope(scratch[:0], e)
	_, err := w.Write(scratch)
	return scratch, err
}

// Clone deep-copies an envelope so it can outlive the parser that decoded
// it.
func Clone(e Envelope) Envelope {
	switch m := e.Payload.(type) {
	case *Ping:
		e.Payload = &Ping{}
	case *Pong:
		cp := *m
		e.Payload = &cp
	case *Query:
		cp := *m
		cp.Extensions = append([]string(nil), m.Extensions...)
		e.Payload = &cp
	case *QueryHit:
		cp := *m
		cp.Results = append([]HitResult(nil), m.Results...)
		e.Payload = &cp
	case *Push:
		cp := *m
		e.Payload = &cp
	case *Bye:
		cp := *m
		e.Payload = &cp
	}
	return e
}
