// Package handshake implements the Gnutella v0.6 connection handshake: a
// three-way, HTTP-header-styled exchange
//
//	client:  GNUTELLA CONNECT/0.6\r\n<headers>\r\n
//	server:  GNUTELLA/0.6 200 OK\r\n<headers>\r\n
//	client:  GNUTELLA/0.6 200 OK\r\n<headers>\r\n
//
// The measurement study depends on one handshake header in particular:
// User-Agent, which identifies the client implementation and lets the
// filter attribute automated re-query behavior to specific software
// (Section 3.3 of the paper). X-Ultrapeer communicates peer mode, which
// Table 1 summarizes (≈40% ultrapeers, 60% leaves).
package handshake

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Protocol constants.
const (
	ConnectLine = "GNUTELLA CONNECT/0.6"
	okLine      = "GNUTELLA/0.6 200 OK"
	refuseLine  = "GNUTELLA/0.6 503 Service Unavailable"
)

// Well-known header names (canonical form).
const (
	HeaderUserAgent = "User-Agent"
	HeaderUltrapeer = "X-Ultrapeer"
	HeaderRemoteIP  = "Remote-IP"
	HeaderListenIP  = "Listen-IP"
)

// Errors returned by the handshake reader.
var (
	ErrBadRequest  = errors.New("handshake: malformed request line")
	ErrBadHeader   = errors.New("handshake: malformed header line")
	ErrRefused     = errors.New("handshake: remote refused connection")
	ErrHeadersSize = errors.New("handshake: headers exceed size limit")
)

// maxHeaderBytes bounds a header block; real clients send well under 1 KiB.
const maxHeaderBytes = 16 << 10

// Headers is an ordered, case-insensitive header collection. Order is
// preserved for faithful serialization; lookups canonicalize names.
type Headers struct {
	names  []string
	values map[string]string
}

// NewHeaders returns an empty header set.
func NewHeaders() *Headers {
	return &Headers{values: make(map[string]string)}
}

func canonical(name string) string {
	// HTTP-style canonicalization (Xxx-Yyy), applied to ASCII letters only:
	// header names are ASCII tokens on the wire, and byte-wise mapping keeps
	// the function idempotent even for garbage input.
	parts := strings.Split(strings.TrimSpace(name), "-")
	for i, p := range parts {
		b := []byte(p)
		for j := range b {
			if b[j] >= 'A' && b[j] <= 'Z' {
				b[j] += 'a' - 'A'
			}
		}
		if len(b) > 0 && b[0] >= 'a' && b[0] <= 'z' {
			b[0] -= 'a' - 'A'
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, "-")
}

// Set stores a header, replacing any prior value.
func (h *Headers) Set(name, value string) {
	c := canonical(name)
	if _, exists := h.values[c]; !exists {
		h.names = append(h.names, c)
	}
	h.values[c] = strings.TrimSpace(value)
}

// Get returns the header value, or "" when absent.
func (h *Headers) Get(name string) string {
	if h == nil || h.values == nil {
		return ""
	}
	return h.values[canonical(name)]
}

// Has reports whether the header is present.
func (h *Headers) Has(name string) bool {
	if h == nil || h.values == nil {
		return false
	}
	_, ok := h.values[canonical(name)]
	return ok
}

// Len returns the number of distinct headers.
func (h *Headers) Len() int { return len(h.names) }

// Names returns the header names in insertion order.
func (h *Headers) Names() []string {
	out := make([]string, len(h.names))
	copy(out, h.names)
	return out
}

// String renders the header block (without the trailing blank line), with
// headers in insertion order; useful in logs and tests.
func (h *Headers) String() string {
	var b strings.Builder
	for _, n := range h.names {
		fmt.Fprintf(&b, "%s: %s\r\n", n, h.values[n])
	}
	return b.String()
}

// sortedClone is used by tests that need deterministic comparison.
func (h *Headers) sortedClone() []string {
	out := make([]string, 0, len(h.names))
	for _, n := range h.names {
		out = append(out, n+": "+h.values[n])
	}
	sort.Strings(out)
	return out
}

// Request is the initiator's opening of the handshake.
type Request struct {
	Headers *Headers
}

// Response is either stage-two (acceptor) or stage-three (initiator ack).
type Response struct {
	Accept  bool
	Headers *Headers
}

// WriteRequest emits "GNUTELLA CONNECT/0.6" plus headers.
func WriteRequest(w io.Writer, req Request) error {
	return writeBlock(w, ConnectLine, req.Headers)
}

// WriteResponse emits the 200/503 status line plus headers.
func WriteResponse(w io.Writer, resp Response) error {
	line := okLine
	if !resp.Accept {
		line = refuseLine
	}
	return writeBlock(w, line, resp.Headers)
}

func writeBlock(w io.Writer, firstLine string, h *Headers) error {
	var b strings.Builder
	b.WriteString(firstLine)
	b.WriteString("\r\n")
	if h != nil {
		b.WriteString(h.String())
	}
	b.WriteString("\r\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// ReadRequest parses the initiator's connect block.
func ReadRequest(r *bufio.Reader) (Request, error) {
	line, err := readLine(r)
	if err != nil {
		return Request{}, err
	}
	if line != ConnectLine {
		return Request{}, fmt.Errorf("%w: %q", ErrBadRequest, line)
	}
	h, err := readHeaders(r)
	if err != nil {
		return Request{}, err
	}
	return Request{Headers: h}, nil
}

// ReadResponse parses a status block from either handshake stage.
func ReadResponse(r *bufio.Reader) (Response, error) {
	line, err := readLine(r)
	if err != nil {
		return Response{}, err
	}
	var accept bool
	switch {
	case strings.HasPrefix(line, "GNUTELLA/0.6 200"):
		accept = true
	case strings.HasPrefix(line, "GNUTELLA/0.6 "):
		accept = false
	default:
		return Response{}, fmt.Errorf("%w: %q", ErrBadRequest, line)
	}
	h, err := readHeaders(r)
	if err != nil {
		return Response{}, err
	}
	return Response{Accept: accept, Headers: h}, nil
}

func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

func readHeaders(r *bufio.Reader) (*Headers, error) {
	h := NewHeaders()
	total := 0
	for {
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return h, nil
		}
		total += len(line)
		if total > maxHeaderBytes {
			return nil, ErrHeadersSize
		}
		// A name that is blank once trimmed would serialize as ": value",
		// which this reader rejects, so it is malformed here too.
		colon := strings.IndexByte(line, ':')
		if colon < 0 || strings.TrimSpace(line[:colon]) == "" {
			return nil, fmt.Errorf("%w: %q", ErrBadHeader, line)
		}
		h.Set(line[:colon], line[colon+1:])
	}
}

// Info is the negotiated result of a completed handshake.
type Info struct {
	UserAgent string
	Ultrapeer bool
}

// infoFrom extracts the fields this system records from a header set.
func infoFrom(h *Headers) Info {
	return Info{
		UserAgent: h.Get(HeaderUserAgent),
		Ultrapeer: strings.EqualFold(h.Get(HeaderUltrapeer), "true"),
	}
}

// Initiate performs the initiator's side of the three-way handshake over
// rw: send CONNECT, read the acceptor's response, acknowledge. It returns
// the acceptor's negotiated info.
func Initiate(rw io.ReadWriter, local *Headers) (Info, error) {
	if err := WriteRequest(rw, Request{Headers: local}); err != nil {
		return Info{}, err
	}
	br := bufio.NewReader(rw)
	resp, err := ReadResponse(br)
	if err != nil {
		return Info{}, err
	}
	if !resp.Accept {
		return Info{}, ErrRefused
	}
	if err := WriteResponse(rw, Response{Accept: true, Headers: NewHeaders()}); err != nil {
		return Info{}, err
	}
	return infoFrom(resp.Headers), nil
}

// Accept performs the acceptor's side over an established buffered reader
// and writer: read CONNECT, respond with local headers, read the ack. It
// returns the initiator's negotiated info. The caller supplies the
// bufio.Reader so that bytes buffered beyond the handshake (pipelined
// Gnutella messages) are not lost.
func Accept(br *bufio.Reader, w io.Writer, local *Headers) (Info, error) {
	req, err := ReadRequest(br)
	if err != nil {
		return Info{}, err
	}
	if err := WriteResponse(w, Response{Accept: true, Headers: local}); err != nil {
		return Info{}, err
	}
	ack, err := ReadResponse(br)
	if err != nil {
		return Info{}, err
	}
	if !ack.Accept {
		return Info{}, ErrRefused
	}
	// Stage-three headers may refine stage-one; merge with stage-three
	// winning, matching deployed client behavior.
	merged := NewHeaders()
	for _, n := range req.Headers.names {
		merged.Set(n, req.Headers.values[n])
	}
	for _, n := range ack.Headers.names {
		merged.Set(n, ack.Headers.values[n])
	}
	return infoFrom(merged), nil
}

// Refuse rejects an incoming handshake with 503 after reading the request.
func Refuse(br *bufio.Reader, w io.Writer) error {
	if _, err := ReadRequest(br); err != nil {
		return err
	}
	return WriteResponse(w, Response{Accept: false, Headers: NewHeaders()})
}
