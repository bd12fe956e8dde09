// Package transport carries Gnutella messages over real network
// connections: the v0.6 handshake followed by framed binary messages.
// It backs the live measurement mode (cmd/gnutellad, around the
// internal/overlay routing engine), complementing the in-process
// simulation of internal/capture.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"syscall"
	"time"

	"repro/internal/handshake"
	"repro/internal/wire"
)

// Peer is one established Gnutella connection. Send and Recv are safe for
// one writer and one reader goroutine respectively.
type Peer struct {
	conn net.Conn
	br   *bufio.Reader
	info handshake.Info

	sendMu  sync.Mutex
	scratch []byte
	parser  wire.Parser
}

// Info returns the remote's negotiated handshake information.
func (p *Peer) Info() handshake.Info { return p.info }

// RemoteAddr returns the remote network address.
func (p *Peer) RemoteAddr() net.Addr { return p.conn.RemoteAddr() }

// Close tears down the connection.
func (p *Peer) Close() error { return p.conn.Close() }

// Send writes one message.
func (p *Peer) Send(env wire.Envelope) error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	var err error
	p.scratch, err = wire.WriteTo(p.conn, env, p.scratch)
	return err
}

// Recv reads the next message. The returned envelope is deep-copied and
// safe to retain.
func (p *Peer) Recv() (wire.Envelope, error) {
	env, err := p.parser.ReadMessage(p.br)
	if err != nil {
		return env, err
	}
	return wire.Clone(env), nil
}

// SetReadDeadline bounds the next Recv.
func (p *Peer) SetReadDeadline(t time.Time) error { return p.conn.SetReadDeadline(t) }

// Options configure the local end of a connection.
type Options struct {
	// UserAgent identifies this client in the handshake.
	UserAgent string
	// Ultrapeer advertises ultrapeer mode.
	Ultrapeer bool
	// HandshakeTimeout bounds the handshake exchange (default 10 s).
	HandshakeTimeout time.Duration
	// Retry, when Max > 0, makes Dial retry failed attempts (TCP connect
	// or handshake) with exponential backoff and full jitter. The zero
	// value keeps the historical single-attempt behavior.
	Retry Retry
}

// Retry is an exponential-backoff-with-full-jitter schedule: attempt k
// sleeps a uniform random duration in (0, min(Cap, Base·2^k)] before
// retrying. Full jitter (the AWS architecture-blog formulation) is what
// keeps a fleet of emitters reconnecting after a collector restart from
// hammering it in lockstep.
type Retry struct {
	// Max is how many retries follow the first failed attempt; 0 disables
	// retrying entirely.
	Max int
	// Base is the first attempt's backoff ceiling (default 100 ms).
	Base time.Duration
	// Cap bounds the exponential growth (default 5 s).
	Cap time.Duration
	// Seed fixes the jitter stream for deterministic tests; 0 draws from
	// the global generator.
	Seed uint64
}

// Backoff returns the sleep before retry attempt (0-based), jittered.
func (r Retry) Backoff(attempt int, rng *rand.Rand) time.Duration {
	base := r.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	ceil := r.Cap
	if ceil <= 0 {
		ceil = 5 * time.Second
	}
	d := base << uint(attempt)
	if d <= 0 || d > ceil { // <<-overflow lands negative or zero
		d = ceil
	}
	var f float64
	if rng != nil {
		f = rng.Float64()
	} else {
		f = rand.Float64()
	}
	return time.Duration(f * float64(d))
}

// rng returns the jitter stream: seeded and private when Seed is set (so
// tests and emulation runs reproduce their schedules), nil for the global
// generator otherwise.
func (r Retry) rng() *rand.Rand {
	if r.Seed == 0 {
		return nil
	}
	return rand.New(rand.NewPCG(r.Seed, 0x9e3779b97f4a7c15))
}

func (o Options) headers() *handshake.Headers {
	h := handshake.NewHeaders()
	ua := o.UserAgent
	if ua == "" {
		ua = "repro-p2pquery/1.0"
	}
	h.Set(handshake.HeaderUserAgent, ua)
	if o.Ultrapeer {
		h.Set(handshake.HeaderUltrapeer, "True")
	} else {
		h.Set(handshake.HeaderUltrapeer, "False")
	}
	return h
}

func (o Options) timeout() time.Duration {
	if o.HandshakeTimeout > 0 {
		return o.HandshakeTimeout
	}
	return 10 * time.Second
}

// Dial connects to a Gnutella node and performs the initiator handshake.
// With Options.Retry.Max > 0, failed attempts — refused connects and
// failed handshakes alike — are retried on the Retry schedule; the last
// attempt's error is returned when the budget runs out.
func Dial(addr string, opts Options) (*Peer, error) {
	rng := opts.Retry.rng()
	var err error
	for attempt := 0; ; attempt++ {
		var conn net.Conn
		conn, err = net.DialTimeout("tcp", addr, opts.timeout())
		if err == nil {
			var peer *Peer
			peer, err = Client(conn, opts)
			if err == nil {
				return peer, nil
			}
		}
		if attempt >= opts.Retry.Max {
			return nil, err
		}
		time.Sleep(opts.Retry.Backoff(attempt, rng))
	}
}

// Client performs the initiator handshake over an existing connection.
func Client(conn net.Conn, opts Options) (*Peer, error) {
	deadline := time.Now().Add(opts.timeout())
	_ = conn.SetDeadline(deadline)
	// Initiate buffers its own reads, but no post-handshake bytes can be
	// lost: the acceptor must not send messages until it has read our
	// stage-three acknowledgement, and we only write that after Initiate's
	// final read.
	info, err := handshake.Initiate(conn, opts.headers())
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	return &Peer{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), info: info}, nil
}

// Server performs the acceptor handshake over an accepted connection.
func Server(conn net.Conn, opts Options) (*Peer, error) {
	deadline := time.Now().Add(opts.timeout())
	_ = conn.SetDeadline(deadline)
	br := bufio.NewReaderSize(conn, 64<<10)
	info, err := handshake.Accept(br, conn, opts.headers())
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	_ = conn.SetDeadline(time.Time{})
	return &Peer{conn: conn, br: br, info: info}, nil
}

// Listener accepts Gnutella connections.
type Listener struct {
	l    net.Listener
	opts Options
}

// Listen starts a Gnutella listener on the address.
func Listen(addr string, opts Options) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{l: l, opts: opts}, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() net.Addr { return l.l.Addr() }

// ErrPeerRejected wraps errors scoped to one accepted connection (a
// failed or malformed handshake): the listener itself is healthy and the
// accept loop should simply move on to the next peer — neither backing
// off nor exiting. Test with errors.Is.
var ErrPeerRejected = errors.New("transport: peer rejected")

// Accept waits for the next peer and completes its handshake. Handshake
// failures are wrapped in ErrPeerRejected; any other error came from the
// listener itself (classify with AcceptBackoff).
func (l *Listener) Accept() (*Peer, error) {
	conn, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	peer, err := Server(conn, l.opts)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrPeerRejected, err)
	}
	return peer, nil
}

// Close stops the listener.
func (l *Listener) Close() error { return l.l.Close() }

// AcceptBackoff classifies accept-loop errors and paces the retries, the
// pattern net/http.Server uses: transient resource exhaustion (EMFILE,
// ENFILE, ENOBUFS, ENOMEM, ECONNABORTED, timeouts) is retried with a
// doubling delay capped at one second, anything else — a closed listener
// above all — is permanent and the loop must exit instead of spinning on
// the same error forever. The zero value is ready to use; call Reset
// after every successful accept.
type AcceptBackoff struct {
	delay time.Duration
}

// Next reports whether the accept loop should retry after err, and the
// delay to sleep first. Per-connection errors (ErrPeerRejected) retry
// immediately; temporary listener errors back off; permanent ones return
// retry == false.
func (b *AcceptBackoff) Next(err error) (delay time.Duration, retry bool) {
	if errors.Is(err, ErrPeerRejected) {
		return 0, true
	}
	if !temporaryAcceptErr(err) {
		return 0, false
	}
	if b.delay == 0 {
		b.delay = 5 * time.Millisecond
	} else if b.delay *= 2; b.delay > time.Second {
		b.delay = time.Second
	}
	return b.delay, true
}

// Reset clears the backoff after a successful accept.
func (b *AcceptBackoff) Reset() { b.delay = 0 }

func temporaryAcceptErr(err error) bool {
	if errors.Is(err, net.ErrClosed) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	for _, errno := range []syscall.Errno{
		syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.ENOMEM, syscall.ECONNABORTED, syscall.EINTR,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}
