// Package faultnet injects network faults at the net.Conn level from a
// deterministic, seeded schedule: connection drops (torn mid-write, then
// dead), delivery delays, duplication and reordering of whole writes,
// and dial-time partition windows. It exists so the distributed ingest
// layer (internal/ingest) can be tested — and CI-gated — under the
// failure modes a real multi-machine capture fleet lives with: the
// byte-identity contract must hold under *any* injected schedule, and
// the seed makes a failing schedule reproducible.
//
// Faults are decided per write from a per-connection PCG stream derived
// from Config.Seed and the connection's accept/dial ordinal, so the fault
// decision sequence is a pure function of (seed, conn index, write
// index). Wall-clock effects (how a delay interleaves with the peer) stay
// OS-scheduled, which is exactly the point: the protocol layer above must
// be correct under every interleaving, and the determinism is for
// reproducing the decisions, not the timing.
//
// Duplication and reordering operate on whole Write calls. Protocols that
// write only whole frames in each Write (internal/ingest does) therefore
// see duplicated and swapped frames — the retransmit/dedupe layer's job —
// while torn frames only ever come from drops, which also kill the
// connection, exactly like a mid-segment link failure.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected marks every failure this package fabricates, so tests and
// logs can tell injected faults from real ones.
var ErrInjected = errors.New("faultnet: injected fault")

// Window is a half-open wall-clock interval, offset from the injector's
// creation, during which dials fail (a network partition).
type Window struct {
	From, To time.Duration
}

// Config is the fault schedule. Probabilities are per Write and are
// evaluated as a cascade in the field order below — at most one fault
// applies to any single write. The zero value injects nothing.
type Config struct {
	// Seed derives every connection's fault stream. Two injectors with
	// the same seed make the same decisions in the same conn/write order.
	Seed uint64

	// DropProb kills the connection mid-write: an arbitrary prefix of the
	// write is delivered, the conn is closed, and every later operation
	// fails. The layer above recovers by reconnecting.
	DropProb float64
	// DupProb delivers the write twice, back to back.
	DupProb float64
	// ReorderProb holds the write back and delivers it after the next
	// one, swapping two adjacent writes. Close flushes a held write, so
	// reordering never silently discards the stream's tail.
	ReorderProb float64
	// DelayProb sleeps a uniform duration in (0, DelayMax] before
	// delivering the write (DelayMax defaults to 50 ms).
	DelayProb float64
	DelayMax  time.Duration

	// Partitions are dial-time outage windows, relative to New.
	Partitions []Window
}

// Injector hands out fault-wrapped conns, dialers and listeners for one
// schedule.
type Injector struct {
	cfg   Config
	epoch time.Time
	next  atomic.Uint64 // connection ordinal
}

// New builds an injector; partition windows start counting now.
func New(cfg Config) *Injector {
	if cfg.DelayMax <= 0 {
		cfg.DelayMax = 50 * time.Millisecond
	}
	return &Injector{cfg: cfg, epoch: time.Now()}
}

// DialFunc matches the dialer shape internal/ingest takes.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// Dial wraps a dialer: during a partition window the dial itself fails;
// outside one, the resulting conn carries the injector's write/read
// faults.
func (j *Injector) Dial(dial DialFunc) DialFunc {
	return func(addr string, timeout time.Duration) (net.Conn, error) {
		if w, ok := j.partitioned(); ok {
			return nil, fmt.Errorf("%w: partitioned until %v", ErrInjected, w.To)
		}
		c, err := dial(addr, timeout)
		if err != nil {
			return nil, err
		}
		return j.Wrap(c), nil
	}
}

func (j *Injector) partitioned() (Window, bool) {
	elapsed := time.Since(j.epoch)
	for _, w := range j.cfg.Partitions {
		if elapsed >= w.From && elapsed < w.To {
			return w, true
		}
	}
	return Window{}, false
}

// Listener wraps a listener so every accepted conn carries the faults.
func (j *Injector) Listener(l net.Listener) net.Listener {
	return &listener{Listener: l, j: j}
}

type listener struct {
	net.Listener
	j *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.j.Wrap(c), nil
}

// Wrap returns conn with this injector's fault schedule applied. Each
// wrapped conn draws its own decision stream, derived from the seed and
// the conn's ordinal.
func (j *Injector) Wrap(c net.Conn) net.Conn {
	ord := j.next.Add(1)
	return &conn{
		Conn: c,
		cfg:  &j.cfg,
		rng:  rand.New(rand.NewPCG(j.cfg.Seed, ord)),
	}
}

type conn struct {
	net.Conn
	cfg *Config
	rng *rand.Rand

	mu   sync.Mutex
	held []byte // write held back by a reorder fault
	dead bool
}

func (c *conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, fmt.Errorf("%w: conn dropped", ErrInjected)
	}
	if c.held != nil {
		// Complete the pending swap: this write goes first, the held one
		// right after it.
		held := c.held
		c.held = nil
		if n, err := c.Conn.Write(p); err != nil {
			return n, err
		}
		if _, err := c.Conn.Write(held); err != nil {
			return len(p), err
		}
		return len(p), nil
	}
	r := c.rng.Float64()
	switch cfg := c.cfg; {
	case r < cfg.DropProb:
		// Torn delivery: a random prefix makes it out, then the conn dies.
		torn := 0
		if len(p) > 1 {
			torn = c.rng.IntN(len(p))
		}
		if torn > 0 {
			_, _ = c.Conn.Write(p[:torn])
		}
		c.dead = true
		_ = c.Conn.Close()
		return torn, fmt.Errorf("%w: conn dropped mid-write", ErrInjected)
	case r < cfg.DropProb+cfg.DupProb:
		if n, err := c.Conn.Write(p); err != nil {
			return n, err
		}
		_, err := c.Conn.Write(p)
		return len(p), err
	case r < cfg.DropProb+cfg.DupProb+cfg.ReorderProb:
		c.held = append([]byte(nil), p...)
		return len(p), nil
	case r < cfg.DropProb+cfg.DupProb+cfg.ReorderProb+cfg.DelayProb:
		time.Sleep(time.Duration(c.rng.Float64() * float64(cfg.DelayMax)))
	}
	return c.Conn.Write(p)
}

func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	dead := c.dead
	c.mu.Unlock()
	if dead {
		return 0, fmt.Errorf("%w: conn dropped", ErrInjected)
	}
	return c.Conn.Read(p)
}

// Close flushes a reorder-held write before closing, so the stream tail
// is only ever lost to a drop fault (which the retransmit layer already
// covers), never to the injector's own bookkeeping.
func (c *conn) Close() error {
	c.mu.Lock()
	held := c.held
	c.held = nil
	dead := c.dead
	c.dead = true
	c.mu.Unlock()
	if dead {
		return nil
	}
	if held != nil {
		_, _ = c.Conn.Write(held)
	}
	return c.Conn.Close()
}
