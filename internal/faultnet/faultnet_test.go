package faultnet

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// recConn records whole Write calls so tests can see exactly what the
// fault layer delivered, in order.
type recConn struct {
	writes [][]byte
	closed bool
}

func (r *recConn) Write(p []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), p...))
	return len(p), nil
}
func (r *recConn) Read(p []byte) (int, error)         { return 0, nil }
func (r *recConn) Close() error                       { r.closed = true; return nil }
func (r *recConn) LocalAddr() net.Addr                { return nil }
func (r *recConn) RemoteAddr() net.Addr               { return nil }
func (r *recConn) SetDeadline(t time.Time) error      { return nil }
func (r *recConn) SetReadDeadline(t time.Time) error  { return nil }
func (r *recConn) SetWriteDeadline(t time.Time) error { return nil }

func TestDupDeliversTwice(t *testing.T) {
	rec := &recConn{}
	c := New(Config{Seed: 7, DupProb: 1}).Wrap(rec)
	if n, err := c.Write([]byte("frame")); err != nil || n != 5 {
		t.Fatalf("Write = %d, %v", n, err)
	}
	if len(rec.writes) != 2 || !bytes.Equal(rec.writes[0], rec.writes[1]) {
		t.Fatalf("dup delivered %d writes: %q", len(rec.writes), rec.writes)
	}
}

func TestReorderSwapsAdjacentWrites(t *testing.T) {
	rec := &recConn{}
	// Reorder fires on the first write only; the second completes the swap
	// before its own fault roll.
	inj := New(Config{Seed: 3, ReorderProb: 1})
	c := inj.Wrap(rec)
	if _, err := c.Write([]byte("first")); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 0 {
		t.Fatalf("held write leaked early: %q", rec.writes)
	}
	if _, err := c.Write([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 2 || string(rec.writes[0]) != "second" || string(rec.writes[1]) != "first" {
		t.Fatalf("reorder delivered %q, want [second first]", rec.writes)
	}
}

func TestCloseFlushesHeldWrite(t *testing.T) {
	rec := &recConn{}
	c := New(Config{Seed: 3, ReorderProb: 1}).Wrap(rec)
	if _, err := c.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if len(rec.writes) != 1 || string(rec.writes[0]) != "tail" {
		t.Fatalf("close flushed %q, want [tail]", rec.writes)
	}
	if !rec.closed {
		t.Fatal("underlying conn not closed")
	}
}

func TestDropTearsWriteAndKillsConn(t *testing.T) {
	rec := &recConn{}
	c := New(Config{Seed: 11, DropProb: 1}).Wrap(rec)
	payload := bytes.Repeat([]byte("x"), 64)
	n, err := c.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("drop returned %v, want ErrInjected", err)
	}
	if n >= len(payload) {
		t.Fatalf("torn write delivered %d of %d bytes", n, len(payload))
	}
	if !rec.closed {
		t.Fatal("drop must close the underlying conn")
	}
	if _, err := c.Write([]byte("more")); !errors.Is(err, ErrInjected) {
		t.Fatalf("write after drop returned %v, want ErrInjected", err)
	}
	if _, err := c.Read(make([]byte, 4)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after drop returned %v, want ErrInjected", err)
	}
}

// TestDeterministicSchedule: two injectors with the same seed make
// identical fault decisions for the same conn/write sequence — the
// property that makes a failing fault run reproducible from its seed.
func TestDeterministicSchedule(t *testing.T) {
	run := func() []string {
		rec := &recConn{}
		inj := New(Config{Seed: 42, DropProb: 0.1, DupProb: 0.2, ReorderProb: 0.2})
		c := inj.Wrap(rec)
		var got []string
		for i := 0; i < 40; i++ {
			if _, err := c.Write([]byte{byte(i)}); err != nil {
				got = append(got, "drop")
				break
			}
		}
		c.Close()
		for _, w := range rec.writes {
			got = append(got, string(w))
		}
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("schedules diverge: %d vs %d entries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestPartitionWindowBlocksDial(t *testing.T) {
	inj := New(Config{Partitions: []Window{{From: 0, To: 50 * time.Millisecond}}})
	dialed := 0
	dial := inj.Dial(func(addr string, timeout time.Duration) (net.Conn, error) {
		dialed++
		return &recConn{}, nil
	})
	if _, err := dial("collector:1", time.Second); !errors.Is(err, ErrInjected) {
		t.Fatalf("dial inside partition returned %v, want ErrInjected", err)
	}
	if dialed != 0 {
		t.Fatal("partitioned dial must not reach the real dialer")
	}
	time.Sleep(60 * time.Millisecond)
	if _, err := dial("collector:1", time.Second); err != nil {
		t.Fatalf("dial after partition: %v", err)
	}
	if dialed != 1 {
		t.Fatalf("dialed %d times, want 1", dialed)
	}
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l := New(Config{Seed: 9, DupProb: 1}).Listener(inner)
	defer l.Close()

	go func() {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 16)
		total := 0
		for total < 10 {
			n, err := c.Read(buf[total:])
			if err != nil {
				return
			}
			total += n
		}
	}()

	c, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.(*conn); !ok {
		t.Fatalf("accepted conn is %T, want faultnet wrapper", c)
	}
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
}
