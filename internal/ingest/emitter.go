package ingest

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/transport"
)

// ErrEvicted is returned by Emitter.Run when the collector reports the
// input already evicted: the merge has moved on without this vantage and
// re-admission is impossible, so the emitter must stop rather than retry.
var ErrEvicted = errors.New("ingest: input evicted by collector")

// errStopped aborts connect's backoff sleep when Stop is called. errGone
// is a refused dial once everything is acked: the collector has finished
// without hearing this input's bye, which costs it nothing. Run returns
// nil for both.
var (
	errStopped = errors.New("ingest: emitter stopped")
	errGone    = errors.New("ingest: collector gone after full ack")
)

// dialTimeout bounds one connect attempt. writeTimeout bounds every
// frame write on both ends: a peer reading slowly cannot wedge the
// writer, it gets a torn connection and a retransmit instead. maxUnacked
// bounds the retransmit buffer in events: at the bound the emitter stops
// draining its intake, so backpressure propagates to the producer
// exactly like a full merger intake does in-process.
const (
	dialTimeout  = 5 * time.Second
	writeTimeout = 10 * time.Second
	maxUnacked   = 1 << 16
)

// EmitterConfig configures one vantage's emitter.
type EmitterConfig struct {
	// Addr is the collector's address.
	Addr string
	// Input is this vantage's merger input index.
	Input int

	// Dial overrides the dialer (fault injection, tests); every call gets
	// dialTimeout. Default is net.DialTimeout over TCP.
	Dial func(addr string, timeout time.Duration) (net.Conn, error)
	// Retry paces reconnects: Max attempts per outage on the
	// exponential-backoff-with-full-jitter schedule (default Max 10,
	// transport defaults for Base/Cap). Run fails when one outage
	// outlives the budget.
	Retry transport.Retry

	// WelcomeTimeout bounds the hello/welcome exchange (default 10 s).
	WelcomeTimeout time.Duration
	// AckTimeout declares the connection wedged when events are
	// outstanding and no ack progress arrives for this long (default
	// 15 s); the emitter reconnects and retransmits. This is what
	// recovers from faults that swallow frames without killing the
	// connection.
	AckTimeout time.Duration
	// KeepAlive is how often an idle emitter sends an empty data frame
	// (default 2 s). The collector counts any valid frame as liveness, so
	// the keepalive is what distinguishes a healthy vantage with nothing
	// to say from a dead one. Keep it well under the collector's
	// EvictAfter.
	KeepAlive time.Duration

	// Obs attaches the observability layer: reconnect counts, the acked
	// watermark and the retransmit-buffer depth, all labeled by input,
	// plus the wall-clock latency histograms (frame encode/decode time,
	// ack round-trip). nil runs uninstrumented. With a Ship, the clock of
	// Obs.Journal (the process's own journal) is sampled into every hello
	// so the collector can estimate this input's clock offset and rebase
	// shipped lines onto its own time axis; no journal ships lines without
	// offset normalization.
	Obs *obs.Observer

	// Ship, when set, streams this process's journal lines to the
	// collector as sequence-acked journal frames on the same connection
	// as event data (point Obs.Journal at the ship). Close the ship
	// (after the final journal line) the way the intake channel is
	// closed: the bye then waits for the shipped journal's acks as well
	// as the event stream's.
	Ship *JournalShip
	// Source names this emitter's lane in the collector's fleet journal
	// (e.g. "vantage0"). Empty lets the collector default to input<N>.
	Source string
}

func (c *EmitterConfig) defaults() {
	if c.Dial == nil {
		c.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	if c.Retry.Max == 0 {
		c.Retry.Max = 10
	}
	if c.WelcomeTimeout <= 0 {
		c.WelcomeTimeout = 10 * time.Second
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 15 * time.Second
	}
	if c.KeepAlive <= 0 {
		c.KeepAlive = 2 * time.Second
	}
}

// Emitter ships one input's event stream to the collector, exactly once
// in order from the collector's point of view, across any number of
// connection losses. Feed it through Intake (a stream.Producer pointed at
// that channel works unchanged), close the channel after the trailer, and
// Run returns once everything fed has been acknowledged and the bye sent.
type Emitter struct {
	cfg       EmitterConfig
	intake    chan stream.Batch
	stop      chan struct{}
	stopOnce  sync.Once
	drained   chan struct{}
	drainOnce sync.Once

	// jAckedPub mirrors the journal ack watermark for the GaugeFunc
	// below. Exposition-only (like all GaugeFuncs) because its value at
	// snapshot time depends on how many wall-clock-driven lines
	// (heartbeats) happened to be acked — it must stay out of the
	// deterministic metrics snapshot.
	jAckedPub atomic.Uint64

	mReconnects *obs.Counter
	mUnacked    *obs.Gauge
	mAcked      *obs.Gauge
	hDecode     *obs.Histogram
	hAckRTT     *obs.Histogram

	// fw encodes every frame Run writes, on whichever connection; only
	// Run's goroutine uses it.
	fw frameWriter
}

// NewEmitter builds an emitter; Run does the work.
func NewEmitter(cfg EmitterConfig) *Emitter {
	cfg.defaults()
	e := &Emitter{cfg: cfg, intake: make(chan stream.Batch, 4), stop: make(chan struct{}), drained: make(chan struct{})}
	l := obs.L("input", strconv.Itoa(cfg.Input))
	e.mReconnects = cfg.Obs.Counter("emitter_reconnects_total", "successful collector connections beyond the first", l)
	e.mUnacked = cfg.Obs.Gauge("emitter_unacked_events", "events in the retransmit buffer awaiting a cumulative ack", l)
	e.mAcked = cfg.Obs.Gauge("emitter_acked_seq", "highest cumulative ack received from the collector", l)
	if cfg.Ship != nil {
		cfg.Obs.GaugeFunc("emitter_journal_acked_seq", "highest cumulative journal-line ack received from the collector", func() float64 {
			return float64(e.jAckedPub.Load())
		}, l)
	}
	// Wall-clock histograms: exposition-only (excluded from journal
	// metrics snapshots — see obs.Registry.WallHistogram), surfaced in
	// Prometheus text and the journal's latency line.
	e.fw.enc = cfg.Obs.Reg().WallHistogram("ingest_frame_encode_seconds", "encode time per outbound frame", latencyBuckets(), l)
	e.hDecode = cfg.Obs.Reg().WallHistogram("ingest_frame_decode_seconds", "decode time per inbound frame", latencyBuckets(), l)
	e.hAckRTT = cfg.Obs.Reg().WallHistogram("ingest_ack_rtt_seconds", "data-frame send to covering cumulative ack", latencyBuckets(), l)
	return e
}

// EventsDrained returns a channel closed once the intake has been
// closed and every fed event acknowledged by the collector. With
// journal shipping this is the deterministic point to write the final
// journal lines (metrics snapshot, latency rollup) before closing the
// ship: the emitter's own acked/unacked gauges have reached their final
// values, and Run is still pumping so the trailing lines ship too.
func (e *Emitter) EventsDrained() <-chan struct{} { return e.drained }

// Stop aborts Run immediately — nothing is flushed, exactly like the
// process dying. Unacked events stay unacked; a restarted emitter (or
// the collector's eviction) picks up from there. Idempotent.
func (e *Emitter) Stop() { e.stopOnce.Do(func() { close(e.stop) }) }

// Intake is the channel to feed events into, shaped exactly like a
// merger intake so stream.NewProducer(0, e.Intake()) plugs in directly
// (the batch's Input field is ignored — the hello frame binds the input).
// Close it when the stream is complete; Run says bye after the final ack.
func (e *Emitter) Intake() chan<- stream.Batch { return e.intake }

// rttMark remembers when the data frame ending at seq was written, so
// the covering cumulative ack can be timed.
type rttMark struct {
	seq uint64
	at  time.Time
}

// ackMsg is what the per-connection reader goroutine reports: a lane's
// cumulative ack seq, or the read error that ended the connection.
type ackMsg struct {
	lane int
	seq  uint64
	err  error
}

// Run pumps the intake (and, with a Ship, the process's journal lines)
// to the collector until it holds cumulative acks for everything on both
// lanes, then writes a bye frame and closes. A bye whose write fails goes
// out again on a reconnect; a dial refused at that point means the
// collector has already finished, and Run returns nil. Run fails when the
// retry budget dies or the input was evicted. Safe to call exactly once.
func (e *Emitter) Run() error {
	var (
		conn     net.Conn
		acks     chan ackMsg
		connDone chan struct{}
		inflight []rttMark

		events  = sendQueue[stream.Event]{next: 1, frame: newDataFrame}
		journal = sendQueue[[]byte]{frame: newJournalFrame}

		intakeCh     = e.intake
		intakeClosed bool
		shipClosed   bool
		lastProgress time.Time
		lastSend     time.Time
		connects     int
	)
	var shipCh <-chan struct{}
	if e.cfg.Ship != nil {
		shipCh = e.cfg.Ship.Ready()
	}
	// finished reports whether Run may say bye: events drained (closing
	// the EventsDrained latch on the way) and, when shipping, the
	// journal drained too. The EventsDrained signal is what lets the
	// process write its final journal lines between the last event ack
	// and the ship's close.
	finished := func() bool {
		if !intakeClosed || len(events.items) != 0 {
			return false
		}
		e.drainOnce.Do(func() { close(e.drained) })
		if e.cfg.Ship == nil {
			return true
		}
		return shipClosed && len(journal.items) == 0
	}
	// ack applies one of lane's cumulative acks — from a welcome or an
	// ack frame — and reports whether it moved the watermark.
	ack := func(lane int, seq uint64) bool {
		if lane == laneJournal {
			if !journal.ack(seq) {
				return false
			}
			e.jAckedPub.Store(journal.acked)
			return true
		}
		if !events.ack(seq) {
			return false
		}
		for len(inflight) > 0 && inflight[0].seq <= seq {
			e.hAckRTT.Observe(time.Since(inflight[0].at).Seconds())
			inflight = inflight[1:]
		}
		e.mAcked.SetInt(int64(events.acked))
		e.mUnacked.SetInt(int64(len(events.items)))
		return true
	}
	tick := e.cfg.AckTimeout / 4
	if k := e.cfg.KeepAlive / 2; k < tick {
		tick = k
	}
	if tick <= 0 {
		tick = time.Second
	}
	var rng *rand.Rand
	if e.cfg.Retry.Seed != 0 {
		rng = rand.New(rand.NewPCG(e.cfg.Retry.Seed, 0x1d9e57))
	}
	teardown := func() {
		if conn != nil {
			close(connDone)
			conn.Close()
			conn = nil
			inflight = nil // retransmits restart the RTT clock
		}
	}
	defer teardown()
	// Once Run has returned nobody drains the intake, so a producer still
	// mid-stream would block forever on a dead emitter. Discarding is
	// correct on every exit path: clean return means the channel is
	// already closed and empty, and on error or Stop the events have
	// nowhere to go anyway.
	defer func() {
		go func() {
			for range e.intake {
			}
		}()
	}()

	for {
		if conn == nil {
			c, welcome, err := e.connect(rng, finished())
			if errors.Is(err, errStopped) || errors.Is(err, errGone) {
				return nil
			}
			if err != nil {
				return err
			}
			connects++
			if connects > 1 {
				e.mReconnects.Inc()
			} else {
				// This process's journal lines continue after whatever a
				// previous life of this input already had acked.
				journal.next = welcome.JournalResume + 1
			}
			ack(laneEvents, welcome.Resume)
			ack(laneJournal, welcome.JournalResume)
			if err := send(e, c, &events, 0); err != nil {
				c.Close()
				continue
			}
			if err := send(e, c, &journal, 0); err != nil {
				c.Close()
				continue
			}
			acks = make(chan ackMsg, 64)
			connDone = make(chan struct{})
			go readAcks(c, acks, connDone, e.hDecode)
			conn = c
			lastProgress = time.Now()
			lastSend = time.Now()
		}
		if finished() {
			// Everything is acked: say bye and close (the deferred
			// teardown). A failed write says it again on a reconnect.
			_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if e.fw.write(conn, &frame{Kind: frameBye}) == nil {
				return nil
			}
			teardown()
			continue
		}

		in := intakeCh
		if len(events.items) >= maxUnacked {
			in = nil // backpressure: stall the producer until acks drain
		}
		select {
		case <-e.stop:
			return nil
		case b, ok := <-in:
			if !ok {
				intakeClosed = true
				intakeCh = nil
				continue
			}
			i := events.push(b.Events)
			e.mUnacked.SetInt(int64(len(events.items)))
			if i < len(events.items) {
				if err := send(e, conn, &events, i); err != nil {
					teardown()
				} else {
					inflight = append(inflight, rttMark{seq: events.next - 1, at: time.Now()})
					lastSend = time.Now()
				}
			}
		case <-shipCh:
			var lines [][]byte
			lines, shipClosed = e.cfg.Ship.Take()
			if i := journal.push(lines); i < len(journal.items) {
				if err := send(e, conn, &journal, i); err != nil {
					teardown()
				} else {
					lastSend = time.Now()
				}
			}
		case a := <-acks:
			if a.err != nil {
				teardown()
			} else if ack(a.lane, a.seq) {
				lastProgress = time.Now()
			}
		case <-time.After(tick):
			if (len(events.items) > 0 || len(journal.items) > 0) && time.Since(lastProgress) > e.cfg.AckTimeout {
				// Outstanding events or journal lines, no ack progress:
				// the connection is wedged (or a fault ate the frames).
				// Start over.
				teardown()
				continue
			}
			if time.Since(lastSend) > e.cfg.KeepAlive {
				// Idle keepalive: an empty data frame, so the collector's
				// liveness layer can tell quiet from dead.
				_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
				if err := e.fw.write(conn, newDataFrame(events.next, nil)); err != nil {
					teardown()
				} else {
					_ = conn.SetWriteDeadline(time.Time{})
					lastSend = time.Now()
				}
			}
		}
	}
}

// connect dials and handshakes on the Retry schedule, returning the
// established connection and its welcome. With everything acked (acked),
// a refused dial returns errGone at once: only the bye is left to say,
// and nobody is listening for it.
func (e *Emitter) connect(rng *rand.Rand, acked bool) (net.Conn, *welcomeFrame, error) {
	var err error
	for attempt := 0; ; attempt++ {
		var c net.Conn
		c, err = e.cfg.Dial(e.cfg.Addr, dialTimeout)
		if acked && errors.Is(err, syscall.ECONNREFUSED) {
			return nil, nil, errGone
		}
		if err == nil {
			var w *welcomeFrame
			w, err = e.handshake(c)
			if err == nil {
				return c, w, nil
			}
			c.Close()
			if errors.Is(err, ErrEvicted) {
				return nil, nil, err
			}
		}
		if attempt >= e.cfg.Retry.Max {
			return nil, nil, fmt.Errorf("ingest: connect %s: %w", e.cfg.Addr, err)
		}
		select {
		case <-time.After(e.cfg.Retry.Backoff(attempt, rng)):
		case <-e.stop:
			return nil, nil, errStopped
		}
	}
}

func (e *Emitter) handshake(c net.Conn) (*welcomeFrame, error) {
	_ = c.SetDeadline(time.Now().Add(e.cfg.WelcomeTimeout))
	defer c.SetDeadline(time.Time{})
	// JournalTMs carries the emitter's journal clock at hello time — the
	// collector's half of the clock-offset estimate. Negative = not
	// shipping.
	jtms := -1.0
	if e.cfg.Ship != nil {
		jtms = e.cfg.Obs.Log().Now()
	}
	hello := &frame{Kind: frameHello, Hello: &helloFrame{
		Proto:      protoVersion,
		Input:      e.cfg.Input,
		Source:     e.cfg.Source,
		JournalTMs: jtms,
	}}
	if err := e.fw.write(c, hello); err != nil {
		return nil, err
	}
	f, err := (&frameReader{dec: e.hDecode}).read(c)
	if err != nil {
		return nil, err
	}
	if f.Kind != frameWelcome {
		return nil, fmt.Errorf("ingest: expected welcome, got frame kind %d", f.Kind)
	}
	if f.Welcome.Evicted {
		return nil, ErrEvicted
	}
	return f.Welcome, nil
}

// send writes q's unacked items from index i on as frames of at most
// maxFrameEvents items, built by q.frame, each a single deadline-bounded
// Write. The frames reference q's storage; e.fw has encoded them before
// it returns.
func send[T any](e *Emitter, c net.Conn, q *sendQueue[T], i int) error {
	for i < len(q.items) {
		n := min(len(q.items)-i, maxFrameEvents)
		_ = c.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := e.fw.write(c, q.frame(q.acked+1+uint64(i), q.items[i:i+n])); err != nil {
			return err
		}
		i += n
	}
	_ = c.SetWriteDeadline(time.Time{})
	return nil
}

// readAcks is the per-connection reader: it forwards each lane's ack seqs
// until the connection dies, then reports the error and exits.
// connDone unblocks it when the main loop has already moved on to a new
// connection.
func readAcks(c net.Conn, out chan<- ackMsg, connDone <-chan struct{}, dec *obs.Histogram) {
	fr := frameReader{dec: dec}
	for {
		f, err := fr.read(c)
		var msg ackMsg
		switch {
		case err != nil:
			msg = ackMsg{err: err}
		case f.Kind == frameAck:
			msg = ackMsg{lane: laneEvents, seq: f.Ack.Seq}
		case f.Kind == frameJournalAck:
			msg = ackMsg{lane: laneJournal, seq: f.JAck.Seq}
		default:
			// A duplicated welcome or other stray frame: ignore.
			continue
		}
		select {
		case out <- msg:
		case <-connDone:
			return
		}
		if msg.err != nil {
			return
		}
	}
}
