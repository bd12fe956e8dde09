package ingest

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
)

// InputState is one input's liveness state as Health reports it.
type InputState string

// Liveness states: an input is waiting until its emitter first connects,
// live while progress arrives, stalled after StallAfter of silence (the
// merge barrier is being held), dead once evicted, done after its
// trailer.
const (
	StateWaiting InputState = "waiting"
	StateLive    InputState = "live"
	StateStalled InputState = "stalled"
	StateDead    InputState = "dead"
	StateDone    InputState = "done"
)

// InputHealth is one input's row in Health.
type InputHealth struct {
	Input      int        `json:"input"`
	State      InputState `json:"state"`
	AppliedSeq uint64     `json:"applied_seq"`
	JournalSeq uint64     `json:"journal_seq"`
	Conns      int        `json:"conns"`
	SilentMS   int64      `json:"silent_ms"`
	Reordered  int        `json:"reordered"`
}

// Health is the collector's live status, served as JSON at /metrics.json.
type Health struct {
	Inputs     []InputHealth `json:"inputs"`
	Live       int           `json:"live"`
	Done       int           `json:"done"`
	DeadInputs int           `json:"dead_inputs"`
}

// CollectorConfig configures the central collector.
type CollectorConfig struct {
	// Inputs is how many merger inputs (vantages) feed this collector.
	Inputs int
	// Addr to listen on when Listener is nil (default 127.0.0.1:0).
	Addr string
	// Listener, when set, is used instead of listening on Addr — the
	// hook for fault-injected listeners.
	Listener net.Listener

	// Window bounds the merge's emission barrier (stream.Merger.SetWindow);
	// 0 leaves it unbounded.
	Window trace.Time

	// StallAfter is how long an input may be silent before Health calls
	// it stalled (default 2 s). Informational: the merge is unaffected,
	// but the transition is recorded as an input_stalled journal event
	// (and input_recovered when frames resume).
	StallAfter time.Duration
	// EvictAfter is how long an input may be silent before it is declared
	// dead and evicted from the merge (default 30 s). The liveness check
	// runs every min(StallAfter, EvictAfter)/4, kept within [10 ms, 1 s].
	EvictAfter time.Duration

	// ReadTimeout bounds each frame read on a connection (default 2×
	// EvictAfter): a connection that goes silent longer is reaped, which
	// also bounds how long serve goroutines outlive their emitters.
	ReadTimeout time.Duration

	// Obs attaches the observability layer: per-input liveness
	// transitions (input_stalled / input_recovered / input_evicted /
	// input_done) as journal events, stall/eviction counters and
	// per-input applied-seq gauges on the registry. nil disables both.
	Obs *obs.Observer
}

// maxReorder bounds each input's per-lane reorder buffer in items. A
// connection that would overflow it is dropped, forcing an in-order
// retransmit.
const maxReorder = 1 << 15

func (c *CollectorConfig) defaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.StallAfter <= 0 {
		c.StallAfter = 2 * time.Second
	}
	if c.EvictAfter <= 0 {
		c.EvictAfter = 30 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * c.EvictAfter
	}
}

// inputTrack is the collector's per-input state. Lock order: sendMu
// before mu; mu alone for state reads (Health); sendMu serializes every
// forward into the merger so per-input event order is preserved across
// connection changes and eviction.
type inputTrack struct {
	input  int
	sendMu sync.Mutex
	mu     sync.Mutex

	// The input's two lanes (under mu). done marks the events lane's
	// trailer applied; bye that the emitter then said bye, holding acks
	// for both lanes — what Run waits for after the merge.
	events  recvLane[stream.Event]
	journal recvLane[[]byte]
	done    bool
	bye     bool

	lastProgress time.Time
	evicted      bool
	// stalled marks that an input_stalled event was emitted for the
	// current silence; cleared (with input_recovered) when frames resume.
	stalled bool
	active  net.Conn
	conns   int

	// source names the input's lanes in the fleet journal; offset is the
	// clock offset for its shipped lines (collector journal ms minus
	// emitter journal ms; the minimum over handshake samples, which is
	// the sample with the least network delay baked in).
	source    string
	offset    float64
	offsetSet bool
}

// Collector accepts emitter connections, reassembles each input's exact
// event stream, feeds the streaming merge, and evicts inputs that die.
// Create with NewCollector, drive with Run.
type Collector struct {
	cfg    CollectorConfig
	l      net.Listener
	merger *stream.Merger
	tracks []*inputTrack

	obs           *obs.Observer
	reg           *obs.Registry
	mStalls       *obs.Counter
	mEvictions    *obs.Counter
	mJournalLines *obs.Counter
	mRefused      *obs.Counter
	hEncode       *obs.Histogram
	hDecode       *obs.Histogram

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// byes carries one signal per input's first bye; its capacity is the
	// input count, so a send never blocks.
	byes chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCollector builds a collector and starts listening (but not
// accepting — Run does that).
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	cfg.defaults()
	if cfg.Inputs <= 0 {
		return nil, fmt.Errorf("ingest: collector needs at least one input, got %d", cfg.Inputs)
	}
	l := cfg.Listener
	if l == nil {
		var err error
		l, err = net.Listen("tcp", cfg.Addr)
		if err != nil {
			return nil, err
		}
	}
	m := stream.NewMerger(cfg.Inputs, nil)
	if cfg.Window > 0 {
		m.SetWindow(cfg.Window)
	}
	c := &Collector{
		cfg:    cfg,
		l:      l,
		merger: m,
		tracks: make([]*inputTrack, cfg.Inputs),
		conns:  make(map[net.Conn]struct{}),
		byes:   make(chan struct{}, cfg.Inputs),
		stop:   make(chan struct{}),
	}
	now := time.Now()
	for i := range c.tracks {
		c.tracks[i] = &inputTrack{
			input:        i,
			source:       "input" + strconv.Itoa(i),
			lastProgress: now, // a vantage that never connects still gets evicted
		}
	}
	c.obs = cfg.Obs
	m.SetObserver(cfg.Obs)
	c.registerMetrics()
	return c, nil
}

// registerMetrics publishes the collector's ingest_* metric families.
// The registry is always populated — when no observer was configured a
// private one backs MetricsHandler so /metrics still works — but journal
// events only flow when CollectorConfig.Obs carried a journal.
func (c *Collector) registerMetrics() {
	c.reg = c.obs.Reg()
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}
	c.mStalls = c.reg.Counter("ingest_stalls_total", "input_stalled transitions observed by the liveness loop")
	c.mEvictions = c.reg.Counter("ingest_evictions_total", "inputs evicted from the merge after EvictAfter of silence")
	c.mJournalLines = c.reg.Counter("ingest_journal_lines_total", "shipped journal lines applied into the fleet journal")
	c.mRefused = c.reg.Counter("ingest_hellos_refused_total", "connections closed at their first frame: not a hello, an undecodable frame, another protocol version, an unknown input or a non-finite journal clock")
	c.hEncode = c.reg.WallHistogram("ingest_frame_encode_seconds", "encode time per outbound frame", latencyBuckets())
	c.hDecode = c.reg.WallHistogram("ingest_frame_decode_seconds", "decode time per inbound frame", latencyBuckets())
	for _, t := range c.tracks {
		t := t
		l := obs.L("input", strconv.Itoa(t.input))
		c.reg.GaugeFunc("ingest_applied_seq", "cumulative ack watermark: events applied in order for this input", func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(t.events.applied)
		}, l)
		c.reg.GaugeFunc("ingest_reordered_events", "events that arrived ahead of the contiguous run for this input", func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(t.events.reordered)
		}, l)
		c.reg.GaugeFunc("ingest_input_conns", "connections this input's emitter has made so far", func() float64 {
			t.mu.Lock()
			defer t.mu.Unlock()
			return float64(t.conns)
		}, l)
	}
	health := func(pick func(Health) int) func() float64 {
		return func() float64 { return float64(pick(c.Health())) }
	}
	c.reg.GaugeFunc("ingest_inputs_live", "inputs currently delivering frames", health(func(h Health) int { return h.Live }))
	c.reg.GaugeFunc("ingest_inputs_done", "inputs whose trailer has arrived", health(func(h Health) int { return h.Done }))
	c.reg.GaugeFunc("ingest_inputs_dead", "inputs evicted from the merge", health(func(h Health) int { return h.DeadInputs }))
	c.reg.GaugeFunc("ingest_inputs_stalled", "inputs silent past StallAfter but not yet evicted", health(func(h Health) int {
		n := 0
		for _, in := range h.Inputs {
			if in.State == StateStalled {
				n++
			}
		}
		return n
	}))
	c.reg.GaugeFunc("ingest_inputs_waiting", "inputs whose emitter has never connected", health(func(h Health) int {
		n := 0
		for _, in := range h.Inputs {
			if in.State == StateWaiting {
				n++
			}
		}
		return n
	}))
}

// Addr is the listen address emitters should dial.
func (c *Collector) Addr() string { return c.l.Addr().String() }

// Run serves until the merge completes (every input has delivered its
// trailer or been evicted) and every input it did not evict has said bye,
// then returns the drained merged trace. An emitter says bye once it
// holds acks for everything on both lanes, so no connection closes under
// an emitter still owed an ack, and the journal lines a process writes
// after its last event ack are in the fleet journal. The wait for byes is
// bounded by EvictAfter, against an emitter that dies after its trailer.
// The accept loop paces transient listener errors and exits on permanent
// ones, exactly like the daemon's (transport.AcceptBackoff).
func (c *Collector) Run() (*trace.Trace, error) {
	sp := c.obs.Begin("collect", obs.A("inputs", c.cfg.Inputs))
	merged := make(chan *trace.Trace, 1)
	go func() { merged <- c.merger.Run() }()

	c.wg.Add(2)
	go c.acceptLoop()
	go c.liveness()

	tr := <-merged
	c.awaitByes()
	c.shutdown()
	c.wg.Wait()
	sp.End(
		obs.A("dead_inputs", c.merger.DeadInputs()),
		obs.A("lost_sessions", c.merger.LostSessions()))
	return tr, nil
}

// DeadInputs reports how many inputs were evicted. Valid after Run.
func (c *Collector) DeadInputs() int { return c.merger.DeadInputs() }

// LostSessions reports how many sessions evicted inputs left open.
// Valid after Run.
func (c *Collector) LostSessions() uint64 { return c.merger.LostSessions() }

// awaitByes holds the listener and every connection open after the merge
// until each input the merge did not evict has said bye, or the bound
// passes. Only a done input's bye counts, and a done input is never
// evicted, so exactly Inputs − DeadInputs byes are owed.
func (c *Collector) awaitByes() {
	deadline := time.NewTimer(c.cfg.EvictAfter)
	defer deadline.Stop()
	for owed := c.cfg.Inputs - c.merger.DeadInputs(); owed > 0; owed-- {
		select {
		case <-c.byes:
		case <-deadline.C:
			return
		}
	}
}

func (c *Collector) shutdown() {
	close(c.stop)
	c.l.Close()
	c.mu.Lock()
	c.closed = true
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
}

func (c *Collector) acceptLoop() {
	defer c.wg.Done()
	var backoff transport.AcceptBackoff
	for {
		conn, err := c.l.Accept()
		if err != nil {
			delay, retry := backoff.Next(err)
			if !retry {
				return
			}
			select {
			case <-time.After(delay):
			case <-c.stop:
				return
			}
			continue
		}
		backoff.Reset()
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			conn.Close()
			return
		}
		c.conns[conn] = struct{}{}
		c.mu.Unlock()
		c.wg.Add(1)
		go c.serve(conn)
	}
}

// serve handles one emitter connection: hello, welcome-with-resume, then
// data and journal frames, each acked on its lane as applied, until the
// bye. Any protocol or I/O error just drops the connection — the
// emitter's reconnect-and-retransmit makes that safe.
func (c *Collector) serve(conn net.Conn) {
	defer c.wg.Done()
	defer func() {
		conn.Close()
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()

	fr := frameReader{dec: c.hDecode}
	fw := frameWriter{enc: c.hEncode}
	_ = conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
	f, err := fr.read(conn)
	if err != nil || f.Kind != frameHello {
		// An I/O error is no verdict on the peer; a frame that arrived is.
		if err == nil || errors.Is(err, errBadFrame) {
			c.mRefused.Inc()
		}
		return
	}
	h := f.Hello
	// A non-finite clock reading would make the input's offset infinite
	// or NaN for the collector's whole life, and every line it ships
	// unencodable.
	if h.Proto != protoVersion || h.Input < 0 || h.Input >= len(c.tracks) ||
		math.IsNaN(h.JournalTMs) || math.IsInf(h.JournalTMs, 0) {
		c.mRefused.Inc()
		return
	}
	t := c.tracks[h.Input]

	// The offset sample: collector journal clock minus the emitter's
	// clock as stamped into the hello. Both ends pay the network delay
	// between hello write and here, inflating the sample — so across
	// reconnects the minimum (least-delay) sample wins.
	haveOff := h.JournalTMs >= 0
	offSample := c.obs.Log().Now() - h.JournalTMs

	t.mu.Lock()
	if t.active != nil && t.active != conn {
		// The emitter reconnected; the old connection is superseded. Its
		// handler exits on the closed conn, and seq dedupe makes any
		// frame it already read harmless.
		t.active.Close()
	}
	t.active = conn
	t.conns++
	if h.Source != "" {
		t.source = h.Source
	}
	if haveOff && (!t.offsetSet || offSample < t.offset) {
		t.offset = offSample
		t.offsetSet = true
	}
	evicted := t.evicted
	if !evicted {
		t.lastProgress = time.Now()
	}
	welcome := &welcomeFrame{Resume: t.events.applied, JournalResume: t.journal.applied, Evicted: evicted}
	t.mu.Unlock()

	_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if err := fw.write(conn, &frame{Kind: frameWelcome, Welcome: welcome}); err != nil || evicted {
		return
	}

	for {
		_ = conn.SetReadDeadline(time.Now().Add(c.cfg.ReadTimeout))
		f, err := fr.read(conn)
		if err != nil {
			return
		}
		lane, ack, ok := laneEvents, uint64(0), false
		switch {
		case f.Kind == frameData:
			ack, ok = c.applyEvents(t, f.Data)
		case f.Kind == frameJournal:
			lane = laneJournal
			ack, ok = c.applyLines(t, f.Journal)
		case f.Kind == frameBye:
			t.mu.Lock()
			first := t.done && !t.bye // only a done input's bye counts
			if first {
				t.bye = true
			}
			t.mu.Unlock()
			if first {
				c.byes <- struct{}{}
			}
			return
		default:
			continue // stray duplicated hello or unknown frame: ignore
		}
		if !ok {
			return
		}
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := fw.write(conn, newAck(lane, ack)); err != nil {
			return
		}
	}
}

// applyEvents runs one data frame through the events lane and forwards
// the contiguous run to the merge, still under sendMu so per-input order
// holds across connections; a run carrying the EvDone trailer marks the
// input done. ok is false when the connection should drop.
func (c *Collector) applyEvents(t *inputTrack, df *dataFrame) (ack uint64, ok bool) {
	t.sendMu.Lock()
	defer t.sendMu.Unlock()
	run, ack, src, ok := applyLane(c, t, &t.events, df.FirstSeq, df.Events)
	if !ok {
		return 0, false
	}
	if slices.ContainsFunc(run, func(ev stream.Event) bool { return ev.Kind == stream.EvDone }) {
		t.mu.Lock()
		t.done = true
		t.mu.Unlock()
		c.obs.EventSrc("collector/"+src, "input_done", obs.A("input", t.input), obs.A("applied_seq", ack))
	}
	if len(run) > 0 {
		select {
		case c.merger.Intake() <- stream.Batch{Input: t.input, Events: run}:
		case <-c.stop:
			return 0, false
		}
	}
	return ack, true
}

// applyLines runs one journal frame through the journal lane and folds
// the contiguous run into the fleet journal, in the input's lane and
// rebased by its clock offset.
func (c *Collector) applyLines(t *inputTrack, jf *journalFrame) (ack uint64, ok bool) {
	run, ack, src, ok := applyLane(c, t, &t.journal, jf.FirstSeq, jf.Lines)
	if !ok {
		return 0, false
	}
	t.mu.Lock()
	offset := t.offset
	t.mu.Unlock()
	for _, line := range run {
		// A malformed line is the shipper's bug, not a connection fault:
		// skip it rather than tearing the connection into a retransmit
		// loop of the same bad line.
		if err := c.obs.Log().IngestLine(line, src, offset); err == nil {
			c.mJournalLines.Inc()
		}
	}
	return ack, true
}

// applyLane is the exactly-once step both lanes share. Under t.mu it
// refuses an evicted input, runs the frame through lane (ok false on a
// reorder overflow, which drops the connection and forces an in-order
// retransmit), and counts the frame as liveness: any valid frame is,
// progress or not — an emitter retransmitting into a lossy link is
// alive, not dead. It returns the contiguous run for the caller to
// deliver, the cumulative ack, and the input's lane name.
func applyLane[T any](c *Collector, t *inputTrack, lane *recvLane[T], first uint64, items []T) (run []T, ack uint64, src string, ok bool) {
	t.mu.Lock()
	if t.evicted {
		t.mu.Unlock()
		return nil, 0, "", false
	}
	run, ack, ok = lane.apply(first, items, maxReorder)
	if !ok {
		t.mu.Unlock()
		return nil, 0, "", false
	}
	t.lastProgress = time.Now()
	recovered := t.stalled
	t.stalled = false
	src = t.source
	t.mu.Unlock()

	// Liveness transitions are journaled into the input's own collector
	// lane ("collector/<source>") rather than the collector's default
	// lane: each lane's sequence then depends on that one input alone,
	// which keeps the fleet journal's canonical form stable when inputs'
	// events race each other across lanes.
	if recovered {
		c.obs.EventSrc("collector/"+src, "input_recovered", obs.A("input", t.input), obs.A("applied_seq", ack))
	}
	return run, ack, src, true
}

// liveness evicts inputs whose silence outlives EvictAfter, injecting
// the EvEvict that releases the merge barrier and accounts the loss. It
// also records the earlier StallAfter transition — an input_stalled
// journal event always precedes that input's input_evicted.
func (c *Collector) liveness() {
	defer c.wg.Done()
	period := min(c.cfg.StallAfter, c.cfg.EvictAfter) / 4
	tick := time.NewTicker(min(max(period, 10*time.Millisecond), time.Second))
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
		for _, t := range c.tracks {
			t.sendMu.Lock()
			t.mu.Lock()
			idle := time.Since(t.lastProgress)
			if !t.done && !t.evicted && !t.stalled && t.conns > 0 && idle >= c.cfg.StallAfter {
				t.stalled = true
				c.mStalls.Inc()
				c.obs.EventSrc("collector/"+t.source, "input_stalled",
					obs.A("input", t.input),
					obs.A("silent_ms", idle.Milliseconds()))
			}
			if t.done || t.evicted || idle < c.cfg.EvictAfter {
				t.mu.Unlock()
				t.sendMu.Unlock()
				continue
			}
			t.evicted = true
			applied := t.events.applied
			src := t.source
			if t.active != nil {
				t.active.Close()
			}
			t.mu.Unlock()
			c.mEvictions.Inc()
			c.obs.EventSrc("collector/"+src, "input_evicted",
				obs.A("input", t.input),
				obs.A("applied_seq", applied),
				obs.A("silent_ms", idle.Milliseconds()))
			// The merge counts the still-open sessions as lost; Nodes 1
			// records that the vantage existed even though its trailer
			// never arrived.
			batch := stream.Batch{Input: t.input, Events: []stream.Event{{
				Kind: stream.EvEvict,
				Done: &stream.End{Nodes: 1},
			}}}
			select {
			case c.merger.Intake() <- batch:
			case <-c.stop:
				t.sendMu.Unlock()
				return
			}
			t.sendMu.Unlock()
		}
	}
}

// Health snapshots every input's liveness. Safe to call concurrently
// with Run — this is what /metrics.json serves.
func (c *Collector) Health() Health {
	h := Health{Inputs: make([]InputHealth, len(c.tracks))}
	now := time.Now()
	for i, t := range c.tracks {
		t.mu.Lock()
		ih := InputHealth{
			Input:      i,
			AppliedSeq: t.events.applied,
			JournalSeq: t.journal.applied,
			Conns:      t.conns,
			SilentMS:   now.Sub(t.lastProgress).Milliseconds(),
			Reordered:  t.events.reordered,
		}
		switch {
		case t.done:
			ih.State = StateDone
			h.Done++
		case t.evicted:
			ih.State = StateDead
			h.DeadInputs++
		case t.conns == 0:
			ih.State = StateWaiting
		case now.Sub(t.lastProgress) > c.cfg.StallAfter:
			ih.State = StateStalled
		default:
			ih.State = StateLive
			h.Live++
		}
		t.mu.Unlock()
		h.Inputs[i] = ih
	}
	return h
}

// MetricsHandler serves the collector's observability surface: the
// ingest_* registry as Prometheus text at /metrics and the legacy Health
// JSON at /metrics.json.
func (c *Collector) MetricsHandler() http.Handler {
	legacy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(c.Health()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return obs.NewHTTPHandler(obs.HTTPConfig{Registry: c.reg, LegacyJSON: legacy})
}
