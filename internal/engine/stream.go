package engine

import (
	"sync"
	"sync/atomic"

	"repro/internal/behavior"
	"repro/internal/capture"
	"repro/internal/guid"
	"repro/internal/obs"
	"repro/internal/simtime"
	"repro/internal/stream"
)

// DefaultLookahead is the bounded producer's per-node session window: how
// many sessions one vantage may have undelivered — buffered by the
// producer, queued in batches, or not yet taken off the batch the vantage
// is walking — before the producer blocks. 48 nodes × 1024 sessions
// bounds the in-flight session set to ≈50 k objects at any instant,
// against the 4.36 M arrivals of the paper-scale run.
const DefaultLookahead = 1024

// maxBatch caps one hand-off batch, in sessions: the producer publishes
// the chain and sends its per-node batches at least this often, so a
// vantage never waits on more than one batch's worth of generation.
const maxBatch = 512

// chainChunk is one slab of the published arrival instants. Chunked
// storage lets readers index concurrently while the producer appends: a
// slab is never reallocated, and the chunk directory is replaced
// copy-on-write.
const chainChunkSize = 8192

type chainChunk struct {
	start [chainChunkSize]simtime.Time
}

// chain is the incrementally published arrival-instant sequence — the
// conservative synchronizer of the bounded producer. Under the keyed
// tie-break, nodes do not consume foreign chain entries as events; they
// only need the conservative time window: before an implicit event at
// instant t fires, the node's chain cursor must know exactly how many
// global arrivals precede it, which requires the published prefix to
// extend past t (or the chain to be complete). countThrough blocks —
// conservatively, in the Chandy–Misra sense: a node's clock never
// advances past what the published prefix can order exactly — until the
// producer has published that far. The fast path is two atomic loads; the
// mutex is only taken to sleep and to publish.
type chain struct {
	mu     sync.Mutex
	cond   *sync.Cond
	dir    atomic.Pointer[[]*chainChunk]
	n      atomic.Int64
	closed atomic.Bool
}

func newChain() *chain {
	c := &chain{}
	c.cond = sync.NewCond(&c.mu)
	empty := []*chainChunk{}
	c.dir.Store(&empty)
	return c
}

// countThrough is the node's chain cursor: the first chain position
// ≥ from that does not fire before an implicit event with key (at, epoch,
// pos ≥ 1), blocking until the published prefix suffices to answer
// exactly. A chain entry j (key (start_j, j, 0)) precedes the event iff
// start_j < at, or start_j == at and j ≤ epoch; the predicate is monotone
// in j (starts are nondecreasing) and fired keys are nondecreasing, so
// callers pass a forward-only cursor as from and chainBoundary's
// galloping search keeps the amortized cost O(log jump) per fired event.
func (c *chain) countThrough(from uint64, at simtime.Time, epoch uint64) uint64 {
	for {
		n := uint64(c.n.Load())
		dir := *c.dir.Load()
		fires := func(j uint64) bool {
			st := dir[j/chainChunkSize].start[j%chainChunkSize]
			return st < at || (st == at && j <= epoch)
		}
		if from < n {
			if p := chainBoundary(n, from, fires); p < n {
				return p
			}
			from = n
		}
		// Every published entry fires before the event; only more
		// publications (or completion) can pin the count down.
		c.mu.Lock()
		for uint64(c.n.Load()) == n && !c.closed.Load() {
			c.cond.Wait()
		}
		c.mu.Unlock()
		if c.closed.Load() && uint64(c.n.Load()) == n {
			return n
		}
	}
}

// publish appends a batch of arrival instants and wakes waiting readers.
// Only the producer goroutine calls it.
func (c *chain) publish(starts []simtime.Time) {
	n := c.n.Load()
	dir := *c.dir.Load()
	for i := range starts {
		k := n + int64(i)
		if int(k/chainChunkSize) == len(dir) {
			// A new directory, so readers holding the old one never see
			// it change; only it escapes, so a publish that fits the
			// existing chunks allocates nothing.
			grown := append(dir[:len(dir):len(dir)], &chainChunk{})
			c.dir.Store(&grown)
			dir = grown
		}
		dir[k/chainChunkSize].start[k%chainChunkSize] = starts[i]
	}
	c.mu.Lock()
	c.n.Store(n + int64(len(starts)))
	c.cond.Broadcast()
	c.mu.Unlock()
}

// finish marks the chain complete and wakes all readers.
func (c *chain) finish() {
	c.mu.Lock()
	c.closed.Store(true)
	c.cond.Broadcast()
	c.mu.Unlock()
}

// handoff carries one vantage's sessions from the producer to its event
// loop in batches, and the query streams the vantage is done with back.
// Its sessions live in ring, one slot per session of the window, reused
// in order; a batch is a run of consecutive slots, so handing sessions
// over allocates nothing. The producer fills the slots after the last
// batch it sent and sends them as one batch on batches; the vantage walks
// each batch, copying every session out of its slot, and hands the
// exhausted batch back on free, which gives its slots back to the
// producer. Every batch on either channel still counts in held (a batch
// is never empty, and held never exceeds the window), so neither channel
// fills and neither side ever blocks on a send — which is why each is
// window-deep.
//
// A spent batch also carries the streams the vantage released since it
// last handed some over (rejected arrivals', and those of connections
// gone back to their pool), for the producer to recycle into the
// generator. Two stream lists take turns: the vantage fills one while the
// other travels to the producer and comes back emptied on lists, so
// handing streams back allocates nothing either. The vantage swaps only
// when the emptied list is already back, so lists never holds more than
// the one and the producer's send on it never blocks.
type handoff struct {
	ring    []ownedSession
	batches chan []ownedSession
	free    chan spent
	lists   chan [][]behavior.TimedQuery

	// The producer's side: ring[lo:lo+n] (wrapping) is the unsent batch,
	// and held counts the sessions in it and in every sent batch not yet
	// handed back.
	lo, n, held int
	batchCap    int

	probe func(put bool) // Config.probe for this vantage, or nil
}

// spent is an exhausted batch on its way back to the producer, with the
// query streams released since the previous swap, or nil.
type spent struct {
	batch   []ownedSession
	streams [][]behavior.TimedQuery
}

func newHandoff(window int) *handoff {
	h := &handoff{
		ring:     make([]ownedSession, window),
		batches:  make(chan []ownedSession, window),
		free:     make(chan spent, window),
		lists:    make(chan [][]behavior.TimedQuery, 1),
		batchCap: min(window, maxBatch),
	}
	h.lists <- nil // the second list, grown on its first turn
	return h
}

// put buffers a session in the next slot and reports whether the unsent
// batch is full. The window must have room (held < len(ring)).
func (h *handoff) put(s *behavior.Session, gidx uint64) bool {
	slot := h.lo + h.n
	if slot >= len(h.ring) {
		slot -= len(h.ring)
	}
	h.ring[slot] = ownedSession{sess: *s, gidx: gidx}
	h.n++
	h.held++
	if h.probe != nil {
		h.probe(true)
	}
	return h.n == h.batchCap
}

// send hands the unsent batch to the vantage: one batch, or two when it
// wraps around the end of the ring.
func (h *handoff) send() {
	for h.n > 0 {
		end := min(h.lo+h.n, len(h.ring))
		h.batches <- h.ring[h.lo:end]
		h.n -= end - h.lo
		h.lo = end % len(h.ring)
	}
}

// reclaim waits, while the window is full, for the vantage to hand back
// a batch and takes it. The flush before it may have taken one already.
func (h *handoff) reclaim(gen *behavior.Generator) {
	for h.held == len(h.ring) {
		h.take(<-h.free, gen)
	}
}

// drain takes every batch the vantage has handed back so far, without
// waiting.
func (h *handoff) drain(gen *behavior.Generator) {
	for {
		select {
		case sp := <-h.free:
			h.take(sp, gen)
		default:
			return
		}
	}
}

// take frees a spent batch's slots, recycles the streams it carries and
// sends their list back to the vantage emptied.
func (h *handoff) take(sp spent, gen *behavior.Generator) {
	h.held -= len(sp.batch)
	if sp.streams == nil {
		return
	}
	for _, qs := range sp.streams {
		gen.Recycle(qs)
	}
	clear(sp.streams)
	h.lists <- sp.streams[:0]
}

// produceArrivals is the bounded producer: it replays the arrival process
// in generation order — generator and session-GUID streams consumed in
// the one order every vantage agrees on (any divergence would shift every
// tie-break key) — publishes the arrival instants incrementally and hands
// each session (with its global chain position, the Epoch of its
// tie-break key) to its owner in batches. A nil handoff is the ownership
// filter: the vantage is simulated elsewhere (another NodeStream
// process), so its sessions are dropped after their instants are
// published, each one's query stream straight back to the generator.
// Every maxBatch arrivals, and whenever one vantage's unsent batch is
// full, the producer flushes: it publishes the chain prefix through the
// last arrival, sends every non-empty batch, and takes, without waiting,
// every batch handed back so far, recycling the streams it carries.
// Publication order is therefore chain-before-session: by the time a node
// can fire arrival k, the chain prefix through k is published, and
// sessions reach each node in exactly the order the node consumes them.
//
// A vantage's window is counted in sessions: the producer buffers a
// session only while the vantage holds fewer than the window undelivered
// (handoff.held); at the limit it flushes and waits for the vantage to
// hand a batch back.
//
// Deadlock freedom: the producer blocks only in reclaim, and only right
// after a flush, so every session the waited-on node holds is in a batch
// it has been sent and its chain prefix is fully published (publish
// precedes send, and arrivals are start-ordered). The node's cursor can
// therefore resolve every event up to its last held arrival, so it walks
// to the end of its current batch and hands it back — it does so as it
// takes the batch's last session, before firing it. What free carries
// besides the batch changes nothing here: the streams ride on a send the
// vantage makes anyway, the vantage takes an emptied list only when one
// is already waiting, and the producer's send of the emptied list never
// blocks (see handoff). Neither side blocks on a send; every other node
// either progresses on published entries or sleeps in countThrough or its
// batch receive, holding no resource the producer needs.
func produceArrivals(cfg capture.FleetConfig, gen *behavior.Generator, ch *chain, hs []*handoff) uint64 {
	guids := guid.NewSource(cfg.Node.Workload.Seed, capture.SessionGUIDSalt)
	starts := make([]simtime.Time, 0, maxBatch)
	var total uint64
	flush := func() {
		if len(starts) == 0 {
			return
		}
		ch.publish(starts)
		starts = starts[:0]
		for _, h := range hs {
			if h != nil {
				h.send()
				h.drain(gen)
			}
		}
	}
	var sess behavior.Session
	for gen.NextInto(&sess) {
		full := false
		if h := hs[guids.Next().Shard(cfg.Nodes)]; h == nil {
			gen.Recycle(sess.Queries)
		} else {
			if h.held == len(h.ring) {
				flush()
				h.reclaim(gen)
			}
			full = h.put(&sess, total)
		}
		starts = append(starts, sess.Start)
		total++
		if full || len(starts) == maxBatch {
			flush()
		}
	}
	flush()
	ch.finish()
	for _, h := range hs {
		if h != nil {
			close(h.batches)
		}
	}
	return total
}

// keyedBoundedRun is one vantage's event loop under the keyed tie-break:
// it schedules only the node's own arrivals (each at its precomputed
// explicit key, taken off the node's hand-off batches) and, as the
// scheduler's pre-fire hook, maintains the virtual chain cursor that
// keeps every implicit key bit-equal to the reference order's FIFO
// counter. The run object itself is the arrival event for every own
// session, so arrivals cost no per-event allocations.
type keyedBoundedRun struct {
	sched simtime.Scheduler
	node  *capture.Node
	ch    *chain
	in    *handoff
	batch []ownedSession // the hand-off batch being walked; batch[at:] is untaken
	at    int
	// released collects the query streams the node is done with until
	// the next batch goes back; ended stops collecting once the producer
	// has finished and nothing would take them.
	released [][]behavior.TimedQuery
	ended    bool
	// cur is the session this scheduled arrival delivers: a copy, because
	// its slot goes back to the producer with the batch's last session.
	cur      ownedSession
	chainPos uint64 // global arrivals counted as dispatched so far
	// arrivals is the fleet-wide throughput counter (atomic; nil when no
	// registry is installed — the Inc is then a nil-check no-op).
	arrivals *obs.Counter
}

// beforeFire is the scheduler's pre-fire hook. Own arrivals carry Pos 0
// (Pos ≥ 1 is reserved for implicit keys by the Reseed below), so the
// Epoch is the arrival's own chain position and the cursor jumps past it
// directly. For implicit events the cursor advances by searching the
// published chain — countThrough blocks this node's goroutine until the
// published prefix can order the event exactly; when it moved, the
// implicit key is reseeded to (cursor, 1) — Pos 0 of the new epoch stays
// reserved for the arrival holding that chain position, exactly as the
// reference dispatcher orders it.
func (r *keyedBoundedRun) beforeFire(at simtime.Time, key simtime.SeqKey) {
	if key.Pos == 0 {
		r.chainPos = key.Epoch + 1
		r.sched.Reseed(simtime.SeqKey{Epoch: r.chainPos, Pos: 1})
		return
	}
	if p := r.ch.countThrough(r.chainPos, at, key.Epoch); p > r.chainPos {
		r.chainPos = p
		r.sched.Reseed(simtime.SeqKey{Epoch: p, Pos: 1})
	}
}

// Fire dispatches the node's next own session, first scheduling the
// following one — the reference dispatcher's schedule-next-then-dispatch
// order.
func (r *keyedBoundedRun) Fire(now simtime.Time) {
	sess := r.cur.sess
	r.next()
	r.arrivals.Inc()
	r.node.Arrive(now, &sess)
}

// next takes the node's next own session off its batch, which may block
// until the producer delivers one, and schedules its arrival at its
// precomputed key. Taking a batch's last session hands the batch back.
func (r *keyedBoundedRun) next() {
	if r.at == len(r.batch) {
		b, ok := <-r.in.batches
		if !ok {
			r.ended, r.released = true, nil
			return
		}
		r.batch, r.at = b, 0
	}
	r.cur = r.batch[r.at]
	r.at++
	if r.in.probe != nil {
		r.in.probe(false)
	}
	if r.at == len(r.batch) {
		// Cleared so the ring holds no finished session's query stream,
		// which may be recycled into a later session's.
		clear(r.batch)
		sp := spent{batch: r.batch}
		if len(r.released) > 0 {
			select {
			case emptied := <-r.in.lists:
				sp.streams, r.released = r.released, emptied
			default:
			}
		}
		r.in.free <- sp
		r.batch, r.at = nil, 0
	}
	r.node.ScheduleArrival(r.cur.sess.Start, simtime.SeqKey{Epoch: r.cur.gidx}, r)
}

// recycle is the node's recycle hook: it keeps a stream the node is done
// with for the next batch handed back.
func (r *keyedBoundedRun) recycle(qs []behavior.TimedQuery) {
	if !r.ended {
		r.released = append(r.released, qs)
	}
}

// run simulates the vantage to the horizon against the bounded producer
// and finishes its stream with the trailer.
func (r *keyedBoundedRun) run(horizon simtime.Time) {
	// Reserve Pos 0 of epoch 0 for the virtual chain head before anything
	// is scheduled, keeping the epoch/Pos split an invariant from the
	// first event on.
	r.sched.Reseed(simtime.SeqKey{Epoch: 0, Pos: 1})
	r.sched.SetFireHook(r.beforeFire)
	r.next()
	r.sched.RunUntil(horizon)
	r.node.Finish(horizon)
}

// runFleet is the one fleet runner of Run and NodeStream: the bounded
// producer and, each on its own goroutine, every vantage i with a
// scheduler scheds[i], emitting into sinks[i] and counting its arrivals
// on arrivals. A vantage with a nil scheduler runs elsewhere: its handoff
// stays nil, so the producer drops its sessions. It returns the
// fleet-wide arrival count and the vantages it ran, nil for the others.
func runFleet(cfg Config, scheds []simtime.Scheduler, sinks []*stream.Producer, arrivals *obs.Counter) (uint64, []*capture.Node) {
	nodeCfg := cfg.Fleet.Node
	gen := behavior.NewGenerator(nodeCfg.Workload)
	shared := capture.NewSharedModel(gen)
	horizon := simtime.Time(nodeCfg.Workload.Days) * simtime.Day
	ch := newChain()
	hs := make([]*handoff, len(scheds))
	for i := range hs {
		if scheds[i] == nil {
			continue
		}
		hs[i] = newHandoff(cfg.window())
		if cfg.probe != nil {
			hs[i].probe = func(put bool) { cfg.probe(i, put) }
		}
	}
	var total uint64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		total = produceArrivals(cfg.Fleet, gen, ch, hs)
	}()
	nodes := make([]*capture.Node, len(scheds))
	for i, sched := range scheds {
		if sched == nil {
			continue
		}
		nodes[i] = capture.NewNode(nodeCfg, i, sched, shared, sinks[i])
		r := &keyedBoundedRun{sched: sched, node: nodes[i], ch: ch, in: hs[i], arrivals: arrivals}
		nodes[i].SetRecycle(r.recycle)
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.run(horizon)
		}()
	}
	wg.Wait()
	return total, nodes
}
