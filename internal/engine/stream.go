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
// many undelivered sessions one vantage's queue may hold before the
// producer blocks. 48 nodes × 1024 sessions bounds the in-flight session
// set to ≈50 k objects at any instant, against the 4.36 M arrivals of the
// paper-scale run.
const DefaultLookahead = 1024

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
			grown := make([]*chainChunk, len(dir), len(dir)+1)
			copy(grown, dir)
			grown = append(grown, &chainChunk{})
			dir = grown
			c.dir.Store(&dir)
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

// produceArrivals is the bounded producer: it replays the arrival process
// in generation order — generator and session-GUID streams consumed in
// the one order every vantage agrees on (any divergence would shift every
// tie-break key) — publishes the arrival instants incrementally and hands
// each session (with its global chain position, the Epoch of its
// tie-break key) to its owner's bounded queue, blocking when that queue
// is full. A nil queue is the ownership filter: the vantage is simulated
// elsewhere (another NodeStream process), so its sessions are dropped
// after their instants are published. Publication order is
// chain-before-session: by the time a node can fire arrival k, the chain
// prefix through k is published, and sessions arrive on each queue in
// exactly the order the node consumes them.
//
// Deadlock freedom: the producer blocks only on the slowest node's full
// queue; that node always has a queue's worth of sessions whose chain
// prefix is fully published (publish precedes enqueue, and arrivals are
// start-ordered), so its cursor can always resolve and it drains; every
// other node either progresses on published entries or sleeps in
// countThrough / its queue read, holding no resource the producer needs.
func produceArrivals(cfg capture.FleetConfig, gen *behavior.Generator, ch *chain, queues []chan ownedSession) uint64 {
	guids := guid.NewSource(cfg.Node.Workload.Seed, capture.SessionGUIDSalt)
	const batch = 512
	starts := make([]simtime.Time, 0, batch)
	owned := make([]ownedSession, 0, batch)
	owners := make([]uint32, 0, batch)
	var total uint64
	flush := func() {
		if len(starts) == 0 {
			return
		}
		ch.publish(starts)
		for i, os := range owned {
			queues[owners[i]] <- os
		}
		starts, owned, owners = starts[:0], owned[:0], owners[:0]
	}
	var sess behavior.Session
	for gen.NextInto(&sess) {
		n := guids.Next().Shard(cfg.Nodes)
		if queues[n] != nil {
			owned = append(owned, ownedSession{sess: sess, gidx: total})
			owners = append(owners, uint32(n))
		}
		starts = append(starts, sess.Start)
		total++
		if len(starts) == batch {
			flush()
		}
	}
	flush()
	ch.finish()
	for _, q := range queues {
		if q != nil {
			close(q)
		}
	}
	return total
}

// keyedBoundedRun is one vantage's event loop under the keyed tie-break:
// it schedules only the node's own arrivals (each at its precomputed
// explicit key, pulled from the node's queue) and, as the scheduler's
// pre-fire hook, maintains the virtual chain cursor that keeps every
// implicit key bit-equal to the reference order's FIFO counter. The run
// object itself is the arrival event for every own session, so arrivals
// cost no per-event allocations.
type keyedBoundedRun struct {
	sched    simtime.Scheduler
	node     *capture.Node
	ch       *chain
	queue    <-chan ownedSession
	cur      ownedSession // the session this scheduled arrival delivers
	chainPos uint64       // global arrivals counted as dispatched so far
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

// Fire dispatches the node's next own session, first pulling the
// following one off the queue (which may block until the producer
// delivers it) and scheduling it at its precomputed key — the reference
// dispatcher's schedule-next-then-dispatch order.
func (r *keyedBoundedRun) Fire(now simtime.Time) {
	sess := r.cur.sess
	if next, ok := <-r.queue; ok {
		r.cur = next
		r.node.ScheduleArrival(next.sess.Start, simtime.SeqKey{Epoch: next.gidx}, r)
	}
	r.arrivals.Inc()
	r.node.Arrive(now, &sess)
}

// runNodeBounded simulates vantage idx to the horizon against the bounded
// producer, emitting every record into sink and finishing with the
// stream trailer.
func runNodeBounded(cfg capture.Config, idx int, sched simtime.Scheduler, shared *capture.SharedModel,
	ch *chain, queue <-chan ownedSession, horizon simtime.Time, sink *stream.Producer, arrivals *obs.Counter) *capture.Node {
	// Reserve Pos 0 of epoch 0 for the virtual chain head before anything
	// is scheduled, keeping the epoch/Pos split an invariant from the
	// first event on.
	sched.Reseed(simtime.SeqKey{Epoch: 0, Pos: 1})
	node := capture.NewNode(cfg, idx, sched, shared, sink)
	r := &keyedBoundedRun{sched: sched, node: node, ch: ch, queue: queue, arrivals: arrivals}
	sched.SetFireHook(r.beforeFire)
	if first, ok := <-queue; ok {
		r.cur = first
		node.ScheduleArrival(first.sess.Start, simtime.SeqKey{Epoch: first.gidx}, r)
	}
	sched.RunUntil(horizon)
	node.Finish(horizon)
	return node
}
