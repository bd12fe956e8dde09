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
	"repro/internal/trace"
)

// DefaultLookahead is the bounded producer's per-node session window: how
// many undelivered sessions one vantage's queue may hold before the
// producer blocks. 48 nodes × 1024 sessions bounds the in-flight session
// set to ≈50 k objects at any instant — versus the 4.36 M the eager
// pre-partition holds at paper scale.
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
// tie-break, nodes no longer consume foreign chain entries as events;
// they only need the conservative time window: before an implicit event
// at instant t fires, the node's chain cursor must know exactly how many
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

// countThrough is the bounded-mode chain cursor: the first chain position
// ≥ from that does not fire before an implicit event with key (at, epoch,
// pos ≥ 1), blocking until the published prefix suffices to answer
// exactly. Same order predicate and galloping search as the eager
// chainCount; the only difference is that the array grows underneath it.
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
// in the exact order the sequential fleet draws it — generator and
// session-GUID streams consumed identically, so the sharding is bit-equal
// to the eager partition — but publishes the arrival instants
// incrementally and hands each session (with its global chain position,
// the Epoch of its tie-break key) to its owner's bounded queue, blocking
// when that queue is full. Publication order is chain-before-session: by
// the time a node can fire arrival k, the chain prefix through k is
// published, and sessions arrive on each queue in exactly the order the
// node consumes them.
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
	owners := make([]uint32, 0, batch)
	sessions := make([]*behavior.Session, 0, batch)
	var total uint64
	flush := func() {
		if len(starts) == 0 {
			return
		}
		ch.publish(starts)
		base := total - uint64(len(starts))
		for i, s := range sessions {
			queues[owners[i]] <- ownedSession{sess: s, gidx: base + uint64(i)}
		}
		starts, owners, sessions = starts[:0], owners[:0], sessions[:0]
	}
	for sess := gen.Next(); sess != nil; sess = gen.Next() {
		g := guids.Next()
		n := g.Shard(cfg.Nodes)
		starts = append(starts, sess.Start)
		owners = append(owners, uint32(n))
		sessions = append(sessions, sess)
		total++
		if len(starts) == batch {
			flush()
		}
	}
	flush()
	ch.finish()
	for _, q := range queues {
		close(q)
	}
	return total
}

// keyedBoundedRun is one vantage's event loop against the incrementally
// published chain: the bounded-mode counterpart of keyedRun, firing the
// identical event sequence with the shared starts array replaced by the
// published chain (cursor searches may block until the producer catches
// up) and the partitioned session list replaced by a Lookahead-deep
// queue.
type keyedBoundedRun struct {
	sched    simtime.Scheduler
	node     *capture.Node
	ch       *chain
	queue    <-chan ownedSession
	cur      ownedSession // the session this scheduled arrival delivers
	chainPos uint64
	// arrivals is the fleet-wide throughput counter (atomic; nil when no
	// registry is installed — the Inc is then a nil-check no-op).
	arrivals *obs.Counter
}

// beforeFire mirrors keyedRun.beforeFire; countThrough blocks this node's
// goroutine until the published prefix can order the event exactly.
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
// delivers it) and scheduling it at its precomputed key.
func (r *keyedBoundedRun) Fire(now simtime.Time) {
	sess := r.cur.sess
	if next, ok := <-r.queue; ok {
		r.cur = next
		r.node.ScheduleArrival(next.sess.Start, simtime.SeqKey{Epoch: next.gidx}, r)
	}
	r.arrivals.Inc()
	r.node.Arrive(now, sess)
}

// runNodeBounded simulates one vantage to the horizon against the
// bounded producer, in retained mode (sink nil) or streaming-sink mode.
func runNodeBounded(cfg capture.Config, idx int, sched simtime.Scheduler, shared *capture.SharedModel,
	ch *chain, queue <-chan ownedSession, horizon simtime.Time, sink *stream.Producer, arrivals *obs.Counter) *capture.Node {
	sched.Reseed(simtime.SeqKey{Epoch: 0, Pos: 1})
	var node *capture.Node
	if sink != nil {
		node = capture.NewNodeStream(cfg, idx, sched, shared, sink)
	} else {
		node = capture.NewNode(cfg, idx, sched, shared)
	}
	r := &keyedBoundedRun{sched: sched, node: node, ch: ch, queue: queue, arrivals: arrivals}
	sched.SetFireHook(r.beforeFire)
	if first, ok := <-queue; ok {
		r.cur = first
		node.ScheduleArrival(first.sess.Start, simtime.SeqKey{Epoch: first.gidx}, r)
	}
	sched.RunUntil(horizon)
	node.FinalizeOpen(horizon)
	if sink != nil {
		node.FinishStream(horizon)
	}
	return node
}

// runBounded executes the whole fleet against the bounded producer. Every
// node runs on its own goroutine regardless of Workers — a blocked node
// parks its goroutine, so concurrency is throttled by the window, not by
// a task pool — and the producer runs on one more. In streaming mode
// (sink != nil) each node emits into its own stream.Producer over the
// merger's intake and per-node traces are never materialized.
func (e *Engine) runBounded(intake chan<- stream.Batch) {
	nodeCfg := e.cfg.Fleet.Node
	gen := behavior.NewGenerator(nodeCfg.Workload)
	shared := capture.NewSharedModel(gen)
	horizon := simtime.Time(nodeCfg.Workload.Days) * simtime.Day

	nodes := e.cfg.Fleet.Nodes
	la := e.cfg.Lookahead
	if la <= 0 {
		la = DefaultLookahead
	}
	ch := newChain()
	queues := make([]chan ownedSession, nodes)
	for i := range queues {
		queues[i] = make(chan ownedSession, la)
	}
	// Schedulers are built on the caller's goroutine (a panicking
	// constructor must surface where the memo guard applies, not on a
	// node goroutine).
	scheds := make([]simtime.Scheduler, nodes)
	for i := range scheds {
		scheds[i] = e.newSched()
	}

	var arrivals uint64
	var prodWG sync.WaitGroup
	prodWG.Add(1)
	go func() {
		defer prodWG.Done()
		arrivals = produceArrivals(e.cfg.Fleet, gen, ch, queues)
	}()

	arrCounter := e.cfg.Obs.Counter("engine_arrivals_total", "arrival events fired across all vantage nodes")
	e.nodeTraces = make([]*trace.Trace, nodes)
	e.schedPerNode = make([]uint64, nodes)
	e.kindsPerNode = make([]capture.EventCounts, nodes)
	perNode := make([]capture.NodeStats, nodes)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sink *stream.Producer
			if intake != nil {
				sink = stream.NewProducer(i, intake)
			}
			node := runNodeBounded(nodeCfg, i, scheds[i], shared, ch, queues[i], horizon, sink, arrCounter)
			e.nodeTraces[i] = node.Trace()
			perNode[i] = node.Stats()
			e.schedPerNode[i] = scheds[i].Scheduled()
			e.kindsPerNode[i] = node.EventCounts()
		}(i)
	}
	wg.Wait()
	prodWG.Wait()

	e.stats = capture.FleetStats{Arrivals: arrivals, PerNode: perNode}
	for i := range perNode {
		e.stats.Rejected += perNode[i].Rejected
		e.stats.DroppedQueryEvents += perNode[i].DroppedQueryEvents
	}
}

// RunStream executes the simulation in full streaming mode and returns
// the drained merged trace: the bounded producer feeds per-node event
// loops, each vantage emits records into the streaming k-way merge as
// they finalize, and sink (which may be nil) observes every merged
// session in the global merged order as it retires — except sessions
// longer than the merge window, which the sink observes last (see
// Config.MergeWindow). Per-node traces and the partitioned session set
// are never materialized — at paper scale this is what cuts the
// simulate-phase peak RSS — and the returned trace is byte-identical to
// Run()'s (pinned by test, verified at full volume by equal trace
// hashes). Subsequent calls return the memoized trace.
func (e *Engine) RunStream(sink stream.Sink) *trace.Trace {
	if e.ran {
		return e.merged
	}
	// One span covers the overlapped simulate+merge pipeline, emitted
	// from this goroutine only so journal line order stays deterministic
	// (per-node goroutines touch atomic metric handles, never the
	// journal).
	sp := e.cfg.Obs.Begin("simulate",
		obs.A("mode", "stream"), obs.A("nodes", e.cfg.Fleet.Nodes))
	merger := stream.NewMerger(e.cfg.Fleet.Nodes, sink)
	merger.SetObserver(e.cfg.Obs)
	merger.SetWindow(e.mergeWindow())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e.runBounded(merger.Intake())
	}()
	e.merged = merger.Run()
	wg.Wait()
	e.nodeTraces = nil // streaming nodes hold no records
	e.peakPending = merger.PeakPending()
	e.spilled = merger.Spilled()
	e.deadInputs = merger.DeadInputs()
	e.lostSessions = merger.LostSessions()
	sp.End(obs.A("arrivals", e.stats.Arrivals), obs.A("conns", len(e.merged.Conns)),
		obs.A("peak_pending", e.peakPending), obs.A("spilled", e.spilled))
	e.publishRunMetrics()
	// As in run(): the memo marks success only, so a panic recovered by
	// the caller leaves the engine retryable instead of poisoned.
	e.ran = true
	return e.merged
}
