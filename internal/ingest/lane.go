package ingest

// The two sequenced lanes one connection carries. Each has its own seq
// space, its own frame kinds and its own cumulative ack.
const (
	laneEvents  = 0 // stream events: frameData / frameAck
	laneJournal = 1 // shipped journal lines: frameJournal / frameJournalAck
)

// sendQueue is the emitter half of one lane: every pushed item is
// numbered and kept until a cumulative ack covers it. The queue keeps the
// pushed slices themselves, as runs, and never copies or writes into
// them: the caller hands a slice over with push and does not touch it
// again. Unacked seqs are always contiguous — seqs are assigned
// consecutively and only an acked prefix is ever removed — so the runs,
// in order, carry seqs acked+1 … next-1 whenever unacked > 0.
type sendQueue[T any] struct {
	next    uint64    // seq the next pushed item gets
	acked   uint64    // cumulative ack watermark
	runs    fifo[[]T] // unacked items in seq order, as pushed
	unacked int       // items across runs

	frame func(p *parts, first uint64, items []T) *frame // fills p as one lane frame (see frames)
}

// push numbers items from next on and queues the ones past the acked
// watermark, as a subslice of items. Dropping the rest is the
// restart-resume rule: a restarted emitter regenerates its stream from
// seq 1, and the collector already applied everything ≤ acked in a
// previous life. push returns the index in q.runs.items() where the newly
// queued run sits, which is that length when nothing was queued.
func (q *sendQueue[T]) push(items []T) int {
	first := q.next
	q.next += uint64(len(items))
	if first <= q.acked {
		items = items[min(q.acked+1-first, uint64(len(items))):]
	}
	i := len(q.runs.items())
	if len(items) > 0 {
		q.runs.push(items)
		q.unacked += len(items)
	}
	return i
}

// ack moves the watermark to seq and drops the covered prefix: whole runs
// leave the queue, and a partly acked run is resliced. It reports whether
// the watermark moved (cumulative acks may arrive stale).
func (q *sendQueue[T]) ack(seq uint64) bool {
	if seq <= q.acked {
		return false
	}
	n := int(min(seq-q.acked, uint64(q.unacked)))
	q.acked = seq
	q.unacked -= n
	runs := q.runs.items()
	k := 0
	for ; n > 0 && n >= len(runs[k]); k++ {
		n -= len(runs[k])
	}
	if n > 0 {
		runs[k] = runs[k][n:]
	}
	q.runs.pop(k)
	return true
}

// frames walks the unacked items of the runs from index from on as frames
// of at most limit items, none spanning two runs, and hands each to write
// with the seq of its first item. It stops at the first error.
func (q *sendQueue[T]) frames(from, limit int, write func(first uint64, items []T) error) error {
	runs := q.runs.items()[from:]
	seq := q.next
	for _, r := range runs {
		seq -= uint64(len(r))
	}
	for _, r := range runs {
		for len(r) > 0 {
			n := min(len(r), limit)
			if err := write(seq, r[:n]); err != nil {
				return err
			}
			seq += uint64(n)
			r = r[n:]
		}
	}
	return nil
}

// fifo is a queue on one reused array: pop advances head over the
// popped items, and a push that finds the array full moves the live items
// down over them when they are at least a quarter of it. A steady
// push/pop cycle therefore allocates nothing, and an item is moved O(1)
// times on average.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && 4*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:]) // release what the moved-from slots reference
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// items returns the queued items, oldest first.
func (f *fifo[T]) items() []T { return f.buf[f.head:] }

// pop drops the n oldest items.
func (f *fifo[T]) pop(n int) {
	clear(f.buf[f.head : f.head+n]) // release what they reference
	f.head += n
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
}

// reset empties the queue and keeps its array.
func (f *fifo[T]) reset() { f.pop(len(f.items())) }

// recvLane is the collector half of one lane: items apply exactly once,
// in seq order.
type recvLane[T any] struct {
	applied   uint64       // highest contiguous seq applied: the cumulative ack
	held      map[uint64]T // items that arrived past a gap, copied: their frame's array is reused
	reordered int          // arrivals held past a gap, ever
}

// apply runs one frame — item i carries seq first+i — through the lane:
// duplicates (seq ≤ applied) are dropped, a frame past a gap is held, and
// the contiguous run this frame completes (its own items plus any held
// ones it unblocks) is returned with the new cumulative ack. ok is false,
// with nothing applied or held, when the held items plus this frame's
// would exceed maxReorder.
func (l *recvLane[T]) apply(first uint64, items []T, maxReorder int) (run []T, ack uint64, ok bool) {
	if first > l.applied+1 {
		// A frame's seqs are contiguous, so past a gap it is held whole.
		if len(l.held)+len(items) > maxReorder {
			return nil, l.applied, false
		}
		if l.held == nil {
			l.held = make(map[uint64]T)
		}
		for i, it := range items {
			l.held[first+uint64(i)] = it
		}
		l.reordered += len(items)
		return nil, l.applied, true
	}
	// Capacity-capped, so appending held items never writes into the
	// caller's array.
	run = items[min(l.applied+1-first, uint64(len(items))):len(items):len(items)]
	from := l.applied + 1
	l.applied += uint64(len(run))
	if len(l.held) == 0 {
		return run, l.applied, true
	}
	for seq := from; seq <= l.applied; seq++ {
		delete(l.held, seq) // an earlier out-of-order copy, now applied
	}
	for {
		it, held := l.held[l.applied+1]
		if !held {
			return run, l.applied, true
		}
		delete(l.held, l.applied+1)
		l.applied++
		run = append(run, it)
	}
}
