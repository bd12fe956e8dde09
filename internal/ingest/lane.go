package ingest

// The two sequenced lanes one connection carries. Each has its own seq
// space, its own frame kinds and its own cumulative ack.
const (
	laneEvents  = 0 // stream events: frameData / frameAck
	laneJournal = 1 // shipped journal lines: frameJournal / frameJournalAck
)

// sendQueue is the emitter half of one lane: every pushed item is
// numbered and kept until a cumulative ack covers it. Unacked seqs are
// always contiguous — seqs are assigned consecutively and only an acked
// prefix is ever removed — so an item's seq is its position: items[i]
// carries seq acked+1+i.
type sendQueue[T any] struct {
	next  uint64 // seq the next pushed item gets
	acked uint64 // cumulative ack watermark
	items []T    // unacked items, in seq order

	frame func(first uint64, items []T) *frame // builds one lane frame (see send)
}

// push numbers items from next on and queues the ones past the acked
// watermark. Dropping the rest is the restart-resume rule: a restarted
// emitter regenerates its stream from seq 1, and the collector already
// applied everything ≤ acked in a previous life. push returns the index
// in q.items where the newly queued run starts.
func (q *sendQueue[T]) push(items []T) int {
	first := q.next
	q.next += uint64(len(items))
	if first <= q.acked {
		items = items[min(q.acked+1-first, uint64(len(items))):]
	}
	i := len(q.items)
	q.items = append(q.items, items...)
	return i
}

// ack moves the watermark to seq and drops the covered prefix, reporting
// whether the watermark moved (cumulative acks may arrive stale).
func (q *sendQueue[T]) ack(seq uint64) bool {
	if seq <= q.acked {
		return false
	}
	n := min(seq-q.acked, uint64(len(q.items)))
	clear(q.items[:n]) // the array outlives the reslice until append outgrows it
	q.items = q.items[n:]
	q.acked = seq
	return true
}

// recvLane is the collector half of one lane: items apply exactly once,
// in seq order.
type recvLane[T any] struct {
	applied   uint64       // highest contiguous seq applied: the cumulative ack
	held      map[uint64]T // items that arrived past a gap
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
