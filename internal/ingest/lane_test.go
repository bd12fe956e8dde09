package ingest

import (
	"slices"
	"testing"
)

// FuzzSequencedLane drives one sendQueue → recvLane pair through a
// schedule read from ops, one step per byte: the low three bits pick the
// step, the rest (n) its argument.
//
//	0, 1  push n%8+1 more items, sent in frames of at most frameMax
//	2     deliver the frame at n%len (reordering)
//	3     deliver the oldest frame
//	4     drop the frame at n%len
//	5     duplicate the frame at n%len
//	6     deliver the ack at n%len to the sender
//	7     reconnect, or when n%4 == 0 restart: a fresh queue re-pushes
//	      from seq 1
//
// Item k is the value k, so exactly once in order means the applied log
// reads 1, 2, 3, …, and a final clean connection must deliver all total
// items and leave nothing unacked. The queue keeps the pushed slices
// themselves, so every slice ever pushed must still read as it did when
// it was pushed: the queue never writes into a caller's slice.
func FuzzSequencedLane(f *testing.F) {
	f.Add(uint8(24), uint8(5), uint8(8), []byte{0o70, 3, 3, 6, 0o70, 3, 3, 6})                         // in order
	f.Add(uint8(40), uint8(3), uint8(6), []byte{0o70, 0o70, 0o32, 0o15, 4, 2, 3, 6, 0o17, 3, 3, 0o26}) // reorder, dup, drop, reconnect
	f.Add(uint8(30), uint8(4), uint8(4), []byte{0o70, 3, 6, 7, 0o70, 0o70, 3, 3, 3, 6})                // restart
	f.Add(uint8(50), uint8(2), uint8(0), []byte{0o70, 0o22, 3, 0o70, 0o52, 6, 0o17, 3})                // overflow at bound 0
	f.Add(uint8(4), uint8(3), uint8(8), []byte{0o10, 0o10, 0o12, 0o17, 3})                             // a retransmit covers held items
	f.Fuzz(func(t *testing.T, total, frameMax, maxReorder uint8, ops []byte) {
		checkLane(t, int(total), int(frameMax)%16+1, int(maxReorder)%32, ops[:min(len(ops), 512)])
	})
}

func checkLane(t *testing.T, total, frameMax, maxReorder int, ops []byte) {
	type run struct {
		first uint64
		items []int
	}
	var (
		q    = &sendQueue[int]{next: 1}
		r    recvLane[int]
		fed  int      // items this sender life has pushed
		got  uint64   // the applied log is 1..got
		wire []run    // frames in flight
		acks []uint64 // acks in flight
		// pushed holds every slice handed to push, with a copy taken
		// before it was pushed.
		pushed [][2][]int
	)
	transmit := func(i int) { // q's runs from index i on, copied as the codec would
		_ = q.frames(i, frameMax, func(first uint64, items []int) error {
			if len(items) == 0 || len(items) > frameMax {
				t.Fatalf("frame of %d items, limit %d", len(items), frameMax)
			}
			wire = append(wire, run{first, slices.Clone(items)})
			return nil
		})
	}
	reconnect := func() { // in-flight traffic dies; the welcome acks the receiver's watermark
		wire, acks = nil, nil
		q.ack(r.applied)
		transmit(0)
	}
	push := func(n int) {
		batch := make([]int, min(n, total-fed))
		for i := range batch {
			fed++
			batch[i] = fed
		}
		pushed = append(pushed, [2][]int{batch, slices.Clone(batch)})
		transmit(q.push(batch))
	}
	apply := func(k int) {
		w := wire[k]
		wire = slices.Delete(wire, k, k+1)
		applied, held, reordered := r.applied, len(r.held), r.reordered
		out, ack, ok := r.apply(w.first, w.items, maxReorder)
		if !ok {
			if out != nil || r.applied != applied || len(r.held) != held || r.reordered != reordered || held+len(w.items) <= maxReorder {
				t.Fatalf("frame of %d at %d refused: applied %d→%d, held %d→%d, bound %d", len(w.items), w.first, applied, r.applied, held, len(r.held), maxReorder)
			}
			reconnect() // the collector drops the connection
			return
		}
		for _, v := range out {
			if got++; uint64(v) != got {
				t.Fatalf("item %d applied %dth: not exactly once in order", v, got)
			}
		}
		// got never decreases, so acks equal to it are monotone.
		if ack != got || len(r.held) > maxReorder {
			t.Fatalf("ack %d at watermark %d, %d held under bound %d", ack, got, len(r.held), maxReorder)
		}
		acks = append(acks, ack)
	}
	check := func() {
		i := 0
		for _, r := range q.runs.items() {
			if len(r) == 0 {
				t.Fatal("empty run queued")
			}
			for _, v := range r {
				if uint64(v) != q.acked+1+uint64(i) {
					t.Fatalf("queue position %d holds item %d, want seq %d", i, v, q.acked+1+uint64(i))
				}
				i++
			}
		}
		if i != q.unacked {
			t.Fatalf("runs hold %d items, unacked count %d", i, q.unacked)
		}
		for _, p := range pushed {
			if !slices.Equal(p[0], p[1]) {
				t.Fatalf("pushed slice modified: %v, pushed as %v", p[0], p[1])
			}
		}
		if q.acked > got {
			t.Fatalf("sender acked %d past the receiver's %d", q.acked, got)
		}
		for seq := range r.held {
			if seq <= got+1 {
				t.Fatalf("seq %d still held at watermark %d", seq, got)
			}
		}
	}

	reconnect()
	for _, b := range ops {
		n := int(b >> 3)
		switch op := b & 7; {
		case op <= 1:
			push(n%8 + 1)
		case op == 7:
			if n%4 == 0 {
				q, fed = &sendQueue[int]{next: 1}, 0
			}
			reconnect()
		case op == 6 && len(acks) > 0:
			q.ack(acks[n%len(acks)])
			acks = slices.Delete(acks, n%len(acks), n%len(acks)+1)
		case op == 6 || len(wire) == 0: // nothing in flight to act on
		case op == 2:
			apply(n % len(wire))
		case op == 3:
			apply(0)
		case op == 4:
			wire = slices.Delete(wire, n%len(wire), n%len(wire)+1)
		case op == 5:
			wire = append(wire, wire[n%len(wire)])
		}
		check()
	}

	push(total)
	reconnect()
	for len(wire) > 0 {
		apply(0)
	}
	q.ack(got)
	check()
	if got != uint64(total) || q.unacked != 0 || len(q.runs.items()) != 0 {
		t.Fatalf("applied %d of %d items, %d left unacked", got, total, q.unacked)
	}
}

// TestSendQueueSteadyStateAllocatesNothing: the queue keeps the pushed
// slices themselves, so once its run list has grown to the working depth,
// pushing and acking (whole runs and partly acked ones alike) allocates
// nothing.
func TestSendQueueSteadyStateAllocatesNothing(t *testing.T) {
	q := &sendQueue[int]{next: 1}
	batch := make([]int, 256)
	cycle := func() {
		for range 8 {
			q.push(batch)
		}
		q.ack(q.acked + 300) // two whole runs acked, the third resliced
		q.ack(q.next - 1)
	}
	cycle() // grows the run list to its working depth
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("push and ack took %.1f allocations per cycle, want 0", allocs)
	}
	if q.unacked != 0 || len(q.runs.items()) != 0 {
		t.Fatalf("%d items in %d runs left unacked", q.unacked, len(q.runs.items()))
	}
}
