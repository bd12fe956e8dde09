package ingest

import (
	"bytes"
	"sync"
)

// JournalShip is the bridge between a process's obs.Journal and its
// Emitter: an io.Writer the journal writes JSONL lines into, and a
// queue the emitter drains to ship those lines to the collector as
// journal frames. Point the journal at it directly (or via
// io.MultiWriter alongside a local file), hand it to
// EmitterConfig.Ship, and every span, event, heartbeat and snapshot the
// process records flows into the collector's fleet journal with the
// same at-least-once-send / exactly-once-apply contract as event data.
//
// The queue is unbounded: journal volume is a trickle (heartbeats,
// phase spans) next to event data, and dropping lines would tear the
// lane's sequence contract. Write never blocks and never fails, so the
// journal's error latch stays clear no matter what the network does.
type JournalShip struct {
	mu     sync.Mutex
	part   []byte   // trailing partial line, awaiting its '\n'
	lines  [][]byte // complete lines awaiting Take
	closed bool
	ready  chan struct{}
}

// NewJournalShip returns an empty ship.
func NewJournalShip() *JournalShip {
	return &JournalShip{ready: make(chan struct{}, 1)}
}

// Write queues complete newline-terminated lines and buffers any
// trailing partial line. Always succeeds (the ship never applies
// backpressure to the journal).
func (s *JournalShip) Write(p []byte) (int, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return len(p), nil
	}
	s.part = append(s.part, p...)
	queued := false
	for {
		i := bytes.IndexByte(s.part, '\n')
		if i < 0 {
			break
		}
		line := make([]byte, i)
		copy(line, s.part[:i])
		s.part = s.part[i+1:]
		if len(line) > 0 {
			s.lines = append(s.lines, line)
			queued = true
		}
	}
	s.mu.Unlock()
	if queued {
		s.signal()
	}
	return len(p), nil
}

// Close marks the stream complete: the emitter drains whatever is
// queued, waits for the collector's acks, and then lets Run return.
// Writes after Close are dropped. Idempotent, never fails.
func (s *JournalShip) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.signal()
	return nil
}

// Ready returns the channel the emitter selects on: it is signaled
// (capacity-1, coalescing) whenever lines become available or the ship
// closes.
func (s *JournalShip) Ready() <-chan struct{} { return s.ready }

// Take removes and returns every queued complete line, and whether the
// ship has been closed. The ship never touches the returned slice or its
// lines again, so the emitter queues them as they are.
func (s *JournalShip) Take() (lines [][]byte, closed bool) {
	s.mu.Lock()
	lines, s.lines = s.lines, nil
	closed = s.closed
	s.mu.Unlock()
	return lines, closed
}

func (s *JournalShip) signal() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}
