package capture

import (
	"time"

	"repro/internal/simtime"
)

// EventKind names what a scheduled vantage event does when it fires. The
// event loop is almost entirely per-connection background traffic
// (keepalives, forwarded queries, pongs and hits, idle probes), so every
// event is a typed record — a kind, a connection and at most one scalar —
// dispatched by one Fire, never a closure.
type EventKind uint8

const (
	KindKeepalive EventKind = iota
	KindRemoteQuery
	KindRemotePong
	KindRemoteHit
	KindProbe
	KindProbeReply
	KindSelfPong
	KindSessionEnd
	KindProbeDeadline // arg: the instant the probe was sent
	KindClientQuery   // arg: index into the session's queries
	KindResponseHit   // arg: index of the query record answered
	// KindArrival is the session arrival itself, scheduled by the driver
	// of the vantage (Node.ScheduleArrival), not by the vantage.
	KindArrival
	NumEventKinds

	// numFixedKinds splits the connection kinds: those below it carry no
	// argument, those from it on carry one.
	numFixedKinds = KindProbeDeadline
)

var eventKindNames = [NumEventKinds]string{
	KindKeepalive:     "keepalive",
	KindRemoteQuery:   "remote_query",
	KindRemotePong:    "remote_pong",
	KindRemoteHit:     "remote_hit",
	KindProbe:         "probe",
	KindProbeReply:    "probe_reply",
	KindSelfPong:      "self_pong",
	KindSessionEnd:    "session_end",
	KindProbeDeadline: "probe_deadline",
	KindClientQuery:   "client_query",
	KindResponseHit:   "response_hit",
	KindArrival:       "arrival",
}

// String returns the kind's metric label.
func (k EventKind) String() string { return eventKindNames[k] }

// EventCounts tallies scheduled events by kind.
type EventCounts [NumEventKinds]uint64

// connEvent is one scheduled event of a connection. A record without an
// argument never changes once its connection exists, so the single record
// embedded in the connection (simConn.fixed) serves however many
// instances of its kind are pending — one for the renewal chains and the
// cancellable probe timer, several for probe replies when ProbeIdle is
// shorter than ProbeTimeout. Records with an argument come from the
// vantage's free list and return to it when they fire.
type connEvent struct {
	c    *simConn
	arg  int64
	kind EventKind
}

// event draws an argument-carrying record from the free list.
func (s *vantage) event(kind EventKind, c *simConn, arg int64) *connEvent {
	var e *connEvent
	if n := len(s.freeEvents); n > 0 {
		e = s.freeEvents[n-1]
		s.freeEvents = s.freeEvents[:n-1]
	} else {
		e = new(connEvent)
	}
	*e = connEvent{kind: kind, c: c, arg: arg}
	return e
}

// schedule queues a connection event at an absolute instant and counts it.
func (s *vantage) schedule(at simtime.Time, e *connEvent) simtime.Handle {
	s.counts[e.kind]++
	return s.sched.Schedule(at, e)
}

// after queues a connection event delay after the current instant.
func (s *vantage) after(delay time.Duration, e *connEvent) simtime.Handle {
	return s.schedule(s.sched.Now()+delay, e)
}

// Fire implements simtime.Event.
func (e *connEvent) Fire(now simtime.Time) {
	c, kind, arg := e.c, e.kind, e.arg
	s := c.v
	if kind >= numFixedKinds {
		e.c = nil
		s.freeEvents = append(s.freeEvents, e)
	}
	switch kind {
	case KindKeepalive:
		s.keepaliveFire(c, now)
	case KindRemoteQuery, KindRemotePong, KindRemoteHit:
		s.remoteFire(c, kind, now)
	case KindProbe:
		s.probeFire(c, now)
	case KindProbeReply:
		s.probeReplyFire(c, now)
	case KindSelfPong:
		s.clientMessage(c, now, s.selfPong(c))
	case KindSessionEnd:
		s.sessionEndFire(c, now)
	case KindProbeDeadline:
		s.probeDeadlineFire(c, simtime.Time(arg), now)
	case KindClientQuery:
		s.clientMessage(c, now, s.queryEnvelope(&c.sess.Queries[arg]))
	case KindResponseHit:
		s.responseHitFire(c, int(arg), now)
	}
}
