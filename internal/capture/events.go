package capture

import "repro/internal/simtime"

// EventKind names what a scheduled vantage event does when it fires. The
// event loop is almost entirely per-connection background traffic
// (keepalives, forwarded queries, pongs and hits, idle probes), so every
// event is a typed record — a kind, a connection and at most one scalar —
// dispatched by one switch (Node.fire), never a closure.
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

// fixedEvent is one scheduled argument-less event of a connection. Such a
// record never changes once its connection exists, so the single record
// embedded in the connection (simConn.fixed) serves however many
// instances of its kind are pending — one for the renewal chains and the
// cancellable probe timer, several for probe replies when ProbeIdle is
// shorter than ProbeTimeout.
type fixedEvent struct {
	c    *simConn
	kind EventKind
}

// connEvent is one scheduled event of a connection that carries an
// argument. These come from the node's pool and return to it when they
// fire.
type connEvent struct {
	c    *simConn
	arg  int64
	kind EventKind
	id   uint32 // the record's name in the node's events pool
}

// scheduleFixed queues the connection's own record of an argument-less
// kind at an absolute instant and counts it.
func (s *Node) scheduleFixed(at simtime.Time, c *simConn, kind EventKind) simtime.Handle {
	s.counts[kind]++
	c.pending++
	return s.sched.Schedule(at, &c.fixed[kind])
}

// scheduleArg draws a record carrying arg from the pool, queues it at an
// absolute instant and counts it.
func (s *Node) scheduleArg(at simtime.Time, c *simConn, kind EventKind, arg int64) {
	s.counts[kind]++
	c.pending++
	id := s.events.Get()
	e := s.events.At(id)
	*e = connEvent{kind: kind, c: c, arg: arg, id: id}
	s.sched.Schedule(at, e)
}

// Fire implements simtime.Event.
func (e *fixedEvent) Fire(now simtime.Time) {
	e.c.pending--
	e.c.v.fire(e.c, e.kind, 0, now)
}

// Fire implements simtime.Event: the record goes back to the pool
// before its event runs, which may draw it again.
func (e *connEvent) Fire(now simtime.Time) {
	c, kind, arg := e.c, e.kind, e.arg
	e.c = nil
	c.pending--
	c.v.events.Put(e.id)
	c.v.fire(c, kind, arg, now)
}

// fire dispatches one connection event of either record type. A closed
// connection whose last pending event this was goes back to the pool:
// nothing queued names it any more, so Arrive may reuse it.
func (s *Node) fire(c *simConn, kind EventKind, arg int64, now simtime.Time) {
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
		s.selfPongFire(c, now)
	case KindSessionEnd:
		s.sessionEndFire(c, now)
	case KindProbeDeadline:
		s.probeDeadlineFire(c, simtime.Time(arg), now)
	case KindClientQuery:
		s.clientQueryFire(c, int(arg), now)
	case KindResponseHit:
		s.responseHitFire(c, int(arg), now)
	}
	if c.closed && c.pending == 0 {
		s.conns.Put(c.id)
	}
}
