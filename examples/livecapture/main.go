// Livecapture exercises the full protocol stack over real TCP: it starts
// an in-process measurement ultrapeer (the overlay engine and the
// capture.Recorder cmd/gnutellad runs), connects a handful of synthetic
// Gnutella clients that play behavior-generated session scripts —
// handshake, keyword queries, SHA1 source hunts, automated re-queries —
// over loopback sockets with time compressed, then drains what the node
// recorded into a trace and runs the Section 3.3 filter on it.
//
// Everything the offline pipeline computes works identically on this
// socket-fed trace; that is the point.
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"net/netip"
	"os"
	"sync"
	"time"

	"repro/internal/behavior"
	"repro/internal/capture"
	"repro/internal/filter"
	"repro/internal/guid"
	"repro/internal/overlay"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
	"repro/internal/workload"
)

// compress is the clients' time compression: 600× plays a 10-minute
// session in one second.
const compress = 600

// node is the live measurement ultrapeer.
type node struct {
	mu      sync.Mutex
	overlay *overlay.Node
	peers   map[int]*transport.Peer
	start   time.Time
	// rec records every connection under capture's observation policy,
	// at protocol-scale instants (see now).
	rec *capture.Recorder
}

func newNode(sink *stream.Producer) *node {
	n := &node{
		peers: make(map[int]*transport.Peer),
		start: time.Now(),
		rec:   capture.NewRecorder(capture.DefaultConfig(0, 0), rand.New(rand.NewPCG(42, 3)), sink),
	}
	n.overlay = overlay.New(overlay.Config{
		Self:      guid.NewSource(42, 1).Next(),
		Ultrapeer: true,
		Addr:      netip.MustParseAddr("127.0.0.1"),
		Port:      6346,
		Now:       func() time.Duration { return time.Since(n.start) },
		Send: func(conn int, env wire.Envelope) {
			if p, ok := n.peers[conn]; ok {
				_ = p.Send(env)
			}
		},
		GUIDs: guid.NewSource(42, 2),
	})
	return n
}

// now is the protocol-scale instant: the wall time since start, undoing
// the clients' time compression, so the filter sees protocol-scale times.
func (n *node) now() time.Duration { return compress * time.Since(n.start) }

func (n *node) serve(peer *transport.Peer) {
	info := peer.Info()
	addr, _ := netip.ParseAddrPort(peer.RemoteAddr().String())
	var c capture.Record
	n.mu.Lock()
	if !n.rec.Admit() {
		n.mu.Unlock()
		peer.Close()
		return
	}
	id := int(n.rec.Open(&c, n.now(), addr.Addr(), info.Ultrapeer, info.UserAgent))
	n.peers[id] = peer
	n.overlay.AddConn(id, info.Ultrapeer)
	n.mu.Unlock()

	for {
		env, err := peer.Recv()
		if err != nil {
			break
		}
		n.mu.Lock()
		n.rec.Wire(&c, n.now(), env)
		n.overlay.Receive(id, env)
		n.mu.Unlock()
	}
	n.mu.Lock()
	n.overlay.RemoveConn(id)
	delete(n.peers, id)
	n.rec.Close(&c, n.now(), false)
	n.mu.Unlock()
}

// playClient connects one synthetic client and replays its session script
// with time compressed by the given factor.
func playClient(addr string, sess *behavior.Session, compress float64) error {
	// Retrying with jittered backoff keeps a burst of synthetic clients
	// from all failing (or all retrying in lockstep) when they race the
	// daemon's accept loop; the seed keeps each client's schedule
	// deterministic per session.
	peer, err := transport.Dial(addr, transport.Options{
		UserAgent: sess.UserAgent,
		Ultrapeer: sess.Ultrapeer,
		Retry: transport.Retry{
			Max:  5,
			Base: 20 * time.Millisecond,
			Cap:  500 * time.Millisecond,
			Seed: uint64(sess.Start) + 1,
		},
	})
	if err != nil {
		return err
	}
	defer peer.Close()
	guids := guid.NewSource(uint64(sess.Start), 9)
	scale := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) / compress)
	}
	elapsed := time.Duration(0)
	for _, q := range sess.Queries {
		if wait := scale(q.Offset) - elapsed; wait > 0 {
			time.Sleep(wait)
			elapsed += wait
		}
		wq := &wire.Query{SearchText: q.Text}
		if q.SHA1 {
			wq.Extensions = []string{"urn:sha1:PLSTHIPQGSSZTS5FJUPAKUZWUGYQYPFB"}
		}
		// The hops counter is incremented before each transmission, so a
		// query arrives at a direct neighbor with hops = 1.
		env := wire.Envelope{
			Header:  wire.Header{GUID: guids.Next(), Type: wire.TypeQuery, TTL: 6, Hops: 1},
			Payload: wq,
		}
		if err := peer.Send(env); err != nil {
			return err
		}
	}
	if wait := scale(sess.Duration) - elapsed; wait > 0 {
		time.Sleep(wait)
	}
	return peer.Send(wire.NewEnvelope(guids.Next(), 1, &wire.Bye{Code: 200, Reason: "done"}))
}

func main() {
	// The recorder's stream drains through a one-input merge whose sink
	// is the online sketch layer — the same layer cmd/gnutellad serves
	// over HTTP.
	online := stream.NewOnline(stream.OnlineConfig{})
	m := stream.NewMerger(1, online)
	merged := make(chan *trace.Trace, 1)
	go func() { merged <- m.Run() }()
	n := newNode(stream.NewProducer(0, m.Intake()))
	l, err := transport.Listen("127.0.0.1:0", transport.Options{
		UserAgent: "repro-livecapture/1.0",
		Ultrapeer: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			peer, err := l.Accept()
			if err != nil {
				return
			}
			go n.serve(peer)
		}
	}()
	fmt.Printf("measurement node listening on %s\n", l.Addr())

	// Generate a handful of non-quick client sessions and play them with
	// time compressed 600× (a 10-minute session takes one second).
	cfg := workload.DefaultConfig(7, 0.002)
	cfg.Days = 1
	gen := behavior.NewGenerator(cfg)
	var sessions []*behavior.Session
	for s := gen.Next(); s != nil && len(sessions) < 8; s = gen.Next() {
		if !s.Quick && len(s.Queries) > 0 && s.Duration < 4*time.Hour {
			sessions = append(sessions, s)
		}
	}
	fmt.Printf("replaying %d active client sessions over TCP (%d× compressed)...\n", len(sessions), compress)
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func(s *behavior.Session) {
			defer wg.Done()
			if err := playClient(l.Addr().String(), s, compress); err != nil {
				log.Printf("client: %v", err)
			}
		}(s)
	}
	wg.Wait()
	time.Sleep(200 * time.Millisecond) // let the node drain closes

	// Sessions still open are censored here, as at the end of a real
	// capture.
	n.mu.Lock()
	n.rec.Finish(n.now())
	n.mu.Unlock()
	tr := <-merged

	fmt.Printf("\nnode observed: %d connections, %d hop-1 queries (%d QUERY, %d BYE)\n",
		len(tr.Conns), len(tr.Queries), tr.Counts.Query, tr.Counts.Bye)
	snap := online.Snapshot(5)
	if err := snap.WriteText(os.Stdout); err != nil {
		log.Fatal(err)
	}
	res := filter.Apply(tr)
	fmt.Printf("filter pipeline: rule1=%d rule2=%d rule3(sessions)=%d final=%d queries / %d sessions\n",
		res.Rule1SHA1, res.Rule2Duplicates, res.Rule3Sessions, res.FinalQueries, res.FinalSessions)
	for i := range res.Sessions {
		s := &res.Sessions[i]
		fmt.Printf("  conn %d (%s): %d user queries",
			s.Conn.ID, s.Conn.UserAgent, s.NumUserQueries())
		if first, ok := s.FirstQueryTime(); ok {
			fmt.Printf(", first after %v", first.Round(time.Second))
		}
		fmt.Println()
	}
}
