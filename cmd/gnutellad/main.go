// Command gnutellad runs a live Gnutella ultrapeer over TCP — the
// measurement node as a network service. It accepts v0.6 handshakes,
// routes messages with the same overlay engine the simulator uses, logs
// handshake metadata and hop-1 queries to stderr, and serves query hits
// from an optional shared-file list.
//
// With -metrics ADDR it also serves the live online characterization of
// everything it has ingested — Space-Saving top-K keyword ranking,
// streaming duration/interarrival quantiles, sliding-window arrival and
// query rates (internal/stream). http://ADDR/metrics is the Prometheus
// text exposition of the daemon's metric registry (online gauges, message
// counters, process stats; internal/obs); the historical JSON snapshot
// lives on at http://ADDR/metrics.json, and -pprof additionally mounts
// net/http/pprof under /debug/pprof/ on the same mux: the daemon-side
// half of the streaming pipeline, characterizing wire traffic as it
// arrives with bounded state.
//
// With -emit ADDR the daemon is also an ingest emitter: every closed
// connection's session record (with its hop-1 queries) is streamed to an
// ingest collector over the sequence-numbered resume protocol, so a live
// measurement node and simulated vantages (cmd/vantage) can feed the
// same merge. On SIGINT/SIGTERM the daemon sends its end-of-stream
// trailer and waits for the final ack before exiting; sessions still
// open at shutdown are not emitted.
//
// It pairs with examples/livecapture, which connects synthetic clients
// and runs the filter pipeline on what the daemon observed.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/guid"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/stream"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:6346", "listen address")
	library := flag.String("library", "", "optional file with one shared file name per line")
	metrics := flag.String("metrics", "", "optional HTTP address serving Prometheus text at /metrics and the online characterization JSON at /metrics.json")
	pprofFlag := flag.Bool("pprof", false, "with -metrics: mount net/http/pprof under /debug/pprof/")
	emit := flag.String("emit", "", "optional ingest collector address to stream session records to")
	emitInput := flag.Int("emit-input", 0, "collector input index this daemon feeds")
	journalPath := flag.String("journal", "", "write this process's run journal (JSONL) to this file")
	shipJournal := flag.Bool("ship-journal", false, "with -emit: ship journal lines to the collector in-band, merging them into its fleet journal")
	heartbeat := flag.Duration("heartbeat", 0, "journal heartbeat period (0 = none)")
	idleTimeout := flag.Duration("idle-timeout", 5*time.Minute, "reap connections silent for this long (0 disables)")
	flag.Parse()

	var files []overlay.SharedFile
	if *library != "" {
		f, err := os.Open(*library)
		if err != nil {
			log.Fatalf("library: %v", err)
		}
		sc := bufio.NewScanner(f)
		for i := 0; sc.Scan(); i++ {
			name := strings.TrimSpace(sc.Text())
			if name != "" {
				files = append(files, overlay.SharedFile{Index: uint32(i), Name: name, SizeKB: 1024})
			}
		}
		f.Close()
	}

	d := newDaemon(files)
	l, err := transport.Listen(*listen, transport.Options{
		UserAgent: "repro-gnutellad/1.0",
		Ultrapeer: true,
	})
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("gnutellad listening on %s (%d shared files)", l.Addr(), len(files))
	if *metrics != "" {
		ml, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("metrics listen: %v", err)
		}
		log.Printf("metrics on http://%s/metrics (legacy JSON at /metrics.json)", ml.Addr())
		go func() {
			if err := http.Serve(ml, d.metricsHandler(*pprofFlag)); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	// The daemon's run journal: a local JSONL file, the in-band ship to
	// the collector's fleet journal (lane "gnutellad<input>"), or both.
	var (
		jws    []io.Writer
		jfile  *os.File
		ship   *ingest.JournalShip
		jl     *obs.Journal
		stopHB = func() {}
	)
	if *journalPath != "" {
		f, err := os.Create(*journalPath)
		if err != nil {
			log.Fatalf("journal: %v", err)
		}
		jfile = f
		jws = append(jws, f)
	}
	if *shipJournal {
		if *emit == "" {
			log.Fatal("gnutellad: -ship-journal requires -emit")
		}
		ship = ingest.NewJournalShip()
		jws = append(jws, ship)
	}
	if len(jws) > 0 {
		jl = obs.NewJournal(io.MultiWriter(jws...))
	}

	var emitDone chan error
	if *emit != "" {
		em := ingest.NewEmitter(ingest.EmitterConfig{
			Addr:   *emit,
			Input:  *emitInput,
			Obs:    &obs.Observer{Metrics: d.reg, Journal: jl},
			Ship:   ship,
			Source: fmt.Sprintf("gnutellad%d", *emitInput),
		})
		d.emitter = em
		d.prod = stream.NewProducer(*emitInput, em.Intake())
		emitDone = make(chan error, 1)
		go func() { emitDone <- em.Run() }()
		log.Printf("emitting session records to %s as input %d", *emit, *emitInput)
	}
	serveSpan := jl.Begin("serve", obs.A("input", *emitInput))
	stopHB = obs.StartHeartbeat(jl, *heartbeat, nil)

	// SIGINT/SIGTERM closes the listener; the accept loop sees the
	// permanent error and falls through to the drain below.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("gnutellad: %v, shutting down", s)
		l.Close()
	}()

	// Accept loop: per-connection failures (rejected handshakes) retry
	// immediately, resource-exhaustion errors back off exponentially, and
	// permanent errors — the listener closed, above — end the loop instead
	// of spinning on it.
	var ab transport.AcceptBackoff
	for {
		peer, err := l.Accept()
		if err != nil {
			delay, retry := ab.Next(err)
			if !retry {
				log.Printf("accept: %v (permanent, stopping)", err)
				break
			}
			log.Printf("accept: %v", err)
			if delay > 0 {
				time.Sleep(delay)
			}
			continue
		}
		ab.Reset()
		go d.serve(peer, *idleTimeout)
	}

	d.mu.Lock()
	serveSpan.End(obs.A("queries", d.counts.Query), obs.A("hop1_queries", d.counts.QueryHop1))
	d.mu.Unlock()
	if d.prod != nil {
		d.mu.Lock()
		d.prod.Done(time.Since(d.start), &stream.End{Counts: d.counts, Nodes: 1})
		d.prod.Flush()
		d.mu.Unlock()
		close(d.emitter.Intake())
		// Final journal lines go out after the last event ack (the
		// deterministic snapshot point), then closing the ship lets the
		// emitter's Run return once the collector acked the journal too.
		deadline := time.After(30 * time.Second)
		var emitErr error
		gotErr := false
		select {
		case emitErr = <-emitDone:
			gotErr = true
		case <-d.emitter.EventsDrained():
		case <-deadline:
			log.Printf("emit: timed out waiting for final ack")
			os.Exit(1)
		}
		stopHB()
		ob := &obs.Observer{Metrics: d.reg, Journal: jl}
		ob.SnapshotMetrics()
		ob.SnapshotLatency()
		if ship != nil {
			_ = ship.Close()
		}
		if !gotErr {
			select {
			case emitErr = <-emitDone:
			case <-deadline:
				log.Printf("emit: timed out waiting for journal drain")
				os.Exit(1)
			}
		}
		if emitErr != nil {
			log.Printf("emit: %v", emitErr)
			os.Exit(1)
		}
		log.Printf("emit: stream acked, clean shutdown")
	} else {
		stopHB()
		(&obs.Observer{Metrics: d.reg, Journal: jl}).SnapshotMetrics()
	}
	if err := jl.Err(); err != nil {
		log.Printf("journal: %v", err)
		os.Exit(1)
	}
	if jfile != nil {
		_ = jfile.Close()
	}
}

// liveConn is the daemon's per-connection record under construction: the
// open time and the hop-1 queries observed so far, finalized into a
// session record at close.
type liveConn struct {
	start   trace.Time
	queries []trace.Query
}

// daemon serializes the single overlay node across connection goroutines.
type daemon struct {
	mu     sync.Mutex
	node   *overlay.Node
	peers  map[int]*transport.Peer
	opened map[int]*liveConn // conn id → in-progress session record
	counts trace.MessageCounts
	nextID int
	start  time.Time
	online *stream.Online

	// The daemon's metric registry: online characterization gauges,
	// wire-message counters, process stats — what /metrics serves.
	reg     *obs.Registry
	mConns  *obs.Counter
	mQuery  *obs.Counter
	mHop1   *obs.Counter
	mActive *obs.Gauge

	// emitter/prod are set when -emit is configured; prod is guarded by mu.
	emitter *ingest.Emitter
	prod    *stream.Producer
}

func newDaemon(files []overlay.SharedFile) *daemon {
	d := &daemon{
		peers:  make(map[int]*transport.Peer),
		opened: make(map[int]*liveConn),
		start:  time.Now(),
		online: stream.NewOnline(stream.OnlineConfig{}),
		reg:    obs.NewRegistry(),
	}
	obs.RegisterProcessMetrics(d.reg)
	d.online.Register(d.reg)
	d.mConns = d.reg.Counter("gnutellad_conns_total", "peer connections accepted")
	d.mQuery = d.reg.Counter("gnutellad_queries_total", "QUERY messages received at any hop count")
	d.mHop1 = d.reg.Counter("gnutellad_queries_hop1_total", "hop-1 QUERY messages recorded")
	d.mActive = d.reg.Gauge("gnutellad_active_conns", "currently open peer connections")
	d.node = overlay.New(overlay.Config{
		Self:      guid.NewSource(uint64(time.Now().UnixNano()), 1).Next(),
		Ultrapeer: true,
		Addr:      netip.MustParseAddr("127.0.0.1"),
		Port:      6346,
		Library:   files,
		Now:       func() time.Duration { return time.Since(d.start) },
		Send: func(conn int, env wire.Envelope) {
			if p, ok := d.peers[conn]; ok {
				if err := p.Send(env); err != nil {
					log.Printf("send to %d: %v", conn, err)
				}
			}
		},
		OnMessage: func(conn int, env wire.Envelope) {
			if q, ok := env.Payload.(*wire.Query); ok {
				d.counts.Query++
				d.mQuery.Inc()
				if env.Header.Hops != 1 {
					return
				}
				d.counts.QueryHop1++
				d.mHop1.Inc()
				log.Printf("conn %d query %q (sha1=%v)", conn, q.SearchText, q.HasSHA1())
				at := time.Since(d.start)
				d.online.ObserveQuery(at, q.SearchText, q.HasSHA1())
				if lc, ok := d.opened[conn]; ok {
					lc.queries = append(lc.queries, trace.Query{
						ConnID: uint64(conn),
						At:     at,
						Text:   q.SearchText,
						SHA1:   q.HasSHA1(),
						TTL:    env.Header.TTL,
						Hops:   env.Header.Hops,
					})
				}
			}
		},
		GUIDs: guid.NewSource(uint64(time.Now().UnixNano()), 2),
	})
	return d
}

// metricsHandler serves the daemon's observability surface: the metric
// registry as Prometheus text at /metrics, the online characterization
// snapshot as JSON at /metrics.json, and optionally pprof.
func (d *daemon) metricsHandler(pprof bool) http.Handler {
	legacy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d.online.Snapshot(20)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return obs.NewHTTPHandler(obs.HTTPConfig{Registry: d.reg, LegacyJSON: legacy, Pprof: pprof})
}

func (d *daemon) serve(peer *transport.Peer, idle time.Duration) {
	d.mu.Lock()
	id := d.nextID
	d.nextID++
	d.peers[id] = peer
	d.mConns.Inc()
	d.mActive.SetInt(int64(len(d.peers)))
	start := time.Since(d.start)
	d.opened[id] = &liveConn{start: start}
	d.node.AddConn(id, peer.Info().Ultrapeer)
	if d.prod != nil {
		d.prod.Open(uint64(id), start)
		d.prod.Flush()
	}
	d.mu.Unlock()
	log.Printf("conn %d from %s (%s, ultrapeer=%v)",
		id, peer.RemoteAddr(), peer.Info().UserAgent, peer.Info().Ultrapeer)

	defer func() {
		d.mu.Lock()
		d.node.RemoveConn(id)
		delete(d.peers, id)
		d.mActive.SetInt(int64(len(d.peers)))
		lc := d.opened[id]
		delete(d.opened, id)
		end := time.Since(d.start)
		conn := &trace.Conn{
			ID:        uint64(id),
			Start:     lc.start,
			End:       end,
			Ultrapeer: peer.Info().Ultrapeer,
			UserAgent: peer.Info().UserAgent,
		}
		if tcp, ok := peer.RemoteAddr().(*net.TCPAddr); ok {
			if a, ok := netip.AddrFromSlice(tcp.IP); ok {
				conn.Addr = a.Unmap()
			}
		}
		// The session record is final at close: feed it to the online
		// layer with no queries — those were observed individually at
		// receipt, and MergedSession would observe them a second time.
		// The emitted record carries them, because the collector side has
		// seen nothing yet.
		d.online.MergedSession(conn, nil)
		if d.prod != nil {
			d.prod.Close(uint64(id), end, &stream.SessionRecord{Conn: *conn, Queries: lc.queries})
			d.prod.Flush()
		}
		d.mu.Unlock()
		peer.Close()
		log.Printf("conn %d closed", id)
	}()

	for {
		if idle > 0 {
			_ = peer.SetReadDeadline(time.Now().Add(idle))
		}
		env, err := peer.Recv()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				log.Printf("conn %d idle %v, reaping", id, idle)
			}
			return
		}
		d.mu.Lock()
		d.node.Receive(id, env)
		d.mu.Unlock()
	}
}
