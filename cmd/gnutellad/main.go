// Command gnutellad runs a live Gnutella ultrapeer over TCP — the
// measurement node as a network service. It accepts v0.6 handshakes,
// routes messages with internal/overlay, records them under the
// simulated vantage's observation policy (capture.Recorder at
// capture.DefaultConfig: the 200-connection cap, per-type counts, hop-1
// queries, sampled pong and hit records), logs handshake metadata and
// hop-1 queries to stderr, and serves query hits from an optional
// shared-file list.
//
// With -metrics ADDR it also serves the live online characterization of
// everything it has ingested — Space-Saving top-K keyword ranking,
// streaming duration/interarrival quantiles, sliding-window arrival and
// query rates (internal/stream). http://ADDR/metrics is the Prometheus
// text exposition of the daemon's metric registry (online gauges, message
// counters, process stats; internal/obs). http://ADDR/online.json is the
// online snapshot as JSON — the one view the registry cannot hold, since
// it carries the top-K keywords themselves — and -pprof additionally
// mounts net/http/pprof under /debug/pprof/ on the same mux: the daemon-side
// half of the streaming pipeline, characterizing wire traffic as it
// arrives with bounded state.
//
// With -emit ADDR the daemon is also an ingest emitter: its record
// stream (session, pong and hit records) is streamed to an ingest
// collector over the sequence-numbered resume protocol, so a live
// measurement node and simulated vantages (cmd/vantage) can feed the
// same merge; without it the stream is dropped. On SIGINT/SIGTERM the
// daemon censors the sessions still open, sends its end-of-stream
// trailer and waits for the final ack before exiting.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"net"
	"net/http"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/capture"
	"repro/internal/guid"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/overlay"
	"repro/internal/stream"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:6346", "listen address")
	library := flag.String("library", "", "optional file with one shared file name per line")
	metrics := flag.String("metrics", "", "optional HTTP address serving Prometheus text at /metrics and the online characterization JSON at /online.json")
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

	l, err := transport.Listen(*listen, transport.Options{
		UserAgent: "repro-gnutellad/1.0",
		Ultrapeer: true,
	})
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	d := newDaemon(files, l.Addr())
	log.Printf("gnutellad listening on %s (%d shared files)", l.Addr(), len(files))
	if *metrics != "" {
		ml, err := net.Listen("tcp", *metrics)
		if err != nil {
			log.Fatalf("metrics listen: %v", err)
		}
		log.Printf("metrics on http://%s/metrics (online snapshot at /online.json)", ml.Addr())
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

	var em *ingest.Emitter
	var emitDone chan error
	var out chan<- stream.Batch
	if *emit != "" {
		em = ingest.NewEmitter(ingest.EmitterConfig{
			Addr:   *emit,
			Input:  *emitInput,
			Obs:    &obs.Observer{Metrics: d.reg, Journal: jl},
			Ship:   ship,
			Source: fmt.Sprintf("gnutellad%d", *emitInput),
		})
		out = em.Intake()
		emitDone = make(chan error, 1)
		go func() { emitDone <- em.Run() }()
		log.Printf("emitting session records to %s as input %d", *emit, *emitInput)
	}
	d.recordTo(*emitInput, out)
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

	serveSpan.End(obs.A("queries", d.mQuery.Value()), obs.A("hop1_queries", d.mHop1.Value()))
	d.finish()
	if em != nil {
		// Final journal lines go out after the last event ack (the
		// deterministic snapshot point), then closing the ship lets the
		// emitter's Run return once the collector acked the journal too.
		deadline := time.After(30 * time.Second)
		var emitErr error
		gotErr := false
		select {
		case emitErr = <-emitDone:
			gotErr = true
		case <-em.EventsDrained():
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

// daemon serializes the overlay node and the recorder across connection
// goroutines.
type daemon struct {
	mu     sync.Mutex
	node   *overlay.Node
	peers  map[int]*transport.Peer
	online *stream.Online
	// now is the daemon's one clock, read for every recorded instant and
	// by the overlay node: wall time since newDaemon. Only tests replace
	// it, before the first serve.
	now func() time.Duration

	// rec records every connection into prod, whose batches go to out
	// (see recordTo); all three are guarded by mu.
	rec  *capture.Recorder
	prod *stream.Producer
	out  chan<- stream.Batch

	// The daemon's metric registry: online characterization gauges,
	// wire-message counters, process stats — what /metrics serves.
	reg     *obs.Registry
	mConns  *obs.Counter
	mQuery  *obs.Counter
	mHop1   *obs.Counter
	mActive *obs.Gauge
}

// newDaemon builds a daemon for the listener bound at listen. Its PONGs
// and QUERYHITs advertise that port, and that address unless it is the
// unspecified one, which no peer can reach, or IPv6, which they cannot
// carry (loopback stands in).
func newDaemon(files []overlay.SharedFile, listen net.Addr) *daemon {
	start := time.Now()
	d := &daemon{
		peers:  make(map[int]*transport.Peer),
		now:    func() time.Duration { return time.Since(start) },
		online: stream.NewOnline(stream.OnlineConfig{}),
		reg:    obs.NewRegistry(),
	}
	self := listen.(*net.TCPAddr).AddrPort()
	addr := self.Addr().Unmap()
	if addr.IsUnspecified() || !addr.Is4() {
		addr = netip.MustParseAddr("127.0.0.1")
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
		Addr:      addr,
		Port:      self.Port(),
		Library:   files,
		Now:       func() time.Duration { return d.now() },
		Send: func(conn int, env wire.Envelope) {
			if p, ok := d.peers[conn]; ok {
				if err := p.Send(env); err != nil {
					log.Printf("send to %d: %v", conn, err)
				}
			}
		},
		GUIDs: guid.NewSource(uint64(time.Now().UnixNano()), 2),
	})
	return d
}

// recordTo starts the daemon's recorder, streaming into out as ingest
// input index input; a nil out is drained and dropped. The recorder runs
// the paper's configuration with no seed or scale, which a live trace
// has not. Call it once, before serve.
func (d *daemon) recordTo(input int, out chan<- stream.Batch) {
	if out == nil {
		ch := make(chan stream.Batch)
		go func() {
			for range ch {
			}
		}()
		out = ch
	}
	d.out = out
	d.prod = stream.NewProducer(input, out)
	rng := rand.New(rand.NewPCG(uint64(time.Now().UnixNano()), 3))
	d.rec = capture.NewRecorder(capture.DefaultConfig(0, 0), rng, d.prod)
}

// finish ends the capture: it right-censors the sessions still open,
// sends the stream trailer and closes the record stream's channel. Serve
// goroutines of peers still connected run on, but their records are
// closed, so what they receive or close later records nothing.
func (d *daemon) finish() {
	d.mu.Lock()
	d.rec.Finish(d.now())
	d.mu.Unlock()
	close(d.out)
}

// metricsHandler serves the daemon's observability surface: the metric
// registry as Prometheus text at /metrics, the online characterization
// snapshot (with its top-K keywords) as JSON at /online.json, and
// optionally pprof.
func (d *daemon) metricsHandler(pprof bool) http.Handler {
	mux := obs.NewHTTPHandler(obs.HTTPConfig{Registry: d.reg, Pprof: pprof})
	mux.HandleFunc("/online.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d.online.Snapshot(20)); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	return mux
}

// observe records one message received on connection id, before the
// overlay node routes it: the recorder's policy, the query counters, and
// the online layer's view of hop-1 queries.
func (d *daemon) observe(c *capture.Record, id int, env wire.Envelope) {
	at := d.now()
	d.rec.Wire(c, at, env)
	if q, ok := env.Payload.(*wire.Query); ok {
		d.mQuery.Inc()
		if env.Header.Hops == 1 {
			d.mHop1.Inc()
			log.Printf("conn %d query %q (sha1=%v)", id, q.SearchText, q.HasSHA1())
			d.online.ObserveQuery(at, q.SearchText, q.HasSHA1())
		}
	}
}

func (d *daemon) serve(peer *transport.Peer, idle time.Duration) {
	info := peer.Info()
	addr, _ := netip.ParseAddrPort(peer.RemoteAddr().String())
	var c capture.Record
	d.mu.Lock()
	if !d.rec.Admit() {
		d.mu.Unlock()
		peer.Close()
		log.Printf("conn from %s refused: no free slot", peer.RemoteAddr())
		return
	}
	id := int(d.rec.Open(&c, d.now(), addr.Addr().Unmap(), info.Ultrapeer, info.UserAgent, 0))
	d.prod.Flush()
	d.peers[id] = peer
	d.mConns.Inc()
	d.mActive.SetInt(int64(len(d.peers)))
	d.node.AddConn(id, info.Ultrapeer)
	d.mu.Unlock()
	log.Printf("conn %d from %s (%s, ultrapeer=%v)", id, peer.RemoteAddr(), info.UserAgent, info.Ultrapeer)

	defer func() {
		d.mu.Lock()
		d.node.RemoveConn(id)
		delete(d.peers, id)
		d.mActive.SetInt(int64(len(d.peers)))
		// The session record is final at close: feed it to the online
		// layer with no queries — those were observed individually at
		// receipt, and MergedSession would observe them a second time.
		if conn := d.rec.Close(&c, d.now(), false); conn != nil {
			d.prod.Flush()
			d.online.MergedSession(conn, nil)
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
		d.observe(&c, id, env)
		d.node.Receive(id, env)
		d.mu.Unlock()
	}
}
