package cli

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"instability"
	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/faults"
	"instability/internal/netaddr"
	"instability/internal/obs"
	"instability/internal/session"
	"instability/internal/store"
)

// Collect is bgpcollect, a route-server collector speaking real BGP-4 over
// TCP: it listens for peering sessions, completes the OPEN/KEEPALIVE
// handshake, and logs every received update in collector format — a minimal
// Routing Arbiter route server. With -store it also writes through to an
// irtlstore, so the collected stream is immediately queryable with bgpstore
// and bgpanalyze.
//
//	bgpcollect -listen :1790 -as 6000 -id 198.32.186.250 -out live.irtl.gz
//	bgpcollect -listen :1790 -out live.irtl.gz -store livedb
//	bgpcollect -dial rs1:179,rs2:179 -backoff-base 1s -backoff-max 2m
//
// Point any BGP speaker at the listen port. It runs until interrupted, which
// closes the listener and every session and then the sinks; -maxconns makes
// it stop by itself after that many sessions close, which keeps scripted
// runs bounded.
//
// With -dial the collector also opens outbound peering sessions and keeps
// them alive: a failed dial or dropped session is retried under jittered
// exponential backoff (-backoff-base up to -backoff-max, reset after each
// successful establishment) so a flapping route server is never hammered in
// lockstep. -chaos wraps dialed connections in seeded random delays and
// resets, for battering the dial/backoff path against a healthy peer, and
// with -store faults the store's I/O, from one spec.
func Collect(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, lg := setup("bgpcollect", stderr)
	var (
		listen      = fs.String("listen", ":1790", "TCP listen address")
		asn         = fs.Uint("as", 6000, "local AS number")
		id          = fs.String("id", "198.32.186.250", "local BGP identifier")
		out         = fs.String("out", "collected.irtl.gz", "output log file")
		exchName    = fs.String("exchange", "live", "exchange name recorded in the log header")
		hold        = fs.Duration("hold", 90*time.Second, "proposed hold time")
		maxConns    = fs.Int("maxconns", 0, "stop after this many sessions close (0 = run until interrupted)")
		reportEvery = fs.Duration("report", 10*time.Second, "period of the one-line self-report (0 disables)")
		dial        = fs.String("dial", "", "comma-separated peer addresses to dial and keep sessions with")
		backoffBase = fs.Duration("backoff-base", 500*time.Millisecond, "first redial delay")
		backoffMax  = fs.Duration("backoff-max", time.Minute, "redial delay cap")
	)
	sf := addStoreFlags(fs, "also write through to an irtlstore at this directory", chaosFlag)
	of := addObsFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	var dialed int // the planes -chaos faults besides the store
	if strings.TrimSpace(*dial) != "" {
		dialed = faults.ConnPlane
	}
	if err := sf.check(dialed); err != nil {
		return err
	}
	localID, err := netaddr.ParseAddr(*id)
	if err != nil {
		return usageError{err: err}
	}
	stopObs, err := of.start(lg)
	if err != nil {
		return err
	}
	defer stopObs()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	k, err := newCollectSink(lg, *out, *exchName, sf)
	if err != nil {
		ln.Close()
		return err
	}
	lg.Printf("listening on %s as AS%d/%s, logging to %s", ln.Addr(), *asn, localID, *out)

	reg := obs.Default()
	obsSessionsTotal := reg.Counter("irtl_collect_sessions_total", "Peering sessions accepted.")
	obsSessionsOpen := reg.Gauge("irtl_collect_sessions_open", "Peering sessions currently open.")

	// Periodic self-report, read back from the registry: the counters the
	// instrumentation already maintains are the single source of truth.
	reportDone := make(chan struct{})
	defer close(reportDone)
	if *reportEvery > 0 {
		go func() {
			tick := time.NewTicker(*reportEvery)
			defer tick.Stop()
			lastN, lastT := 0.0, time.Now()
			for {
				select {
				case <-reportDone:
					return
				case <-tick.C:
				}
				n := reg.Sum("irtl_collect_records_total")
				now := time.Now()
				rate := (n - lastN) / now.Sub(lastT).Seconds()
				lastN, lastT = n, now
				lg.Printf("ingested %.0f records (%.1f/s), %.0f drops, %.0f sessions open, lag %.2fs",
					n, rate,
					reg.Value("irtl_collect_write_errors_total")+reg.Value("irtl_session_queue_drops_total"),
					reg.Value("irtl_collect_sessions_open"),
					reg.Value("irtl_collect_ingest_lag_seconds"))
			}
		}()
	}

	// Track live connections so stop can sever them: without this, a peer
	// that never hangs up would stall wg.Wait() and the sinks would never be
	// closed.
	var connMu sync.Mutex
	conns := make(map[net.Conn]bool)
	stopping := false

	// stop closes the listener and live sessions exactly once; the signal,
	// the -maxconns budget, and dial-loop teardown all funnel through it.
	stopped := make(chan struct{}) // closed by stop; unblocks backoff sleeps
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() {
			close(stopped)
			ln.Close()
			connMu.Lock()
			stopping = true
			for c := range conns {
				c.Close()
			}
			connMu.Unlock()
		})
	}
	defer context.AfterFunc(ctx, stop)()

	var sessionsClosed atomic.Int64
	var wg sync.WaitGroup

	// track registers a live connection; the returned release deregisters it
	// and spends one unit of the -maxconns budget. ok=false means the
	// collector is already stopping and the conn has been closed.
	track := func(conn net.Conn) (release func(), ok bool) {
		connMu.Lock()
		if stopping {
			connMu.Unlock()
			conn.Close()
			return nil, false
		}
		conns[conn] = true
		connMu.Unlock()
		obsSessionsTotal.Inc()
		obsSessionsOpen.Inc()
		return func() {
			connMu.Lock()
			delete(conns, conn)
			connMu.Unlock()
			obsSessionsOpen.Dec()
			if n := sessionsClosed.Add(1); *maxConns > 0 && n >= int64(*maxConns) {
				stop()
			}
		}, true
	}
	cfg := session.Config{LocalAS: bgp.ASN(*asn), LocalID: localID, HoldTime: *hold}

	// Outbound sessions: one dial loop per -dial address, each with its own
	// jittered exponential backoff so redials against a flapping peer are
	// paced and decorrelated. A successful establishment resets the schedule.
	for i, addr := range strings.Split(*dial, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			bo := session.Backoff{Base: *backoffBase, Max: *backoffMax}
			for attempt := 0; ; attempt++ {
				conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
				if err != nil {
					lg.Printf("dial %s: %v", addr, err)
				} else {
					if sf.plan != nil { // each dialed conn on its own deterministic schedule
						conn = faults.NewConn(conn, *sf.plan, int64(i)<<16|int64(attempt))
					}
					release, ok := track(conn)
					if !ok {
						return
					}
					runSession(lg, conn, cfg, k.write, bo.Reset)
					release()
				}
				select {
				case <-stopped:
					return
				case <-time.After(bo.Next()):
				}
			}
		}(i, addr)
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			break // listener closed
		}
		release, ok := track(conn)
		if !ok {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer release()
			runSession(lg, conn, cfg, k.write, nil)
		}()
	}
	wg.Wait()
	if err := k.close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "logged %d records to %s\n", k.log.Count(), *out)
	if k.db != nil {
		st := k.db.Stats()
		fmt.Fprintf(stdout, "store %s: %d records in %d segments\n", sf.dir, st.Records, st.Segments)
	}
	printIntern(stdout)
	if tot := k.p.Acc.TotalCounts(); k.p.Acc.TotalEvents() > 0 {
		var parts []string
		for _, c := range core.Classes() {
			if tot[c] > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", c, tot[c]))
			}
		}
		fmt.Fprintf(stdout, "classified: %s\n", strings.Join(parts, ", "))
	}
	return nil
}

// collectSink is where every collected record goes: the log, the optional
// store write-through, and the live classifier — so the per-class counters
// on /metrics move in real time during collection. Sessions deliver
// concurrently; one lock serializes them.
type collectSink struct {
	lg  *log.Logger
	mu  sync.Mutex
	log *collector.Writer
	db  *store.Store
	p   *instability.Pipeline

	writeErrors *obs.Counter
	ingestLag   *obs.Gauge
	byType      [collector.SessionDown + 1]*obs.Counter // indexed by collector.RecType
}

func newCollectSink(lg *log.Logger, out, exchange string, sf *storeFlags) (*collectSink, error) {
	w, err := collector.Create(out, exchange)
	if err != nil {
		return nil, err
	}
	k := &collectSink{lg: lg, log: w, p: instability.NewPipeline()}
	if sf.dir != "" {
		if k.db, err = sf.open(lg, store.Options{AutoSealRecords: 1 << 16}); err != nil {
			w.Close()
			return nil, err
		}
	}
	reg := obs.Default()
	k.p.Acc.Register(reg)
	k.writeErrors = reg.Counter("irtl_collect_write_errors_total", "Record sink write failures.")
	k.ingestLag = reg.Gauge("irtl_collect_ingest_lag_seconds", "Age of the most recently ingested record (now - record timestamp).")
	for _, t := range []collector.RecType{collector.Announce, collector.Withdraw, collector.SessionUp, collector.SessionDown} {
		k.byType[t] = reg.Counter("irtl_collect_records_total", "Records ingested, by type.", obs.L("type", t.String()))
	}
	return k, nil
}

func (k *collectSink) write(rec collector.Record) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if err := k.log.Write(rec); err != nil {
		k.writeErrors.Inc()
		k.lg.Printf("write: %v", err)
	}
	if k.db != nil {
		if err := k.db.Writer().Append(rec); err != nil {
			k.writeErrors.Inc()
			k.lg.Printf("store append: %v", err)
		}
	}
	k.p.Feed(rec)
	if int(rec.Type) < len(k.byType) && k.byType[rec.Type] != nil {
		k.byType[rec.Type].Inc()
	}
	k.ingestLag.Set(time.Since(rec.Time).Seconds())
}

// close closes the log and the store, after the last session has ended, and
// reports the first error.
func (k *collectSink) close() error {
	err := k.log.Close()
	if k.db != nil {
		if derr := k.db.Close(); err == nil {
			err = derr
		}
	}
	return err
}

// runSession runs one peering session over an accepted or dialed
// connection, handing every route change and session transition to write.
// onEstablished, when non-nil, is called after the session reaches
// Established (the dial loops hang their backoff reset on it).
func runSession(lg *log.Logger, conn net.Conn, cfg session.Config, write func(collector.Record), onEstablished func()) {
	remote := conn.RemoteAddr()
	var peerAS bgp.ASN
	var peerID netaddr.Addr
	var r *session.Runner
	cb := session.Callbacks{
		Established: func() {
			peerAS, peerID = r.Peer().PeerAS(), r.Peer().PeerID()
			lg.Printf("session with %v established (AS%d, id %v)", remote, peerAS, peerID)
			write(collector.Record{Time: time.Now().UTC(), Type: collector.SessionUp, PeerAS: peerAS, PeerAddr: peerID})
			if onEstablished != nil {
				onEstablished()
			}
		},
		Down: func(err error) {
			lg.Printf("session with %v down: %v", remote, err)
			write(collector.Record{Time: time.Now().UTC(), Type: collector.SessionDown, PeerAS: peerAS, PeerAddr: peerID})
		},
		Update: func(u bgp.Update) {
			now := time.Now().UTC()
			for _, p := range u.Withdrawn {
				write(collector.Record{Time: now, Type: collector.Withdraw, PeerAS: peerAS, PeerAddr: peerID, Prefix: p})
			}
			for _, p := range u.Announced {
				write(collector.Record{Time: now, Type: collector.Announce, PeerAS: peerAS, PeerAddr: peerID, Prefix: p, Attrs: u.Attrs})
			}
		},
	}
	r = session.NewRunner(cfg, conn, cb)
	if err := r.Run(); err != nil {
		lg.Printf("session with %v ended: %v", remote, err)
	}
}
