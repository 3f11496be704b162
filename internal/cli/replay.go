package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"instability"
	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/detect"
	"instability/internal/netaddr"
	"instability/internal/obs"
	"instability/internal/session"
)

// dialCollector opens bgpreplay's connection; tests slow it down.
var dialCollector = net.Dial

// Replay is bgpreplay: it replays a recorded update log as a live BGP
// speaker — it dials a collector (such as bgpcollect), completes the OPEN
// handshake, and re-sends the log's announcements and withdrawals over TCP
// with their original relative timing (optionally compressed). Together
// with bgpsim and bgpcollect this closes the loop: synthesize a campaign,
// replay it as real protocol traffic, collect it again, and analyze the
// result.
//
//	bgpreplay -in maeeast.irtl.gz -connect 127.0.0.1:1790 -speedup 600
//	bgpreplay -in maeeast.irtl.gz -connect 127.0.0.1:1790 -peer 690 -as 690
//	bgpreplay -store db -from 1996-05-01 -to 1996-05-08 -origin 237 -connect 127.0.0.1:1790
//	bgpreplay -in attack.irtl.gz -connect 127.0.0.1:1790 -detect
//
// The query flags select the slice to replay (time window, peer, origin,
// prefix), from a log or, with -store, from an irtlstore, whose indexes then
// skip what the slice does not need. At the end, or interrupted, it flushes
// what the session has buffered and closes the session with a Cease
// NOTIFICATION instead of a TCP reset.
func Replay(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, lg := setup("bgpreplay", stderr)
	var (
		in         = fs.String("in", "", "input log (native or MRT)")
		connect    = fs.String("connect", "127.0.0.1:1790", "collector address")
		asn        = fs.Uint("as", 690, "local AS number")
		id         = fs.String("id", "198.32.186.1", "local BGP identifier")
		speedup    = fs.Float64("speedup", 600, "time compression factor (600 = one simulated hour per 6 wall seconds; 0 = no waiting)")
		limit      = fs.Int("n", 0, "stop after this many records (0 = all)")
		stateless  = fs.Bool("stateless", false, "replay as the stateless vendor: withdrawals are sent even for never-advertised prefixes, reproducing the log's WWDups on the wire")
		detectFlag = fs.Bool("detect", false, "classify the replayed records through the streaming anomaly detector and print its alerts at the end")
	)
	spec := addQueryFlags(fs, originFlag)
	sf := addStoreFlags(fs, "replay from an irtlstore query instead of a log file", blockCacheFlag)
	of := addObsFlags(fs).withTrace(fs, 0)
	if err := parse(fs, args); err != nil {
		return err
	}
	if (*in == "") == (sf.dir == "") {
		return usagef("need exactly one of -in or -store")
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
	// With -trace-sample the run is one trace: a -store replay's scan and the
	// replay stage are children of one root.
	ctx, finish := of.root(ctx, "bgpreplay")
	defer finish()
	reg := obs.Default()
	obsSent := reg.Counter("irtl_replay_records_total", "Records replayed onto the wire.")
	obsPosition := reg.Gauge("irtl_replay_position_seconds",
		"Log-time position of the replay (Unix seconds of the last record sent).")

	// Only route changes go on the wire: the query says so, for either input.
	spec.Type = "A,W"
	r, _, err := openRecords(ctx, lg, *in, sf, nil, *spec)
	if err != nil {
		return err
	}
	defer r.Close()
	src := *in
	if src == "" {
		src = "store " + sf.dir
	}

	conn, err := dialCollector("tcp", *connect)
	if err != nil {
		return err
	}
	established := make(chan struct{}, 1)
	runner := session.NewRunner(session.Config{
		LocalAS:   bgp.ASN(*asn),
		LocalID:   localID,
		HoldTime:  90 * time.Second,
		Stateless: *stateless,
	}, conn, session.Callbacks{
		Established: func() { established <- struct{}{} },
		Down:        func(err error) { lg.Printf("session down: %v", err) },
	})
	done := make(chan error, 1)
	go func() { done <- runner.Run() }()
	select {
	case <-established:
	case err := <-done:
		return fmt.Errorf("session never established: %v", err)
	case <-time.After(30 * time.Second):
		err = errors.New("timeout establishing session")
	case <-ctx.Done():
		err = ctx.Err()
	}
	if err != nil {
		runner.Close()
		<-done
		return err
	}
	lg.Printf("established with %s; replaying %s at %gx", *connect, src, *speedup)

	rp := &replaying{RecordReader: cancellable(ctx, r), ctx: ctx, speedup: *speedup, limit: *limit,
		send: func(rec collector.Record) {
			runner.Do(func(p *session.Peer) {
				if rec.Type == collector.Announce {
					p.Announce(rec.Prefix, rec.Attrs)
				} else {
					p.Withdraw(rec.Prefix)
				}
			})
			obsSent.Inc()
			obsPosition.SetInt(rec.Time.Unix())
		}}
	// With -detect the one log classifier drains the replay, day barriers and
	// all, so the records flow into the anomaly detector as they go out on
	// the wire — the same feed bgpanalyze -detect runs offline.
	_, span := obs.StartChild(ctx, "replay")
	var det *detect.Detector
	if *detectFlag {
		det = detect.New(detect.Config{})
		dp := instability.NewPipeline()
		dp.Events = det.Add
		dp.DayEnd = func(d core.Date) { det.Advance(d.Time().AddDate(0, 0, 1)) }
		_, err = instability.ClassifyLog(rp, dp)
	} else {
		for err == nil {
			_, err = rp.Next()
		}
	}
	interrupted := ctx.Err() != nil
	if interrupted {
		lg.Print("interrupted: draining session (again to abort)")
	}
	span.AnnotateInt("records", int64(rp.sent))
	span.Finish()
	runner.Close()
	<-done
	if err != nil && err != io.EOF && !interrupted {
		return err
	}
	if interrupted {
		fmt.Fprintf(stdout, "replayed %d records (interrupted)\n", rp.sent)
	} else {
		fmt.Fprintf(stdout, "replayed %d records\n", rp.sent)
	}
	printIntern(stdout)
	if det != nil {
		printAlerts(stdout, det.Finish())
	}
	return nil
}

// replaying is bgpreplay's loop as a reader: each record Next returns has
// been paced to the log's timing, compressed by speedup, and sent. After
// limit records (0 = all) it reports io.EOF.
type replaying struct {
	collector.RecordReader
	ctx     context.Context
	speedup float64
	limit   int
	send    func(collector.Record)
	sent    int
	prev    time.Time
}

func (r *replaying) Next() (collector.Record, error) {
	if r.limit > 0 && r.sent >= r.limit {
		return collector.Record{}, io.EOF
	}
	rec, err := r.RecordReader.Next()
	if err != nil {
		return rec, err
	}
	if !r.prev.IsZero() && r.speedup > 0 {
		if wait := time.Duration(float64(rec.Time.Sub(r.prev)) / r.speedup); wait > 0 {
			select {
			case <-r.ctx.Done():
				return collector.Record{}, r.ctx.Err()
			case <-time.After(min(wait, 5*time.Second)): // cap idle stretches
			}
		}
	}
	r.prev = rec.Time
	r.send(rec)
	r.sent++
	return rec, nil
}
