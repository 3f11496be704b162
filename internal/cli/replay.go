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
	"instability/internal/store"
)

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
// With -store the input is an irtlstore query instead of a flat log: the
// store's indexes select the slice (time window, origin, prefix) and only
// that slice is read and replayed. Interrupted, it stops feeding new records
// but still flushes what the session has buffered and closes the session
// with a NOTIFICATION instead of a TCP reset.
func Replay(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, lg := setup("bgpreplay", stderr)
	var (
		in         = fs.String("in", "", "input log (native or MRT)")
		from       = fs.String("from", "", "store query: start time (inclusive)")
		to         = fs.String("to", "", "store query: end time (exclusive)")
		origin     = fs.String("origin", "", "store query: comma-separated origin AS list")
		prefix     = fs.String("prefix", "", "store query: exact prefix (CIDR)")
		connect    = fs.String("connect", "127.0.0.1:1790", "collector address")
		asn        = fs.Uint("as", 690, "local AS number")
		id         = fs.String("id", "198.32.186.1", "local BGP identifier")
		peer       = fs.Uint("peer", 0, "replay only records from this peer AS (0 = all, rewritten to the local identity)")
		speedup    = fs.Float64("speedup", 600, "time compression factor (600 = one simulated hour per 6 wall seconds; 0 = no waiting)")
		limit      = fs.Int("n", 0, "stop after this many records (0 = all)")
		stateless  = fs.Bool("stateless", false, "replay as the stateless vendor: withdrawals are sent even for never-advertised prefixes, reproducing the log's WWDups on the wire")
		detectFlag = fs.Bool("detect", false, "classify the replayed records through the streaming anomaly detector and print its alerts at the end")
	)
	sf := addStoreFlags(fs, "replay from an irtlstore query instead of a log file", blockCacheFlag|noMmapFlag)
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
	q, err := store.ParseQuery(*from, *to, "", *origin, *prefix, "")
	if err != nil {
		return usageError{err: err}
	}
	stopObs, err := of.start(lg)
	if err != nil {
		return err
	}
	defer stopObs()
	reg := obs.Default()
	obsSent := reg.Counter("irtl_replay_records_total", "Records replayed onto the wire.")
	obsPosition := reg.Gauge("irtl_replay_position_seconds",
		"Log-time position of the replay (Unix seconds of the last record sent).")

	// -peer is applied in the replay loop for either input, so q leaves it
	// out; time, origin and prefix are pushed down to the store.
	r, _, err := openRecords(ctx, lg, *in, sf, q)
	if err != nil {
		return err
	}
	defer r.Close()
	src := *in
	if src == "" {
		src = "store " + sf.dir
	}

	conn, err := net.Dial("tcp", *connect)
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

	// With -detect the records also flow through the classifier into the
	// anomaly detector as they go out on the wire, with day barriers at log
	// date boundaries — the same feed bgpanalyze -detect runs offline.
	var det *detect.Detector
	var dp *instability.Pipeline
	var detDay core.Date
	haveDetDay := false
	if *detectFlag {
		det = detect.New(detect.Config{})
		dp = instability.NewPipeline()
		dp.Events = det.Add
		dp.DayEnd = func(d core.Date) { det.Advance(d.Time().AddDate(0, 0, 1)) }
	}

	span := reg.StartSpan("replay")
	var sent int
	var prev time.Time
	var readErr error
loop:
	for ctx.Err() == nil {
		rec, err := r.Next()
		if err != nil {
			if err != io.EOF {
				readErr = err
			}
			break
		}
		if rec.Type != collector.Announce && rec.Type != collector.Withdraw {
			continue
		}
		if *peer != 0 && uint(rec.PeerAS) != *peer {
			continue
		}
		if !prev.IsZero() && *speedup > 0 {
			gap := rec.Time.Sub(prev)
			if wait := time.Duration(float64(gap) / *speedup); wait > 0 {
				select {
				case <-ctx.Done():
					break loop
				case <-time.After(min(wait, 5*time.Second)): // cap idle stretches
				}
			}
		}
		prev = rec.Time
		if dp != nil {
			if d := core.DateOf(rec.Time); !haveDetDay || d != detDay {
				if haveDetDay {
					dp.EndDay(detDay)
				}
				detDay, haveDetDay = d, true
			}
			dp.Feed(rec)
		}
		runner.Do(func(p *session.Peer) {
			switch rec.Type {
			case collector.Announce:
				p.Announce(rec.Prefix, rec.Attrs)
			case collector.Withdraw:
				p.Withdraw(rec.Prefix)
			}
		})
		sent++
		obsSent.Inc()
		obsPosition.SetInt(rec.Time.Unix())
		if *limit > 0 && sent >= *limit {
			break
		}
	}
	interrupted := ctx.Err() != nil
	if interrupted {
		lg.Print("interrupted: draining session (again to abort)")
	}
	span.Add(int64(sent))
	span.End()
	// Let the final flush drain before closing.
	time.Sleep(200 * time.Millisecond)
	runner.Close()
	<-done
	if readErr != nil {
		return readErr
	}
	if interrupted {
		fmt.Fprintf(stdout, "replayed %d records (interrupted)\n", sent)
	} else {
		fmt.Fprintf(stdout, "replayed %d records\n", sent)
	}
	printIntern(stdout)
	if dp != nil {
		if haveDetDay {
			dp.EndDay(detDay)
		}
		printAlerts(stdout, det.Finish())
	}
	return nil
}
