package benchkit

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/netaddr"
	"instability/internal/obs"
	"instability/internal/session"
	"instability/internal/store"
)

const (
	liveRecords = 1_000_000 // records per pass on the 214-day campaign
	// liveWindow bounds sent − delivered. The Runner's out-queue holds 4096
	// messages and an overrun tears the session down; one record is at most
	// one message, so half of that can never overrun it.
	liveWindow = 2048
	liveStall  = 5 * time.Second
	queueDrops = "irtl_session_queue_drops_total"
)

// live is the collection path: a sender Runner replays the campaign's
// announcements and withdrawals over loopback TCP to a receiver Runner whose
// Update callback is cmd/bgpcollect's (gz log, store append, classifier).
type live struct {
	e    *env
	recs []collector.Record
}

func openLive(e *env, _ *run) (workloadRun, error) {
	w := &live{e: e}
	limit := e.camp.scaled(liveRecords, 1)
	for _, rec := range e.camp.Recs {
		if rec.Type == collector.Announce || rec.Type == collector.Withdraw {
			w.recs = append(w.recs, rec)
			if len(w.recs) == limit {
				break
			}
		}
	}
	if len(w.recs) == 0 {
		return nil, errors.New("benchkit: campaign has no route changes to replay")
	}
	return w, nil
}

func (w *live) close() error { return nil }

// sinks are bgpcollect's three record consumers and the timers the traced
// run keeps around each.
type sinks struct {
	log *collector.Writer
	db  *store.Store
	cl  *core.Classifier
	acc *core.Accumulator

	written  int64 // records of any type handed to the sinks
	failures []string

	// Traced passes only: busy time per sink since the last chunk span.
	tr                        *Tracer
	root                      *ActiveSpan
	chunkStart                time.Time
	n                         int64
	busy, logNs, dbNs, classN time.Duration
}

// write is bgpcollect's writeRec. Called with the receiver Runner's lock
// held, from its reader goroutine only.
func (k *sinks) write(rec collector.Record) {
	k.written++
	if k.tr == nil {
		if err := k.log.Write(rec); err != nil {
			k.failf("log write: %v", err)
		}
		if err := k.db.Writer().Append(rec); err != nil {
			k.failf("store append: %v", err)
		}
		k.acc.Add(k.cl.Classify(rec))
		return
	}
	t0 := time.Now()
	if k.n == 0 {
		k.chunkStart = t0
	}
	if err := k.log.Write(rec); err != nil {
		k.failf("log write: %v", err)
	}
	t1 := time.Now()
	if err := k.db.Writer().Append(rec); err != nil {
		k.failf("store append: %v", err)
	}
	t2 := time.Now()
	k.acc.Add(k.cl.Classify(rec))
	t3 := time.Now()
	k.logNs += t1.Sub(t0)
	k.dbNs += t2.Sub(t1)
	k.classN += t3.Sub(t2)
	k.busy += t3.Sub(t0)
	if k.n++; k.n == chunkRecords {
		k.flushSpans()
	}
}

func (k *sinks) failf(format string, args ...any) {
	if len(k.failures) < 8 {
		k.failures = append(k.failures, fmt.Sprintf(format, args...))
	}
}

// flushSpans turns the timers of the records since the last flush into one
// callback span with a child per sink.
func (k *sinks) flushSpans() {
	if k.tr == nil || k.n == 0 {
		return
	}
	cb := k.tr.Record(k.root, "collector.callback", k.chunkStart, k.busy, k.n)
	k.tr.Record(cb, "collector.log_write", k.chunkStart, k.logNs, k.n)
	k.tr.Record(cb, "store.append", k.chunkStart, k.dbNs, k.n)
	k.tr.Record(cb, "core.classify", k.chunkStart, k.classN, k.n)
	k.n, k.busy, k.logNs, k.dbNs, k.classN = 0, 0, 0, 0, 0
}

// sendSpans folds the sender's Runner.Do calls into one session.send span per
// chunkRecords records: groups average two records, and a span per group
// would be a span per record.
type sendSpans struct {
	start time.Time
	busy  time.Duration
	n     int
}

func (a *sendSpans) add(tr *Tracer, root *ActiveSpan, at time.Time, records int) {
	if tr == nil {
		return
	}
	if a.n == 0 {
		a.start = at
	}
	a.busy += time.Since(at)
	if a.n += records; a.n >= chunkRecords {
		a.flush(tr, root)
	}
}

func (a *sendSpans) flush(tr *Tracer, root *ActiveSpan) {
	if a.n > 0 {
		tr.Record(root, "session.send", a.start, a.busy, int64(a.n))
		*a = sendSpans{}
	}
}

func (w *live) pass(tr *Tracer, root *ActiveSpan, s *sampleSet, r *run) (out passOut, err error) {
	dir, err := os.MkdirTemp(w.e.opts.TmpDir, "live")
	if err != nil {
		return out, err
	}
	defer os.RemoveAll(dir)
	db, err := store.Open(filepath.Join(dir, "db"), StoreOptions(0))
	if err != nil {
		return out, err
	}
	defer db.Close()
	logw, err := collector.Create(filepath.Join(dir, "live.irtl.gz"), "live")
	if err != nil {
		return out, err
	}
	defer logw.Close()
	k := &sinks{log: logw, db: db, cl: core.NewClassifier(), acc: core.NewAccumulator(), tr: tr, root: root}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return out, err
	}
	defer ln.Close()

	// The receiver: bgpcollect's serve(), with the delivered count the
	// sender's window waits on.
	var delivered atomic.Int64
	progress := make(chan struct{}, 1)
	var recvWG sync.WaitGroup
	var recvRunner *session.Runner
	recvReady := make(chan error, 1)
	recvWG.Add(1)
	go func() {
		defer recvWG.Done()
		conn, err := ln.Accept()
		if err != nil {
			recvReady <- err
			return
		}
		var peerAS bgp.ASN
		var peerID netaddr.Addr
		var rr *session.Runner
		cb := session.Callbacks{
			Established: func() {
				peerAS, peerID = rr.Peer().PeerAS(), rr.Peer().PeerID()
				k.write(collector.Record{Time: time.Now().UTC(), Type: collector.SessionUp, PeerAS: peerAS, PeerAddr: peerID})
			},
			Down: func(error) {
				k.write(collector.Record{Time: time.Now().UTC(), Type: collector.SessionDown, PeerAS: peerAS, PeerAddr: peerID})
			},
			Update: func(u bgp.Update) {
				now := time.Now().UTC()
				for _, p := range u.Withdrawn {
					k.write(collector.Record{Time: now, Type: collector.Withdraw, PeerAS: peerAS, PeerAddr: peerID, Prefix: p})
				}
				for _, p := range u.Announced {
					k.write(collector.Record{Time: now, Type: collector.Announce, PeerAS: peerAS, PeerAddr: peerID, Prefix: p, Attrs: u.Attrs})
				}
				delivered.Add(int64(len(u.Withdrawn) + len(u.Announced)))
				select {
				case progress <- struct{}{}:
				default:
				}
			},
		}
		rr = session.NewRunner(session.Config{
			LocalAS: 65000, LocalID: netaddr.MustParseAddr("10.255.0.1"), HoldTime: 90 * time.Second,
		}, conn, cb)
		recvRunner = rr
		recvReady <- nil
		rr.Run()
	}()

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), liveStall)
	if err != nil {
		ln.Close()
		recvWG.Wait()
		return out, err
	}
	established := make(chan struct{})
	sender := session.NewRunner(session.Config{
		LocalAS: 64512, LocalID: netaddr.MustParseAddr("10.255.0.2"), HoldTime: 90 * time.Second,
		Stateless: true,
	}, conn, session.Callbacks{
		Established: func() { close(established) },
	})
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		sender.Run()
	}()
	// Every exit below goes through here: both sessions closed, both
	// goroutines gone, before the deferred sink closes and directory removal.
	stop := func() {
		sender.Close()
		<-senderDone
		if <-recvReady == nil {
			recvRunner.Close()
		}
		recvWG.Wait()
	}
	select {
	case <-established:
	case <-time.After(liveStall):
		stop()
		r.op(1)
		r.fail("live: session not established within %v", liveStall)
		return out, nil
	}

	// The sender: groups of up to batchRecords records with distinct
	// prefixes (a later change to a prefix supersedes a pending one), each
	// queued and flushed inside one Runner.Do, never more than liveWindow
	// records ahead of the receiver.
	type sentGroup struct {
		upTo int64
		at   time.Time
	}
	var (
		sent    int64
		pending []sentGroup
		aborted string
	)
	var send sendSpans
	settle := func() {
		d, now := delivered.Load(), time.Now()
		for len(pending) > 0 && pending[0].upTo <= d {
			s.add("op_ms", ms(now.Sub(pending[0].at)))
			pending = pending[1:]
		}
	}
	// await blocks until fewer than limit records are in flight; false if
	// the receiver made no progress for liveStall or the session dropped.
	await := func(limit int64) bool {
		for sent-delivered.Load() > limit {
			select {
			case <-progress:
				settle()
			case <-senderDone:
				aborted = "session dropped"
				return false
			case <-time.After(liveStall):
				aborted = fmt.Sprintf("delivery stalled for %v at %d of %d sent", liveStall, delivered.Load(), sent)
				return false
			}
		}
		return true
	}
	drops := obs.Default().Value(queueDrops)
	t0 := time.Now()
	inGroup := make(map[netaddr.Prefix]struct{}, batchRecords)
	for i := 0; i < len(w.recs) && aborted == ""; {
		j := i
		clear(inGroup)
		for ; j < len(w.recs) && j-i < batchRecords; j++ {
			if _, dup := inGroup[w.recs[j].Prefix]; dup {
				break
			}
			inGroup[w.recs[j].Prefix] = struct{}{}
		}
		group := w.recs[i:j]
		if !await(liveWindow - int64(len(group))) {
			break
		}
		at := time.Now()
		sender.Do(func(p *session.Peer) {
			for _, rec := range group {
				if rec.Type == collector.Announce {
					p.Announce(rec.Prefix, rec.Attrs)
				} else {
					p.Withdraw(rec.Prefix)
				}
			}
			p.Flush()
		})
		send.add(tr, root, at, len(group))
		sent += int64(len(group))
		pending = append(pending, sentGroup{sent, at})
		out.ops++
		settle()
		i = j
	}
	send.flush(tr, root)
	if aborted == "" {
		await(0)
	}
	stop()
	sp := tr.Start(root, "collector.close")
	k.flushSpans()
	cerr := logw.Close()
	if derr := db.Close(); cerr == nil {
		cerr = derr
	}
	sp.End(0)
	out.wall = time.Since(t0).Seconds()
	out.records = delivered.Load()
	if cerr != nil {
		return out, cerr
	}

	r.op(out.ops)
	for _, f := range k.failures {
		r.fail("live: %s", f)
	}
	if aborted != "" {
		r.fail("live: pass aborted: %s", aborted)
		return out, nil
	}
	r.check(delivered.Load() == sent, "live: delivered %d of %d sent", delivered.Load(), sent)
	drops = obs.Default().Value(queueDrops) - drops
	r.check(drops == 0, "live: %v sessions torn down by an overrun out-queue", drops)
	check, err := store.Open(filepath.Join(dir, "db"), StoreOptions(0))
	if err != nil {
		return out, err
	}
	st := check.Stats()
	check.Close()
	r.check(st.Records == k.written && k.written >= sent,
		"live: store holds %d records, callback wrote %d (%d route changes sent)", st.Records, k.written, sent)
	s.sum("live.sent", float64(sent))
	s.sum("live.delivered", float64(delivered.Load()))
	return out, nil
}

func (w *live) layers(r *run, s *sampleSet, tot map[string]SpanTotals, outs []passOut) {
	perRecord := func(metric, span string) {
		st := tot[span]
		r.set(metric, share(float64(st.Total.Nanoseconds()), float64(st.Count)), st.Spans)
	}
	perRecord("session.send_ns_per_record", "session.send")
	perRecord("collector.callback_ns_per_record", "collector.callback")
	perRecord("collector.log_write_ns_per_record", "collector.log_write")
	perRecord("collector.store_append_ns_per_record", "store.append")
	perRecord("collector.classify_ns_per_record", "core.classify")
	perRecord("store.append_ns_per_record", "store.append")
	perRecord("core.classify_ns_per_record", "core.classify")
	msgs := s.sums["irtl_session_messages_total"]
	r.set("session.decode_ns_per_msg", share(s.sums["irtl_session_decode_seconds.sum"]*1e9, s.sums["irtl_session_decode_seconds.count"]), int(msgs))
	r.set("session.records_per_msg", share(s.sums["live.delivered"], msgs), int(msgs))
	r.set("session.msgs", msgs/float64(len(outs)), len(outs))
	r.set("session.queue_drops", s.sums[queueDrops], len(outs))
	r.set("collector.delivered_share", share(s.sums["live.delivered"], s.sums["live.sent"]), len(outs))
	writeSeries(r, s, s.sums["live.delivered"])
	internLayers(r, s, len(outs))
}
