package cli

import (
	"context"
	"io"
	"net"
	"os"
	"time"

	"instability/internal/obs"
	"instability/internal/serve"
	"instability/internal/store"
)

// Serve is bgpserve, the multi-tenant query/serving plane over an
// irtlstore: one long-lived process opens the store once and answers many
// concurrent reader sessions over HTTP on one port. Record streams come as
// NDJSON (dashboards, curl) or as IRTQ, an IRTL log in the store's record
// codec (the analysis commands' -remote), per the request's Accept header.
//
//	bgpserve -store db -addr :1791
//	bgpserve -store db -addr :1791 -max-sessions 64 -cache-bytes 67108864 \
//	         -tenant-quotas 'dashboards=50:100,batch=5:10,*=2:4'
//	curl 'http://localhost:1791/v1/aggregate?kind=classes&from=1996-05-01'
//	bgpanalyze -remote localhost:1791 -from 1996-05-01 -to 1996-05-08
//
// Admission is a bounded worker pool with per-tenant token buckets keyed on
// the API token; requests beyond the queue are shed with 429/BUSY rather
// than queued without bound. Aggregates are cached under the store's
// segment-set generation. Interrupted, it drains in-flight requests, then
// closes the store.
func Serve(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, lg := setup("bgpserve", stderr)
	var (
		addr        = fs.String("addr", ":1791", "HTTP listen address (every endpoint, both record encodings)")
		maxSessions = fs.Int("max-sessions", 32, "concurrently executing reader sessions (worker pool size)")
		maxQueue    = fs.Int("max-queue", 0, "requests allowed to wait for a session slot (0 = 2*max-sessions)")
		queueWait   = fs.Duration("queue-wait", 2*time.Second, "how long a queued request waits before being shed")
		quotaSpec   = fs.String("tenant-quotas", "", "per-tenant rate quotas, e.g. 'dashboards=50:100,*=5:10' (token=rate:burst per second; * is the default)")
		cacheBytes  = fs.Int64("cache-bytes", 32<<20, "aggregate result-cache budget in bytes (0 = disabled)")
		drain       = fs.Duration("drain", 5*time.Second, "graceful-shutdown drain timeout")
		traceRing   = fs.Int("trace-ring", 256, "completed traces retained for /debug/traces")
		slowQuery   = fs.Duration("slow-query", time.Second, "emit an NDJSON profile line for requests at or over this duration (negative = never)")
		slowLog     = fs.String("slow-query-log", "", "slow-query log file (append; empty = stderr)")
		alertLog    = fs.String("alert-log", "", "detector alert sidecar log to expose on /v1/alerts (written by bgpanalyze -detect -alert-log)")
	)
	sf := addStoreFlags(fs, "store directory to serve", allStoreFlags)
	of := addObsFlags(fs).withTrace(fs, 0.05)
	if err := parse(fs, args); err != nil {
		return err
	}
	if err := sf.check(0); err != nil {
		return err
	}
	quotas, def, err := serve.ParseQuotas(*quotaSpec)
	if err != nil {
		return usageError{err: err}
	}
	stopObs, err := of.start(lg)
	if err != nil {
		return err
	}
	defer stopObs()
	// Always on, whatever -trace-sample says: a request's trace is its only
	// record, and -slow-query is the tracer's one slow threshold, so a slow
	// request is kept, and logged, even when it was not head-sampled.
	obs.EnableTracing(obs.TraceConfig{SampleRate: of.traceSample, SlowThreshold: *slowQuery, RingSize: *traceRing})

	slowW := stderr
	if *slowLog != "" {
		f, err := os.OpenFile(*slowLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		slowW = f
	}
	st, err := sf.open(lg, store.Options{})
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		Store:        st,
		MaxSessions:  *maxSessions,
		MaxQueue:     *maxQueue,
		QueueWait:    *queueWait,
		Quotas:       quotas,
		DefaultQuota: def,
		CacheBytes:   *cacheBytes,
		DrainTimeout: *drain,
		SlowQueryLog: slowW,
		AlertLog:     *alertLog,
	})
	if err != nil {
		st.Close()
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		st.Close()
		return err
	}
	gst := st.Stats()
	lg.Printf("listening on %s: serving %s (%d segments, %d records, generation %d)",
		ln.Addr(), sf.dir, gst.Segments, gst.Records, gst.Generation)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		lg.Print("interrupted: draining (again to abort)")
		srv.Close()
		err = <-done
	case err = <-done:
		srv.Close()
	}
	// The store closes once, after the last request has drained.
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		lg.Print("drained; bye")
	}
	return err
}
