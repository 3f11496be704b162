// Package serve is the multi-tenant query/serving plane over the store: a
// long-running network service that turns the embedded, one-process irtlstore
// into something a dashboard fleet can hammer.
//
// The listener speaks one protocol, HTTP. Record streams on /v1/records come
// in two encodings, chosen by the Accept header: NDJSON for browsers,
// dashboards and curl, and IRTQ for the analysis CLIs: an IRTL log, the
// format every -in tool reads (proto.go). Both end in the same trailers.
// Every request passes through the same read path:
//
//	admission (worker pool + queue shed + per-tenant token buckets)
//	  → result cache (generation-keyed, byte-budgeted LRU; its load-once
//	    GetOrLoad coalesces identical in-flight aggregates)
//	    → store (QueryCtx, predicate pushdown, ordered merge)
//
// Aggregate answers (class totals, daily series, top origins, the per-peer
// density matrix) are cached under the store's segment-set generation, so a
// hot dashboard panel is served from memory until a seal or compaction
// actually changes the data — never after. Record streams are never cached;
// they stream block by block from the store's merge reader. Every stage
// publishes irtl_serve_* metrics through internal/obs.
//
// A request's one record is its trace: the root names the tenant, encoding
// and query, each stage is a child span, and the store's EXPLAIN rides on
// store_scan. The slow-query log and /v1/statz recent_queries are renderings
// of it (slowlog.go), and the tracer's keep-if-slow verdict is the only slow
// decision. Without the tracer a request leaves no such record.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"instability/internal/collector"
	"instability/internal/lru"
	"instability/internal/obs"
	"instability/internal/store"
)

// Options configures a Server. Store is required; everything else defaults.
type Options struct {
	// Store is the open store being served. The server does not close it;
	// the owning process does, once, after the server has drained.
	Store *store.Store
	// MaxSessions bounds concurrently executing reader sessions (the worker
	// pool). Default 32.
	MaxSessions int
	// MaxQueue bounds requests waiting for a session slot; request
	// MaxQueue+1 is shed immediately. Default 2*MaxSessions.
	MaxQueue int
	// QueueWait bounds how long an admitted-to-queue request waits for a
	// slot before being shed. Default 2s.
	QueueWait time.Duration
	// Quotas are per-tenant token buckets keyed on the API token;
	// DefaultQuota applies to tokens not in the map (zero = unlimited).
	Quotas       map[string]Quota
	DefaultQuota Quota
	// CacheBytes is the result-cache budget; 0 disables caching.
	CacheBytes int64
	// DrainTimeout bounds how long Close waits for in-flight requests
	// before force-closing their connections. Default 5s.
	DrainTimeout time.Duration
	// SlowQuery is ignored: the tracer's TraceConfig.SlowThreshold is the one
	// slow-query threshold (slowlog.go). It remains only because the
	// benchmark harness (internal/benchkit) still sets it; the harness's move
	// onto the shipped program deletes it.
	SlowQuery time.Duration
	// SlowQueryLog receives one NDJSON QueryProfile line for each request
	// whose trace the tracer judged slow. Nil means os.Stderr.
	SlowQueryLog io.Writer
	// AlertLog, when set, is what /v1/alerts serves: the path of a detector
	// alert sidecar log written by the ingest process.
	AlertLog string

	// now overrides the clock for token-bucket tests.
	now func() time.Time
	// writeTimeout bounds each write of a record stream (default 1m), and
	// headerTimeout the wait for a request's headers (default 10s); tests
	// shorten them.
	writeTimeout, headerTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 32
	}
	if o.MaxQueue == 0 {
		o.MaxQueue = 2 * o.MaxSessions
	}
	if o.MaxQueue < 0 {
		o.MaxQueue = 0
	}
	if o.QueueWait <= 0 {
		o.QueueWait = 2 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.writeTimeout <= 0 {
		o.writeTimeout = time.Minute
	}
	if o.headerTimeout <= 0 {
		o.headerTimeout = 10 * time.Second
	}
	if o.SlowQueryLog == nil {
		o.SlowQueryLog = os.Stderr
	}
	return o
}

// Server is a running serving plane over one store.
type Server struct {
	opts     Options
	st       *store.Store
	adm      *admission
	cache    *resultCache
	lastGen  atomic.Uint64
	srv      *http.Server
	inflight atomic.Int64 // requests inside a handler
	slowMu   sync.Mutex   // serializes SlowQueryLog writes

	mu     sync.Mutex
	ln     net.Listener
	closed chan struct{} // closed by Close: sheds the queue, stops streams
	once   sync.Once
}

// New builds a server over opts.Store.
func New(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, errors.New("serve: Options.Store is required")
	}
	opts = opts.withDefaults()
	s := &Server{
		opts:   opts,
		st:     opts.Store,
		adm:    newAdmission(opts.MaxSessions, opts.MaxQueue, opts.QueueWait, opts.Quotas, opts.DefaultQuota, opts.now),
		cache:  newResultCache(opts.CacheBytes),
		closed: make(chan struct{}),
	}
	s.srv = &http.Server{Handler: s.httpHandler(), ReadHeaderTimeout: opts.headerTimeout}
	s.lastGen.Store(s.st.Generation())
	return s, nil
}

// Serve answers HTTP on ln until Close, after which it returns nil.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if err := s.srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// ActiveSessions reports currently admitted sessions (tests poll it).
func (s *Server) ActiveSessions() int64 { return s.adm.active.Load() }

// CacheCounts snapshots this server's cache counters.
func (s *Server) CacheCounts() (hits, misses, evictions uint64, bytes int64) {
	return s.cache.counts()
}

// generation returns the store's current generation, sweeping the cache when
// it observes a change (a seal or compaction happened since the last look).
func (s *Server) generation() uint64 {
	gen := s.st.Generation()
	if s.lastGen.Swap(gen) != gen {
		s.cache.dropOldGens(gen)
	}
	return gen
}

// aggregate answers an aggregate query through the result cache, which also
// coalesces identical computations in flight, returning the serialized JSON
// body. The cache lookup, coalescing outcome, and store scan all land on the
// request's trace.
func (s *Server) aggregate(ctx context.Context, kind string, top int, q store.Query) ([]byte, error) {
	gen := s.generation()
	key := aggregateCacheKey(gen, kind, top, q)
	_, csp := obs.StartChild(ctx, "cache")
	if body, ok := s.cache.get(key); ok {
		csp.Annotate("result", "hit")
		csp.Finish()
		return body, nil
	}
	csp.Annotate("result", "miss")
	csp.Finish()

	actx, asp := obs.StartChild(ctx, "aggregate")
	body, how, err := s.cache.getOrLoad(key, func() ([]byte, error) {
		sctx, ssp := obs.StartChild(actx, "scan")
		r, qerr := s.st.QueryCtx(sctx, q)
		if qerr != nil {
			ssp.SetError(qerr)
			ssp.Finish()
			return nil, qerr
		}
		agg, aerr := computeAggregate(readerOnly{r}, kind, top)
		r.Close()
		ssp.Finish()
		if aerr != nil {
			return nil, aerr
		}
		agg.Generation = gen
		_, esp := obs.StartChild(actx, "encode")
		body, merr := json.Marshal(agg)
		esp.Finish()
		return body, merr
	})
	asp.Finish()
	switch how {
	case lru.Hit:
		// An identical computation landed between the lookup above and this
		// one: the cache span notes the second lookup's hit.
		csp.Annotate("result", "hit")
	case lru.Shared:
		obs.SpanFromContext(ctx).Annotate("coalesced", "true")
	}
	return body, err
}

// readerOnly adapts a store.Reader to collector.RecordReader without letting
// the aggregate path close it (the caller owns Close).
type readerOnly struct{ r *store.Reader }

func (ro readerOnly) Next() (collector.Record, error) { return ro.r.Next() }
func (ro readerOnly) Close() error                    { return nil }

// Close shuts the server down gracefully: stop accepting, let in-flight
// requests finish for up to DrainTimeout, then force-close what remains. It
// never closes the store — the owner does, once, after Close returns.
func (s *Server) Close() error {
	s.once.Do(func() {
		close(s.closed)
		ctx, cancel := context.WithTimeout(context.Background(), s.opts.DrainTimeout)
		defer cancel()
		// Shutdown waits until every connection is idle, and counts one that
		// has not sent a request yet as busy for its first five seconds. No
		// request is waiting on those, so once no handler runs the wait ends,
		// after a grace for the last responses to leave.
		go func() {
			for s.inflight.Load() > 0 && ctx.Err() == nil {
				time.Sleep(time.Millisecond)
			}
			select {
			case <-ctx.Done():
			case <-time.After(100 * time.Millisecond):
			}
			cancel()
		}()
		if s.srv.Shutdown(ctx) != nil && s.inflight.Load() > 0 {
			log.Printf("serve: drain timeout after %v; force-closing connections", s.opts.DrainTimeout)
		}
		s.srv.Close()
	})
	return nil
}
