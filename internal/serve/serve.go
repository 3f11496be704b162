// Package serve is the multi-tenant query/serving plane over the store: a
// long-running network service that turns the embedded, one-process irtlstore
// into something a dashboard fleet can hammer.
//
// The listener speaks one protocol, HTTP. Record streams on /v1/records come
// in two encodings, chosen by the Accept header: NDJSON for browsers,
// dashboards and curl, and IRTQ frames (proto.go, reusing the store's record
// codec) for the analysis CLIs. Every request passes through the same read
// path:
//
//	admission (worker pool + queue shed + per-tenant token buckets)
//	  → batcher (singleflight coalescing of identical in-flight aggregates)
//	    → result cache (generation-keyed, byte-budgeted LRU)
//	      → store (QueryCtx, predicate pushdown, ordered merge)
//
// Aggregate answers (class totals, daily series, top origins, the per-peer
// density matrix) are cached under the store's segment-set generation, so a
// hot dashboard panel is served from memory until a seal or compaction
// actually changes the data — never after. Record streams are never cached;
// they stream block by block from the store's merge reader. Every stage
// publishes irtl_serve_* metrics through internal/obs.
package serve

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"instability/internal/collector"
	"instability/internal/detect"
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
	// SlowQuery is the slow-query threshold: any request at or over it emits
	// one NDJSON QueryProfile line. Zero means 1s; negative disables the log
	// (profiles are still gathered for /v1/statz).
	SlowQuery time.Duration
	// SlowQueryLog receives the NDJSON lines. Nil means os.Stderr.
	SlowQueryLog io.Writer
	// AlertLog, when set, is appended to /v1/alerts responses: the path of a
	// detector alert sidecar log written by the ingest process.
	AlertLog string
	// Alerts, when set, serves /v1/alerts from this callback instead of (or
	// layered over) AlertLog — the live detector's alert list.
	Alerts func() []detect.Alert

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
	return o
}

// Server is a running serving plane over one store.
type Server struct {
	opts     Options
	st       *store.Store
	adm      *admission
	cache    *resultCache
	profiles *profileLog
	lastGen  atomic.Uint64
	srv      *http.Server
	inflight atomic.Int64 // requests inside a handler

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
		opts:     opts,
		st:       opts.Store,
		adm:      newAdmission(opts.MaxSessions, opts.MaxQueue, opts.QueueWait, opts.Quotas, opts.DefaultQuota, opts.now),
		cache:    newResultCache(opts.CacheBytes),
		profiles: newProfileLog(opts.SlowQuery, opts.SlowQueryLog),
		closed:   make(chan struct{}),
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

// Addr returns the listen address once Serve has been called.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
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
// request's trace and profile.
func (s *Server) aggregate(ctx context.Context, prof *QueryProfile, kind string, top int, q store.Query) ([]byte, error) {
	gen := s.generation()
	key := aggregateCacheKey(gen, kind, top, q)
	tc := time.Now()
	_, csp := obs.StartChild(ctx, "cache")
	if body, ok := s.cache.get(key); ok {
		csp.Annotate("result", "hit")
		csp.Finish()
		prof.addStage("cache", time.Since(tc))
		prof.CacheHit = true
		return body, nil
	}
	csp.Annotate("result", "miss")
	csp.Finish()
	prof.addStage("cache", time.Since(tc))

	tagg := time.Now()
	var ex *store.Explain
	body, how, err := s.cache.getOrLoad(key, func() ([]byte, error) {
		span, sctx := obs.StartSpanCtx(ctx, "serve_aggregate")
		defer span.End()
		tsc := time.Now()
		_, ssp := obs.StartChild(sctx, "scan")
		r, qerr := s.st.QueryCtx(sctx, q)
		if qerr != nil {
			ssp.SetError(qerr)
			ssp.Finish()
			prof.addStage("scan", time.Since(tsc))
			return nil, qerr
		}
		agg, aerr := computeAggregate(readerOnly{r}, kind, top)
		r.Close()
		e := r.Explain()
		ex = &e
		ssp.Finish()
		prof.addStage("scan", time.Since(tsc))
		if aerr != nil {
			return nil, aerr
		}
		agg.Generation = gen
		span.Add(int64(agg.Records))
		te := time.Now()
		_, esp := obs.StartChild(sctx, "encode")
		body, merr := marshalJSON(agg)
		esp.Finish()
		prof.addStage("encode", time.Since(te))
		return body, merr
	})
	prof.addStage("aggregate", time.Since(tagg))
	// A hit here means an identical computation landed between the lookup
	// above and this one.
	prof.CacheHit = how == lru.Hit
	prof.Coalesced = how == lru.Shared
	if ex != nil {
		prof.Explain = ex
	}
	if prof.Coalesced {
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
