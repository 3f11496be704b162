// Package serve is the multi-tenant query/serving plane over the store: a
// long-running network service that turns the embedded, one-process irtlstore
// into something a dashboard fleet can hammer.
//
// One listener speaks two protocols — HTTP/JSON for browsers, dashboards,
// and curl, and a length-prefixed binary protocol (reusing the store's
// record codec) for the analysis CLIs — told apart by the first bytes of
// each connection. Every request passes through the same read path:
//
//	admission (worker pool + queue shed + per-tenant token buckets)
//	  → batcher (singleflight coalescing of identical in-flight aggregates)
//	    → result cache (generation-keyed, byte-budgeted LRU)
//	      → store (QueryParallel, predicate pushdown, ordered merge)
//
// Aggregate answers (class totals, daily series, top origins, the per-peer
// density matrix) are cached under the store's segment-set generation, so a
// hot dashboard panel is served from memory until a seal or compaction
// actually changes the data — never after. Record streams are never cached;
// they stream block by block from the store's merge reader. Every stage
// publishes irtl_serve_* metrics through internal/obs.
package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
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
	// Workers is the per-query store scan parallelism. Default GOMAXPROCS.
	Workers int
	// DrainTimeout bounds how long Close waits for in-flight requests
	// before force-closing their connections. Default 5s.
	DrainTimeout time.Duration
	// SlowQuery is the slow-query threshold: any request at or over it emits
	// one NDJSON QueryProfile line. Zero means 1s; negative disables the log
	// (profiles are still gathered for /v1/statz).
	SlowQuery time.Duration
	// SlowQueryLog receives the NDJSON lines. Nil means os.Stderr.
	SlowQueryLog io.Writer
	// FrameTimeout is the binary protocol's read idle limit: the deadline is
	// pushed out on every read that makes progress, so a slow-but-live
	// client can take arbitrarily long to deliver a request frame while a
	// stalled one is disconnected after this much silence. Default 30s.
	FrameTimeout time.Duration
	// AlertLog, when set, is appended to /v1/alerts responses: the path of a
	// detector alert sidecar log written by the ingest process.
	AlertLog string
	// Alerts, when set, serves /v1/alerts from this callback instead of (or
	// layered over) AlertLog — the live detector's alert list.
	Alerts func() []detect.Alert

	// now overrides the clock for token-bucket tests.
	now func() time.Time
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
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 5 * time.Second
	}
	if o.FrameTimeout <= 0 {
		o.FrameTimeout = 30 * time.Second
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

	ln      net.Listener
	httpLn  *chanListener
	httpSrv *http.Server

	wg     sync.WaitGroup // accept loop + binary handlers
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed chan struct{}
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
		conns:    make(map[net.Conn]struct{}),
		closed:   make(chan struct{}),
	}
	s.lastGen.Store(s.st.Generation())
	return s, nil
}

// Serve accepts connections on ln until Close, routing each by its first
// bytes: the binary protocol preamble goes to the frame handler, anything
// else to the HTTP server. It returns after the listener closes.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.ln != nil {
		s.mu.Unlock()
		return errors.New("serve: Serve called twice")
	}
	s.ln = ln
	s.httpLn = newChanListener(ln.Addr())
	s.httpSrv = &http.Server{Handler: s.httpHandler(), ReadHeaderTimeout: 10 * time.Second}
	s.mu.Unlock()

	go s.httpSrv.Serve(s.httpLn)

	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return nil
			default:
				return err
			}
		}
		s.wg.Add(1)
		go s.route(conn)
	}
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

// frameConn applies an idle deadline to reads: while armed, every Read
// pushes the conn's read deadline out by timeout, so a slow-but-live client
// may take arbitrarily long to deliver a frame — only timeout of complete
// silence disconnects it. Disarmed it is a passthrough. It is used from the
// single goroutine that owns the connection's read side.
type frameConn struct {
	net.Conn
	timeout time.Duration // 0 = disarmed
}

func (fc *frameConn) Read(p []byte) (int, error) {
	if fc.timeout > 0 {
		fc.Conn.SetReadDeadline(time.Now().Add(fc.timeout))
	}
	return fc.Conn.Read(p)
}

func (fc *frameConn) arm(d time.Duration) { fc.timeout = d }

func (fc *frameConn) disarm() {
	fc.timeout = 0
	fc.Conn.SetReadDeadline(time.Time{})
}

// route sniffs one accepted connection and dispatches it.
func (s *Server) route(conn net.Conn) {
	defer s.wg.Done()
	s.track(conn, true)

	// The preamble gets the idle-deadline treatment too: each read resets
	// the clock, a wholly silent client is cut after 10s.
	fc := &frameConn{Conn: conn}
	fc.arm(10 * time.Second)
	br := bufio.NewReaderSize(fc, 1<<15)
	preamble, err := br.Peek(len(protoMagic) + 1)
	if err != nil {
		s.track(conn, false)
		conn.Close()
		return
	}
	if string(preamble[:len(protoMagic)]) == protoMagic {
		defer s.track(conn, false)
		defer conn.Close()
		br.Discard(len(protoMagic) + 1)
		ver := preamble[len(protoMagic)]
		if ver != protoVersionV1 && ver != protoVersion {
			writeJSONFrame(conn, frameError, wireError{Code: codeBadQuery,
				Msg: fmt.Sprintf("unsupported protocol version %d", ver)})
			return
		}
		fc.arm(s.opts.FrameTimeout)
		s.handleBinary(fc, br, ver)
		return
	}
	fc.disarm()
	// HTTP: hand the connection (with the sniffed bytes still unread) to
	// the embedded http.Server, which owns its lifecycle from here.
	s.track(conn, false)
	if !s.httpLn.deliver(&bufConn{Conn: conn, r: br}) {
		conn.Close()
	}
}

// track adds or removes a connection from the force-close set.
func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
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

// handleBinary speaks the frame protocol on one connection: one request, one
// streamed response. ver is the negotiated protocol version; v2 requests
// carry a trace prefix the handler joins, so the remote caller's query,
// admission wait, scan, and encode appear as one tree.
func (s *Server) handleBinary(conn *frameConn, br *bufio.Reader, ver byte) {
	// The idle deadline armed by route covers the request frame: every read
	// that delivers bytes pushes it out, so only a stalled client times out,
	// however slowly a live one trickles.
	typ, payload, err := readFrame(br)
	conn.disarm()
	if err != nil || typ != frameRequest {
		writeJSONFrame(conn, frameError, wireError{Code: codeBadQuery, Msg: "expected request frame"})
		return
	}
	var traceID, parentSpan uint64
	var sampled bool
	if ver >= protoVersion {
		if traceID, parentSpan, sampled, payload, err = parseTraceCtx(payload); err != nil {
			writeJSONFrame(conn, frameError, wireError{Code: codeBadQuery, Msg: err.Error()})
			return
		}
	}
	var req wireRequest
	if err := unmarshalStrict(payload, &req); err != nil {
		writeJSONFrame(conn, frameError, wireError{Code: codeBadQuery, Msg: err.Error()})
		return
	}

	tenant := tenantLabel(s.opts.Quotas, req.Token)
	reqs, lat := requestMetrics(tenant, "binary")
	reqs.Inc()
	t0 := time.Now()
	defer func() { lat.ObserveSince(t0) }()

	ctx, root := obs.DefaultTracer().Join(context.Background(), "serve_query", traceID, parentSpan, sampled)
	root.Annotate("proto", "binary")
	root.Annotate("tenant", tenant)
	root.Annotate("query", req.Query.String())
	prof := &QueryProfile{Tenant: tenant, Proto: "binary", Kind: "records", Query: req.Query.String()}
	if root != nil {
		prof.TraceID = fmt.Sprintf("%016x", root.TraceID())
	}
	// As over HTTP: the request's failure is recorded in one place, on the
	// way out; error paths only say what it was and answer the client.
	var failed error
	defer func() {
		prof.setError(failed)
		root.SetError(failed)
		root.Finish()
		s.profiles.record(prof, t0)
	}()

	ta := time.Now()
	_, asp := obs.StartChild(ctx, "admission")
	asp.AnnotateInt("queue_depth", s.adm.queueDepth())
	release, err := s.adm.admit(req.Token, s.closed)
	asp.SetError(err)
	asp.Finish()
	prof.addStage("admission", time.Since(ta))
	if err != nil {
		failed = err
		writeJSONFrame(conn, frameError, shedError(err))
		return
	}
	defer release()

	q, err := req.Query.Parse()
	if err != nil {
		failed = err
		writeJSONFrame(conn, frameError, wireError{Code: codeBadQuery, Msg: err.Error()})
		return
	}
	span := obs.StartSpan("serve_query")
	defer span.End()

	// Record streams are never cached; the cache span records the decision so
	// the trace shows the stage was consulted, not skipped.
	_, csp := obs.StartChild(ctx, "cache")
	csp.Annotate("result", "uncacheable_stream")
	csp.Finish()

	gen := s.generation()
	ts := time.Now()
	sctx, ssp := obs.StartChild(ctx, "scan")
	r, err := s.st.QueryParallelCtx(sctx, q, s.opts.Workers)
	if err != nil {
		ssp.SetError(err)
		ssp.Finish()
		prof.addStage("scan", time.Since(ts))
		failed = err
		writeJSONFrame(conn, frameError, wireError{Code: codeInternal, Msg: err.Error()})
		return
	}

	te := time.Now()
	_, esp := obs.StartChild(ctx, "encode")
	bw := bufio.NewWriterSize(conn, 1<<16)
	sent, serr := s.streamBinary(bw, conn, r, req.Query.Limit)
	esp.AnnotateInt("records", int64(sent))
	esp.SetError(serr)
	esp.Finish()
	prof.addStage("encode", time.Since(te))
	span.Add(int64(sent))
	prof.Records = sent

	r.Close() // finishes the store_scan span with the EXPLAIN profile
	ex := r.Explain()
	prof.Explain = &ex
	ssp.Finish()
	prof.addStage("scan", time.Since(ts))

	if serr != nil {
		// The connection may already be dead; a best-effort error frame.
		failed = serr
		writeJSONFrame(bw, frameError, wireError{Code: codeInternal, Msg: serr.Error()})
		bw.Flush()
		return
	}
	if err := writeJSONFrame(bw, frameEnd, wireEnd{Records: sent, Generation: gen, Stats: r.Stats(), Explain: &ex}); err != nil {
		return
	}
	bw.Flush()
}

// streamBinary drains the reader into batched record frames, honoring limit
// and shutdown. Each batch write carries a deadline so a stalled client
// cannot pin a worker slot forever.
func (s *Server) streamBinary(bw *bufio.Writer, conn net.Conn, r *store.Reader, limit int) (int, error) {
	var batch []byte
	var count uint64
	sent := 0
	flushBatch := func() error {
		if count == 0 {
			return nil
		}
		payload := appendUvarintFront(batch, count)
		conn.SetWriteDeadline(time.Now().Add(time.Minute))
		err := writeFrame(bw, frameBatch, payload)
		conn.SetWriteDeadline(time.Time{})
		batch, count = batch[:0], 0
		return err
	}
	for {
		select {
		case <-s.closed:
			return sent, errors.New("server shutting down")
		default:
		}
		rec, err := r.Next()
		if err == io.EOF {
			return sent, flushBatch()
		}
		if err != nil {
			return sent, err
		}
		if batch, err = store.AppendRecordWire(batch, rec); err != nil {
			return sent, err
		}
		count++
		sent++
		obsRecordsStreamed.Inc()
		if limit > 0 && sent >= limit {
			return sent, flushBatch()
		}
		if count >= batchRecords {
			if err := flushBatch(); err != nil {
				return sent, err
			}
		}
	}
}

// appendUvarintFront prepends a uvarint count to a record payload. The
// record bytes were appended starting at offset 0; rather than shifting
// them, the count is written into a small header slice and the two are
// joined. One small copy per batch.
func appendUvarintFront(records []byte, count uint64) []byte {
	var hdr [10]byte
	n := 0
	for v := count; ; n++ {
		if v < 0x80 {
			hdr[n] = byte(v)
			n++
			break
		}
		hdr[n] = byte(v) | 0x80
		v >>= 7
	}
	out := make([]byte, 0, n+len(records))
	out = append(out, hdr[:n]...)
	return append(out, records...)
}

// aggregate answers an aggregate query through the result cache, which also
// coalesces identical computations in flight, returning the serialized JSON
// body shared by both protocols. The cache lookup, coalescing outcome, and
// store scan all land on the request's trace and profile.
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
		r, qerr := s.st.QueryParallelCtx(sctx, q, s.opts.Workers)
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
		s.mu.Lock()
		ln, httpSrv, httpLn := s.ln, s.httpSrv, s.httpLn
		s.mu.Unlock()
		if ln != nil {
			ln.Close()
		}
		if httpLn != nil {
			httpLn.close()
		}
		done := make(chan struct{})
		go func() {
			s.wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(s.opts.DrainTimeout):
			log.Printf("serve: drain timeout after %v; force-closing connections", s.opts.DrainTimeout)
			s.mu.Lock()
			for c := range s.conns {
				c.Close()
			}
			s.mu.Unlock()
			<-done
		}
		if httpSrv != nil {
			httpSrv.Close()
		}
	})
	return nil
}

// chanListener adapts the sniffing accept loop to http.Server.Serve: routed
// HTTP connections are delivered through a channel.
type chanListener struct {
	ch   chan net.Conn
	addr net.Addr
	done chan struct{}
	once sync.Once
}

func newChanListener(addr net.Addr) *chanListener {
	return &chanListener{ch: make(chan net.Conn), addr: addr, done: make(chan struct{})}
}

func (l *chanListener) deliver(c net.Conn) bool {
	select {
	case l.ch <- c:
		return true
	case <-l.done:
		return false
	}
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.ch:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error {
	l.close()
	return nil
}

func (l *chanListener) close()         { l.once.Do(func() { close(l.done) }) }
func (l *chanListener) Addr() net.Addr { return l.addr }

// bufConn is a net.Conn whose reads go through the bufio.Reader that already
// holds the sniffed bytes.
type bufConn struct {
	net.Conn
	r *bufio.Reader
}

func (c *bufConn) Read(p []byte) (int, error) { return c.r.Read(p) }
