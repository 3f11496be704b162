package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"instability/internal/collector"
	"instability/internal/detect"
	"instability/internal/obs"
	"instability/internal/store"
)

// HTTP surface:
//
//	GET /v1/records?from=&to=&peer=&origin=&prefix=&type=&limit=
//	    stream matching records: NDJSON (one RecordJSON per line), or IRTQ
//	    frames (proto.go) with "Accept: application/x-irtq"
//	GET /v1/aggregate?kind=classes|daily|top_origins|peer_matrix&top=K&...
//	    cached aggregate as one JSON document
//	GET /v1/statz   store + serving-plane status
//	GET /healthz    liveness
//
// The API token rides in "Authorization: Bearer <token>" or "X-Irtl-Token",
// the caller's trace in X-Irtl-Trace. Shed requests answer 429 with a JSON
// wireError body naming the reason.

func marshalJSON(v any) ([]byte, error) { return json.Marshal(v) }

func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/records", s.handle("serve_query", "records", s.handleRecords))
	mux.HandleFunc("/v1/aggregate", s.handle("serve_aggregate", "", s.handleAggregate))
	mux.HandleFunc("/v1/statz", s.handleStatz)
	mux.HandleFunc("/v1/alerts", s.handleAlerts)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		defer s.inflight.Add(-1)
		mux.ServeHTTP(w, r)
	})
}

// tokenOf extracts the API token identifying the tenant.
func tokenOf(r *http.Request) string {
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		return strings.TrimPrefix(auth, "Bearer ")
	}
	if tok := r.Header.Get("X-Irtl-Token"); tok != "" {
		return tok
	}
	return r.URL.Query().Get("token")
}

// specOf reads a query from URL parameters (same names as the CLI flags),
// names it on the profile and the request's root span, and parses it.
func specOf(ctx context.Context, r *http.Request, prof *QueryProfile) (QuerySpec, store.Query, error) {
	v := r.URL.Query()
	spec := QuerySpec{
		From:   v.Get("from"),
		To:     v.Get("to"),
		Peer:   v.Get("peer"),
		Origin: v.Get("origin"),
		Prefix: v.Get("prefix"),
		Type:   v.Get("type"),
	}
	if l := v.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			return spec, store.Query{}, badRequest(fmt.Errorf("serve: bad limit %q", l))
		}
		spec.Limit = n
	}
	prof.Query = spec.String()
	obs.SpanFromContext(ctx).Annotate("query", prof.Query)
	q, err := spec.Parse()
	if err != nil {
		return spec, q, badRequest(err)
	}
	return spec, q, nil
}

// httpError writes a JSON error body with the right status — 429 for sheds,
// 400 for bad queries, 500 otherwise — and returns err.
func httpError(w http.ResponseWriter, err error) error {
	we := wireError{Code: codeInternal, Msg: err.Error()}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrBusy):
		we.Code, status = codeBusy, http.StatusTooManyRequests
	case errors.Is(err, ErrQuota):
		we.Code, status = codeQuota, http.StatusTooManyRequests
	case errors.Is(err, errBadRequest):
		we.Code, status = codeBadQuery, http.StatusBadRequest
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(we)
	return err
}

// errBadRequest marks client errors (bad predicates, unknown kinds) for
// status mapping.
var errBadRequest = errors.New("serve: bad request")

func badRequest(err error) error { return fmt.Errorf("%w: %v", errBadRequest, err) }

// queryHandler answers one admitted query, errors included, and returns the
// request's failure, if any.
type queryHandler func(ctx context.Context, w http.ResponseWriter, r *http.Request, prof *QueryProfile) error

// handle is the front half every query shares: it joins the caller's trace,
// counts the request under its tenant and encoding, admits it under an
// "admission" child span, and records the outcome — profile, root span,
// latency of admitted requests — in one place on the way out, so no error
// path can answer the client and forget the profile or the span. kind
// "records" marks the endpoint whose encoding the Accept header picks.
func (s *Server) handle(name, kind string, h queryHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		prof := &QueryProfile{Proto: "http", Kind: kind}
		if kind == "records" && strings.Contains(r.Header.Get("Accept"), irtqType) {
			prof.Proto = "binary"
		}
		ctx, root := obs.DefaultTracer().JoinHeader(r.Context(), name, r.Header.Get(obs.TraceHeader))
		if root != nil {
			prof.TraceID = fmt.Sprintf("%016x", root.TraceID())
		}
		token := tokenOf(r)
		prof.Tenant = tenantLabel(s.opts.Quotas, token)
		root.Annotate("proto", prof.Proto)
		root.Annotate("tenant", prof.Tenant)
		reqs, lat := requestMetrics(prof.Tenant, prof.Proto)
		reqs.Inc()

		ta := time.Now()
		_, asp := obs.StartChild(ctx, "admission")
		asp.AnnotateInt("queue_depth", s.adm.queueDepth())
		release, err := s.adm.admit(token, s.closed)
		asp.SetError(err)
		asp.Finish()
		prof.addStage("admission", time.Since(ta))
		if err != nil {
			httpError(w, err)
		} else {
			// Released last, so a freed slot means the profile is recorded.
			defer release()
			err = h(ctx, w, r, prof)
			lat.ObserveSince(t0)
		}
		prof.setError(err)
		root.SetError(err)
		root.Finish()
		s.profiles.record(prof, t0)
	}
}

// scanErrorTrailer is the HTTP trailer an NDJSON record stream sets when it
// ended before the scan did; its value is the error. IRTQ's equivalent is
// the error frame.
const scanErrorTrailer = "Irtl-Scan-Error"

// handleRecords streams the records matching one query in the encoding the
// request accepts. Everything but the encoding is shared: the scan, a
// deadline on every write, and the end of the stream, which — the 200 long
// gone by then — reports an early stop in the body's own terms.
func (s *Server) handleRecords(ctx context.Context, w http.ResponseWriter, r *http.Request, prof *QueryProfile) error {
	spec, q, err := specOf(ctx, r, prof)
	if err != nil {
		return httpError(w, err)
	}
	span := obs.StartSpan("serve_query")
	defer span.End()

	// Record streams bypass the cache; the span records the decision.
	_, csp := obs.StartChild(ctx, "cache")
	csp.Annotate("result", "uncacheable_stream")
	csp.Finish()

	ts := time.Now()
	sctx, ssp := obs.StartChild(ctx, "scan")
	rd, err := s.st.QueryCtx(sctx, q)
	if err != nil {
		ssp.SetError(err)
		ssp.Finish()
		prof.addStage("scan", time.Since(ts))
		return httpError(w, err)
	}

	rc := http.NewResponseController(w)
	defer rc.SetWriteDeadline(time.Time{}) // the connection may serve another request
	bw := bufio.NewWriterSize(deadlineWriter{rc, w, s.opts.writeTimeout}, 1<<16)
	h := w.Header()
	// The generation of the reader's own snapshot, not of the store now.
	h.Set("Irtl-Generation", strconv.FormatUint(rd.Explain().Generation, 10))
	var enc recordEncoder
	if prof.Proto == "binary" {
		h.Set("Content-Type", irtqType)
		enc = &irtqEncoder{bw: bw}
	} else {
		h.Set("Content-Type", "application/x-ndjson; charset=utf-8")
		h.Set("Trailer", scanErrorTrailer)
		enc = ndjsonEncoder{json.NewEncoder(bw), h}
	}

	te := time.Now()
	_, esp := obs.StartChild(ctx, "encode")
	sent, serr := s.stream(enc, rd, spec.Limit)
	esp.AnnotateInt("records", int64(sent))
	esp.SetError(serr)
	esp.Finish()
	prof.addStage("encode", time.Since(te))
	span.Add(int64(sent))
	prof.Records = sent

	rd.Close() // finishes the store_scan span with the EXPLAIN profile
	ex := rd.Explain()
	prof.Explain = &ex
	ssp.Finish()
	prof.addStage("scan", time.Since(ts))

	enc.end(wireEnd{Records: sent, Generation: ex.Generation, Stats: rd.Stats(), Explain: &ex}, serr)
	if err = bw.Flush(); err == nil {
		// What the response writer still holds goes out under a deadline too.
		rc.SetWriteDeadline(time.Now().Add(s.opts.writeTimeout))
		err = rc.Flush()
	}
	if serr != nil {
		return serr
	}
	return err
}

// stream drains rd into enc, honouring limit and shutdown. It returns how
// many records it encoded and why it stopped short of the scan's end, if it
// did — a scan error, an encoding error, a failed write, or shutdown.
func (s *Server) stream(enc recordEncoder, rd *store.Reader, limit int) (int, error) {
	sent := 0
	for limit <= 0 || sent < limit {
		select {
		case <-s.closed:
			return sent, errors.New("server shutting down")
		default:
		}
		rec, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return sent, err
		}
		if err := enc.record(rec); err != nil {
			return sent, err
		}
		sent++
		obsRecordsStreamed.Inc()
	}
	return sent, nil
}

// deadlineWriter gives every write of a record stream — one per flush of its
// buffer — a fresh deadline, so a client that stops reading frees its session
// slot after writeTimeout while one that reads slowly is never cut.
type deadlineWriter struct {
	rc *http.ResponseController
	w  io.Writer
	d  time.Duration
}

func (dw deadlineWriter) Write(p []byte) (int, error) {
	if err := dw.rc.SetWriteDeadline(time.Now().Add(dw.d)); err != nil {
		return 0, err
	}
	return dw.w.Write(p)
}

// recordEncoder is one response encoding of /v1/records. Both write into the
// stream's buffer, whose first failed write fails every later one.
type recordEncoder interface {
	record(rec collector.Record) error
	// end finishes the body; err is why the stream stopped short, or nil.
	end(e wireEnd, err error)
}

// ndjsonEncoder writes one RecordJSON per line.
type ndjsonEncoder struct {
	enc *json.Encoder
	h   http.Header
}

func (e ndjsonEncoder) record(rec collector.Record) error {
	rj, err := ToJSON(rec)
	if err == nil {
		err = e.enc.Encode(rj)
	}
	return err
}

// end sets the trailer announced with the headers: without it a truncated
// body is indistinguishable from a short answer — 200, clean end, fewer
// records.
func (e ndjsonEncoder) end(_ wireEnd, err error) {
	if err != nil {
		e.h.Set(scanErrorTrailer, err.Error())
	}
}

// irtqEncoder packs records into frameBatch frames of batchRecords each.
type irtqEncoder struct {
	bw    *bufio.Writer
	batch []byte
	count uint64
	hdr   [binary.MaxVarintLen64]byte
}

func (e *irtqEncoder) record(rec collector.Record) (err error) {
	if e.batch, err = store.AppendRecordWire(e.batch, rec); err != nil {
		return err
	}
	if e.count++; e.count == batchRecords {
		return e.flush()
	}
	return nil
}

func (e *irtqEncoder) flush() error {
	if e.count == 0 {
		return nil
	}
	err := writeFrame(e.bw, frameBatch, binary.AppendUvarint(e.hdr[:0], e.count), e.batch)
	e.batch, e.count = e.batch[:0], 0
	return err
}

// end sends the last batch and the end frame, or, when the stream stopped
// short, an error frame instead; the batch the failure interrupted is never
// sent.
func (e *irtqEncoder) end(end wireEnd, err error) {
	if err == nil {
		if err = e.flush(); err == nil {
			writeJSONFrame(e.bw, frameEnd, end)
			return
		}
	}
	writeJSONFrame(e.bw, frameError, wireError{Code: codeInternal, Msg: err.Error()})
}

func (s *Server) handleAggregate(ctx context.Context, w http.ResponseWriter, r *http.Request, prof *QueryProfile) error {
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = KindClasses
	}
	prof.Kind = kind
	obs.SpanFromContext(ctx).Annotate("kind", kind)
	top := 0
	if ts := r.URL.Query().Get("top"); ts != "" {
		var err error
		if top, err = strconv.Atoi(ts); err != nil || top < 0 {
			return httpError(w, badRequest(fmt.Errorf("bad top %q", ts)))
		}
	}
	_, q, err := specOf(ctx, r, prof)
	if err != nil {
		return httpError(w, err)
	}
	if !validKind(kind) {
		return httpError(w, badRequest(fmt.Errorf("unknown kind %q (want %v)", kind, Kinds())))
	}
	body, err := s.aggregate(ctx, prof, kind, top, q)
	if err != nil {
		return httpError(w, err)
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body)
	return nil
}

func validKind(kind string) bool {
	for _, k := range Kinds() {
		if k == kind {
			return true
		}
	}
	return false
}

// Statz is the /v1/statz document.
type Statz struct {
	Store          store.Stats `json:"store"`
	Generation     uint64      `json:"generation"`
	ActiveSessions int64       `json:"active_sessions"`
	QueueDepth     int64       `json:"queue_depth"`
	CacheHits      uint64      `json:"cache_hits"`
	CacheMisses    uint64      `json:"cache_misses"`
	CacheEvictions uint64      `json:"cache_evictions"`
	CacheBytes     int64       `json:"cache_bytes"`
	// BlockCache is the store's shared decompressed-block cache (distinct
	// from the aggregate result cache the fields above describe).
	BlockCache    store.BlockCacheStats `json:"block_cache"`
	Quotas        string                `json:"quotas"`
	RecentQueries []QueryProfile        `json:"recent_queries,omitempty"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	hits, misses, evictions, bytes := s.cache.counts()
	st := s.st.Stats()
	doc := Statz{
		Store:          st,
		Generation:     s.generation(),
		ActiveSessions: s.ActiveSessions(),
		QueueDepth:     s.adm.queueDepth(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: evictions,
		CacheBytes:     bytes,
		BlockCache:     st.BlockCache,
		Quotas:         quotasString(s.opts.Quotas, s.opts.DefaultQuota),
		RecentQueries:  s.profiles.recent(),
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(doc)
}

// AlertsDoc is the /v1/alerts response: the detector's anomaly episodes,
// live ones first when a live detector is wired, then whatever the alert
// sidecar log holds.
type AlertsDoc struct {
	Alerts []detect.Alert `json:"alerts"`
	// Source notes where the alerts came from: "live", "log", "live+log",
	// or "none" when the server has no detector wired at all.
	Source string `json:"source"`
}

// handleAlerts serves the detector's alert stream: the live detector
// callback when the serving process hosts one, the alert sidecar log when an
// ingest process wrote one, or both.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	doc := AlertsDoc{Alerts: []detect.Alert{}, Source: "none"}
	if s.opts.Alerts != nil {
		doc.Alerts = append(doc.Alerts, s.opts.Alerts()...)
		doc.Source = "live"
	}
	if s.opts.AlertLog != "" {
		n, err := store.ReadSidecarLog(s.opts.AlertLog, func(payload []byte) error {
			var a detect.Alert
			if err := json.Unmarshal(payload, &a); err != nil {
				return err
			}
			doc.Alerts = append(doc.Alerts, a)
			return nil
		})
		if err != nil {
			http.Error(w, fmt.Sprintf("alert log: %v", err), http.StatusInternalServerError)
			return
		}
		_ = n
		if doc.Source == "live" {
			doc.Source = "live+log"
		} else {
			doc.Source = "log"
		}
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(doc)
}
