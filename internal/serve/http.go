package serve

import (
	"bufio"
	"context"
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
//	    stream matching records: NDJSON (one RecordJSON per line), or with
//	    "Accept: application/x-irtq" an IRTL log (proto.go); either ends in
//	    the Irtl-Scan-Error or the Irtl-Explain trailer
//	GET /v1/aggregate?kind=classes|daily|top_origins|peer_matrix&top=K&...
//	    cached aggregate as one JSON document
//	GET /v1/statz   store + serving-plane status
//	GET /healthz    liveness
//
// The API token rides in "Authorization: Bearer <token>" or "X-Irtl-Token",
// the caller's trace in X-Irtl-Trace. Shed requests answer 429 with a JSON
// wireError body naming the reason.

func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/records", s.handle(rootRecords, "records", s.handleRecords))
	mux.HandleFunc("/v1/aggregate", s.handle(rootAggregate, "", s.handleAggregate))
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

// wantsIRTQ reports whether a record request accepts an IRTQ body.
func wantsIRTQ(r *http.Request) bool { return strings.Contains(r.Header.Get("Accept"), irtqType) }

// specOf reads a query from URL parameters (same names as the CLI flags),
// names it on the request's root span, and parses it.
func specOf(ctx context.Context, r *http.Request) (QuerySpec, store.Query, error) {
	v := r.URL.Query()
	var spec QuerySpec
	for _, p := range spec.params() {
		*p.v = v.Get(p.name)
	}
	if l := v.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n < 0 {
			return spec, store.Query{}, badRequest(fmt.Errorf("serve: bad limit %q", l))
		}
		spec.Limit = n
	}
	obs.SpanFromContext(ctx).Annotate("query", spec.String())
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
type queryHandler func(ctx context.Context, w http.ResponseWriter, r *http.Request) error

// handle is the front half every query shares: it joins the caller's trace,
// counts the request under its tenant and encoding, admits it under an
// "admission" child span, and finishes the request's one record — its trace
// — and the latency of admitted requests in one place on the way out, so no
// error path can answer the client and forget them. kind "records" marks the
// endpoint whose encoding the Accept header picks.
func (s *Server) handle(name, kind string, h queryHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		proto := "http"
		if kind == "records" && wantsIRTQ(r) {
			proto = "binary"
		}
		ctx, root := obs.DefaultTracer().JoinHeader(r.Context(), name, r.Header.Get(obs.TraceHeader))
		token := tokenOf(r)
		tenant := tenantLabel(s.opts.Quotas, token)
		root.Annotate("proto", proto)
		root.Annotate("tenant", tenant)
		if kind != "" {
			root.Annotate("kind", kind)
		}
		reqs, lat := requestMetrics(tenant, proto)
		reqs.Inc()

		_, asp := obs.StartChild(ctx, "admission")
		asp.AnnotateInt("queue_depth", s.adm.queueDepth())
		release, err := s.adm.admit(token, s.closed)
		asp.SetError(err)
		asp.Finish()
		if err != nil {
			httpError(w, err)
		} else {
			// Released last, so a freed slot means the trace is collected.
			defer release()
			err = h(ctx, w, r)
			lat.ObserveSince(t0)
		}
		root.SetError(err)
		root.Finish()
		s.logSlow(root.Trace())
	}
}

// handleRecords streams the records matching one query in the encoding the
// request accepts. Everything but the encoding is shared: the scan, a
// deadline on every write, and the end of the stream, which — the 200 long
// gone by then — is one of the two trailers (proto.go).
func (s *Server) handleRecords(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	spec, q, err := specOf(ctx, r)
	if err != nil {
		return httpError(w, err)
	}
	// Record streams bypass the cache; the span records the decision.
	_, csp := obs.StartChild(ctx, "cache")
	csp.Annotate("result", "uncacheable_stream")
	csp.Finish()

	sctx, ssp := obs.StartChild(ctx, "scan")
	rd, err := s.st.QueryCtx(sctx, q)
	if err != nil {
		ssp.SetError(err)
		ssp.Finish()
		return httpError(w, err)
	}

	rc := http.NewResponseController(w)
	defer rc.SetWriteDeadline(time.Time{}) // the connection may serve another request
	bw := bufio.NewWriterSize(deadlineWriter{rc, w, s.opts.writeTimeout}, 1<<16)
	h := w.Header()
	// The generation of the reader's own snapshot, not of the store now.
	h.Set("Irtl-Generation", strconv.FormatUint(rd.Explain().Generation, 10))
	h.Set("Trailer", scanErrorTrailer+", "+explainTrailer)
	var enc recordEncoder
	if wantsIRTQ(r) {
		h.Set("Content-Type", irtqType)
		enc, _ = collector.NewWriter(bw, irtqExchange) // fails only on a long name
	} else {
		h.Set("Content-Type", "application/x-ndjson; charset=utf-8")
		enc = ndjsonEncoder{json.NewEncoder(bw)}
	}

	_, esp := obs.StartChild(ctx, "encode")
	sent, serr := s.stream(enc, rd, spec.Limit)
	esp.AnnotateInt("records", int64(sent))
	esp.SetError(serr)
	esp.Finish()

	rd.Close() // finishes the store_scan span with the EXPLAIN profile
	ssp.Finish()

	if serr != nil {
		h.Set(scanErrorTrailer, serr.Error())
	} else if ex, err := json.Marshal(rd.Explain()); err == nil {
		h.Set(explainTrailer, string(ex))
	}
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

// stream drains rd into enc, honouring limit and shutdown, and closes enc
// when the scan ends. It returns how many records it encoded and why it
// stopped short of the scan's end, if it did — a scan error, an encoding
// error, a failed write, or shutdown. A stream that stops short leaves enc
// open: the log frame the failure interrupted is never sent.
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
		if err := enc.Write(rec); err != nil {
			return sent, err
		}
		sent++
		obsRecordsStreamed.Inc()
	}
	return sent, enc.Close()
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

// recordEncoder is one response encoding of /v1/records: a
// *collector.Writer for IRTQ, or NDJSON. Both write into the stream's
// buffer, whose first failed write fails every later one.
type recordEncoder interface {
	Write(rec collector.Record) error
	// Close finishes a body whose scan ended: the log's last frame.
	Close() error
}

// ndjsonEncoder writes one RecordJSON per line.
type ndjsonEncoder struct{ enc *json.Encoder }

func (e ndjsonEncoder) Write(rec collector.Record) error {
	rj, err := ToJSON(rec)
	if err == nil {
		err = e.enc.Encode(rj)
	}
	return err
}

func (ndjsonEncoder) Close() error { return nil }

func (s *Server) handleAggregate(ctx context.Context, w http.ResponseWriter, r *http.Request) error {
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = KindClasses
	}
	obs.SpanFromContext(ctx).Annotate("kind", kind)
	top := 0
	if ts := r.URL.Query().Get("top"); ts != "" {
		var err error
		if top, err = strconv.Atoi(ts); err != nil || top < 0 {
			return httpError(w, badRequest(fmt.Errorf("bad top %q", ts)))
		}
	}
	_, q, err := specOf(ctx, r)
	if err != nil {
		return httpError(w, err)
	}
	if !validKind(kind) {
		return httpError(w, badRequest(fmt.Errorf("unknown kind %q (want %v)", kind, Kinds())))
	}
	body, err := s.aggregate(ctx, kind, top, q)
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

// Statz is the /v1/statz document. Store carries the store's generation and
// its block cache; the Cache fields describe the aggregate result cache.
type Statz struct {
	Store          store.Stats    `json:"store"`
	ActiveSessions int64          `json:"active_sessions"`
	QueueDepth     int64          `json:"queue_depth"`
	CacheHits      uint64         `json:"cache_hits"`
	CacheMisses    uint64         `json:"cache_misses"`
	CacheEvictions uint64         `json:"cache_evictions"`
	CacheBytes     int64          `json:"cache_bytes"`
	Quotas         string         `json:"quotas"`
	RecentQueries  []QueryProfile `json:"recent_queries,omitempty"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	hits, misses, evictions, bytes := s.cache.counts()
	doc := Statz{
		Store:          s.st.Stats(),
		ActiveSessions: s.ActiveSessions(),
		QueueDepth:     s.adm.queueDepth(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheEvictions: evictions,
		CacheBytes:     bytes,
		Quotas:         quotasString(s.opts.Quotas, s.opts.DefaultQuota),
		RecentQueries:  recentProfiles(),
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(doc)
}

// AlertsDoc is the /v1/alerts response: the anomaly episodes the alert
// sidecar log holds.
type AlertsDoc struct {
	Alerts []detect.Alert `json:"alerts"`
	// Source notes where the alerts came from: "log", or "none" when the
	// server has no alert log.
	Source string `json:"source"`
}

// handleAlerts serves the detector's alert stream from the alert sidecar log
// an ingest process wrote.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	doc := AlertsDoc{Alerts: []detect.Alert{}, Source: "none"}
	if s.opts.AlertLog != "" {
		_, err := store.ReadSidecarLog(s.opts.AlertLog, func(payload []byte) error {
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
		doc.Source = "log"
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	json.NewEncoder(w).Encode(doc)
}
