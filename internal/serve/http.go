package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"instability/internal/detect"
	"instability/internal/obs"
	"instability/internal/store"
)

// HTTP surface:
//
//	GET /v1/records?from=&to=&peer=&origin=&prefix=&type=&limit=
//	    stream matching records as NDJSON (one RecordJSON per line)
//	GET /v1/aggregate?kind=classes|daily|top_origins|peer_matrix&top=K&...
//	    cached aggregate as one JSON document
//	GET /v1/statz   store + serving-plane status
//	GET /healthz    liveness
//
// The API token rides in "Authorization: Bearer <token>" or "X-Irtl-Token".
// Shed requests answer 429 with a JSON body naming the reason, matching the
// binary protocol's busy/quota error frames.

func marshalJSON(v any) ([]byte, error) { return json.Marshal(v) }

// unmarshalStrict decodes JSON rejecting unknown fields, so a typoed query
// key fails loudly instead of silently matching everything.
func unmarshalStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) httpHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/records", s.handleRecords)
	mux.HandleFunc("/v1/aggregate", s.handleAggregate)
	mux.HandleFunc("/v1/statz", s.handleStatz)
	mux.HandleFunc("/v1/alerts", s.handleAlerts)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
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

// specOf builds a QuerySpec from URL parameters (same names as the CLI
// flags).
func specOf(r *http.Request) (QuerySpec, error) {
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
			return spec, fmt.Errorf("serve: bad limit %q", l)
		}
		spec.Limit = n
	}
	return spec, nil
}

// httpError writes a JSON error body with the right status: 429 for sheds,
// 400 for bad queries, 500 otherwise.
func httpError(w http.ResponseWriter, err error) {
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
}

// errBadRequest marks client errors (bad predicates, unknown kinds) for
// status mapping.
var errBadRequest = errors.New("serve: bad request")

func badRequest(err error) error { return fmt.Errorf("%w: %v", errBadRequest, err) }

// admitHTTP runs the shared front door for one HTTP request under an
// "admission" child span, recording per-tenant metrics and the stage time on
// the profile either way.
func (s *Server) admitHTTP(ctx context.Context, prof *QueryProfile, r *http.Request) (release func(), lat *obs.Histogram, err error) {
	token := tokenOf(r)
	tenant := tenantLabel(s.opts.Quotas, token)
	prof.Tenant = tenant
	reqs, lat := requestMetrics(tenant, "http")
	reqs.Inc()
	ta := time.Now()
	_, asp := obs.StartChild(ctx, "admission")
	asp.AnnotateInt("queue_depth", s.adm.queueDepth())
	release, err = s.adm.admit(token, s.closed)
	asp.SetError(err)
	asp.Finish()
	prof.addStage("admission", time.Since(ta))
	return release, lat, err
}

// scanErrorTrailer is the HTTP trailer /v1/records sets when the record
// stream ended before the scan did; its value is the error. The binary
// protocol's equivalent is the error frame.
const scanErrorTrailer = "Irtl-Scan-Error"

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	ctx, root := obs.DefaultTracer().JoinHeader(r.Context(), "serve_query", r.Header.Get(obs.TraceHeader))
	root.Annotate("proto", "http")
	prof := &QueryProfile{Proto: "http", Kind: "records"}
	if root != nil {
		prof.TraceID = fmt.Sprintf("%016x", root.TraceID())
	}
	// The request's failure is recorded in one place, on the way out, so no
	// error path can answer the client and forget the profile or the span.
	var failed error
	defer func() {
		prof.setError(failed)
		root.SetError(failed)
		root.Finish()
		s.profiles.record(prof, t0)
	}()
	fail := func(err error) {
		failed = err
		httpError(w, err)
	}

	release, lat, err := s.admitHTTP(ctx, prof, r)
	if err != nil {
		fail(err)
		return
	}
	defer release()
	defer func() { lat.ObserveSince(t0) }()

	spec, err := specOf(r)
	if err != nil {
		fail(badRequest(err))
		return
	}
	prof.Query = spec.String()
	root.Annotate("query", spec.String())
	q, err := spec.Parse()
	if err != nil {
		fail(badRequest(err))
		return
	}
	span := obs.StartSpan("serve_query")
	defer span.End()

	// Record streams bypass the cache; the span records the decision.
	_, csp := obs.StartChild(ctx, "cache")
	csp.Annotate("result", "uncacheable_stream")
	csp.Finish()

	ts := time.Now()
	sctx, ssp := obs.StartChild(ctx, "scan")
	rd, err := s.st.QueryParallelCtx(sctx, q, s.opts.Workers)
	if err != nil {
		ssp.SetError(err)
		ssp.Finish()
		prof.addStage("scan", time.Since(ts))
		fail(err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.Header().Set("Irtl-Generation", strconv.FormatUint(s.generation(), 10))
	// The status line is long gone by the time a scan can fail midway, so
	// the failure travels as a trailer, announced before the body starts.
	w.Header().Set("Trailer", scanErrorTrailer)
	te := time.Now()
	_, esp := obs.StartChild(ctx, "encode")
	enc := json.NewEncoder(w)
	sent := 0
	var serr error // why the stream stopped short of the scan's end, if it did
loop:
	for {
		select {
		case <-s.closed:
			serr = errors.New("server shutting down")
			break loop // flush what we have
		default:
		}
		rec, nerr := rd.Next()
		if nerr != nil {
			if nerr != io.EOF {
				serr = nerr
			}
			break
		}
		rj, jerr := ToJSON(rec)
		if jerr != nil {
			serr = jerr
			break
		}
		if enc.Encode(rj) != nil {
			break // client went away
		}
		sent++
		obsRecordsStreamed.Inc()
		if spec.Limit > 0 && sent >= spec.Limit {
			break
		}
	}
	if serr != nil {
		// Without this a truncated body is indistinguishable from a short
		// answer: 200, clean end of stream, fewer records.
		w.Header().Set(scanErrorTrailer, serr.Error())
		failed = serr
	}
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
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	ctx, root := obs.DefaultTracer().JoinHeader(r.Context(), "serve_aggregate", r.Header.Get(obs.TraceHeader))
	root.Annotate("proto", "http")
	prof := &QueryProfile{Proto: "http"}
	if root != nil {
		prof.TraceID = fmt.Sprintf("%016x", root.TraceID())
	}
	// The request's failure is recorded in one place, on the way out, so no
	// error path can answer the client and forget the profile or the span.
	var failed error
	defer func() {
		prof.setError(failed)
		root.SetError(failed)
		root.Finish()
		s.profiles.record(prof, t0)
	}()
	fail := func(err error) {
		failed = err
		httpError(w, err)
	}

	release, lat, err := s.admitHTTP(ctx, prof, r)
	if err != nil {
		fail(err)
		return
	}
	defer release()
	defer func() { lat.ObserveSince(t0) }()

	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = KindClasses
	}
	prof.Kind = kind
	root.Annotate("kind", kind)
	top := 0
	if ts := r.URL.Query().Get("top"); ts != "" {
		if top, err = strconv.Atoi(ts); err != nil || top < 0 {
			fail(badRequest(fmt.Errorf("bad top %q", ts)))
			return
		}
	}
	spec, err := specOf(r)
	if err != nil {
		fail(badRequest(err))
		return
	}
	prof.Query = spec.String()
	root.Annotate("query", spec.String())
	q, err := spec.Parse()
	if err != nil {
		fail(badRequest(err))
		return
	}
	if !validKind(kind) {
		fail(badRequest(fmt.Errorf("unknown kind %q (want %v)", kind, Kinds())))
		return
	}
	body, err := s.aggregate(ctx, prof, kind, top, q)
	if err != nil {
		fail(err)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.Write(body)
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
