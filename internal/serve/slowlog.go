package serve

import (
	"encoding/json"
	"fmt"
	"time"

	"instability/internal/obs"
	"instability/internal/store"
)

// The two renderings of a request's trace: a trace the tracer judged slow
// (TraceConfig.SlowThreshold) becomes one NDJSON line in
// Options.SlowQueryLog, and the server traces it retained, head-sampled or
// slow, are /v1/statz recent_queries.

// QueryProfile is one request's attribution record, rendered from its trace.
type QueryProfile struct {
	Time       string             `json:"time"`
	TraceID    string             `json:"trace_id,omitempty"`
	Tenant     string             `json:"tenant"`
	Proto      string             `json:"proto"` // response encoding: "binary" (IRTQ) or "http"
	Kind       string             `json:"kind"`  // "records" or an aggregate kind
	Query      string             `json:"query"`
	DurationMs float64            `json:"duration_ms"`
	Stages     map[string]float64 `json:"stages_ms,omitempty"`
	Records    int                `json:"records,omitempty"`
	CacheHit   bool               `json:"cache_hit,omitempty"`
	Coalesced  bool               `json:"coalesced,omitempty"`
	Explain    *store.Explain     `json:"explain,omitempty"`
	Err        string             `json:"error,omitempty"`
}

// The server's request traces are rooted at these spans.
const rootRecords, rootAggregate = "serve_query", "serve_aggregate"

const recentQueries = 32 // how many profiles /v1/statz lists

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// attr returns sp's last annotation under key, the zero one if none.
func attr(sp *obs.TraceSpan, key string) (a obs.Annotation) {
	for _, x := range sp.Attrs() {
		if x.Key == key {
			a = x
		}
	}
	return a
}

// profileOf renders a finished server trace as its request's profile. A
// stage's time is the summed duration of the spans named after it; the
// cache span of a record stream (result=uncacheable_stream) is no stage.
func profileOf(tr *obs.Trace) QueryProfile {
	root := tr.Root()
	p := QueryProfile{
		Time:       tr.StartTime().UTC().Format(time.RFC3339Nano),
		TraceID:    fmt.Sprintf("%016x", tr.ID),
		Tenant:     attr(root, "tenant").Str,
		Proto:      attr(root, "proto").Str,
		Kind:       attr(root, "kind").Str,
		Query:      attr(root, "query").Str,
		DurationMs: millis(root.Duration()),
		Stages:     make(map[string]float64, 5),
		Coalesced:  attr(root, "coalesced").Str == "true",
		Err:        root.Err(),
	}
	for _, sp := range tr.Spans() {
		switch result := attr(sp, "result").Str; sp.Name {
		case "cache":
			if result == "uncacheable_stream" {
				continue
			}
			p.CacheHit = result == "hit"
		case "encode":
			p.Records = int(attr(sp, "records").Int)
		case "store_scan":
			p.Explain = explainOf(sp)
			continue
		case "admission", "aggregate", "scan":
		default:
			continue
		}
		p.Stages[sp.Name] += millis(sp.Duration())
	}
	return p
}

// explainOf reads the EXPLAIN profile back off a store_scan span, whose
// attributes are Explain's fields as integers under their JSON names. Nil
// when the span carries none.
func explainOf(sp *obs.TraceSpan) *store.Explain {
	fields := make(map[string]int64)
	for _, a := range sp.Attrs() {
		fields[a.Key] = a.Int
	}
	b, _ := json.Marshal(fields) // a map of integers always marshals
	ex := new(store.Explain)
	if len(fields) == 0 || json.Unmarshal(b, ex) != nil {
		return nil
	}
	return ex
}

// logSlow writes a finished request's profile to the slow-query log when the
// tracer judged its trace slow.
func (s *Server) logSlow(tr *obs.Trace) {
	if tr == nil || !tr.Slow() {
		return
	}
	obsSlowQueries.Inc()
	line, _ := json.Marshal(profileOf(tr)) // strings, finite numbers and maps of them
	s.slowMu.Lock()
	s.opts.SlowQueryLog.Write(append(line, '\n'))
	s.slowMu.Unlock()
}

// recentProfiles renders the newest server traces the tracer retained,
// newest first; none while the tracer is off, whatever its ring still holds.
func recentProfiles() []QueryProfile {
	if !obs.DefaultTracer().Enabled() {
		return nil
	}
	var out []QueryProfile
	for _, tr := range obs.DefaultTracer().Traces() {
		if len(out) == recentQueries {
			break
		}
		if n := tr.Root().Name; n == rootRecords || n == rootAggregate {
			out = append(out, profileOf(tr))
		}
	}
	return out
}
