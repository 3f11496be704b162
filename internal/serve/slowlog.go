package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"instability/internal/store"
)

// The slow-query log: every request builds a QueryProfile — trace ID,
// tenant, query key, per-stage millis, and the store's EXPLAIN counters —
// and profiles whose total duration crosses the server's threshold are
// emitted as one NDJSON line each, so "why was this query slow" is
// answerable from the log alone, without a tracing UI. The most recent
// profiles (slow or not) are also retained in a small ring surfaced by
// /v1/statz, giving operators a live recent-queries view.

// QueryProfile is one request's attribution record. Stage timing is measured
// directly in the handlers (plain clock deltas), so profiles work even with
// tracing disabled; TraceID is present when a trace was active.
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

// addStage records one stage's wall time in milliseconds.
func (p *QueryProfile) addStage(name string, d time.Duration) {
	if p.Stages == nil {
		p.Stages = make(map[string]float64, 4)
	}
	p.Stages[name] += float64(d) / float64(time.Millisecond)
}

// setError records err on the profile; nil is a no-op.
func (p *QueryProfile) setError(err error) {
	if err != nil {
		p.Err = err.Error()
	}
}

// profileRecent is how many finished profiles /v1/statz retains.
const profileRecent = 32

// profileLog owns the slow-query NDJSON writer and the recent-profiles ring.
type profileLog struct {
	threshold time.Duration // emit profiles at or over this; negative = never
	mu        sync.Mutex
	w         io.Writer
	ring      [profileRecent]*QueryProfile
	next      int
}

func newProfileLog(threshold time.Duration, w io.Writer) *profileLog {
	if threshold == 0 {
		threshold = time.Second
	}
	if w == nil {
		w = os.Stderr
	}
	return &profileLog{threshold: threshold, w: w}
}

// record finishes a profile: stamps duration and time, rings it for statz,
// and emits the NDJSON line when the request was slow.
func (pl *profileLog) record(p *QueryProfile, start time.Time) {
	d := time.Since(start)
	p.DurationMs = float64(d) / float64(time.Millisecond)
	p.Time = start.UTC().Format(time.RFC3339Nano)
	slow := pl.threshold >= 0 && d >= pl.threshold
	if slow {
		obsSlowQueries.Inc()
	}
	pl.mu.Lock()
	pl.ring[pl.next] = p
	pl.next = (pl.next + 1) % profileRecent
	if slow {
		line, err := json.Marshal(p)
		if err == nil {
			fmt.Fprintf(pl.w, "%s\n", line)
		}
	}
	pl.mu.Unlock()
}

// recent returns the retained profiles, newest first.
func (pl *profileLog) recent() []QueryProfile {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	out := make([]QueryProfile, 0, profileRecent)
	for i := 1; i <= profileRecent; i++ {
		p := pl.ring[(pl.next-i+profileRecent)%profileRecent]
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}
