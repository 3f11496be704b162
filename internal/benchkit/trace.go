package benchkit

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// Span is one recorded interval at a layer boundary. Times are nanoseconds
// since the tracer was created. Count is the work done inside the span
// (records, events, requests), taken at the same boundary as the times.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count,omitempty"`
}

// Tracer is the benchmark's in-memory span recorder. A nil *Tracer records
// nothing and costs nothing, which is how the untraced run is the same code
// as the traced one. Spans wrap groups of calls — a day, a 4096-record
// chunk, one request — never a single record.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewTracer returns an empty recorder.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// ActiveSpan is a started, unfinished span.
type ActiveSpan struct {
	t  *Tracer
	id int
}

func (t *Tracer) open(parent *ActiveSpan, name string, start time.Time) int {
	p := 0
	if parent != nil {
		p = parent.id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: p, Name: name, Start: start.Sub(t.t0).Nanoseconds()})
	return id
}

// Start opens a span under parent (nil = root).
func (t *Tracer) Start(parent *ActiveSpan, name string) *ActiveSpan {
	if t == nil {
		return nil
	}
	return &ActiveSpan{t: t, id: t.open(parent, name, time.Now())}
}

// End closes the span, recording how much work it covered.
func (a *ActiveSpan) End(count int64) {
	if a == nil {
		return
	}
	end := time.Since(a.t.t0).Nanoseconds()
	a.t.mu.Lock()
	sp := &a.t.spans[a.id-1]
	sp.End, sp.Count = end, count
	a.t.mu.Unlock()
}

// Record adds a finished span whose busy time was summed by the caller over
// many short calls (the per-record timers of a callback): it starts at start
// and lasts busy, so self-time arithmetic treats it like any other span. The
// returned handle serves only as a parent for further Records.
func (t *Tracer) Record(parent *ActiveSpan, name string, start time.Time, busy time.Duration, count int64) *ActiveSpan {
	if t == nil {
		return nil
	}
	id := t.open(parent, name, start)
	t.mu.Lock()
	sp := &t.spans[id-1]
	sp.End, sp.Count = sp.Start+busy.Nanoseconds(), count
	t.mu.Unlock()
	return &ActiveSpan{t: t, id: id}
}

// SpanTotals aggregates every span of one name.
type SpanTotals struct {
	Spans int
	Count int64
	Total time.Duration // sum of durations
	Self  time.Duration // sum of durations minus the part child spans cover
}

// Totals folds the recorded spans by name. A span's self time is its
// duration minus the durations of its direct children.
func (t *Tracer) Totals() map[string]SpanTotals {
	out := make(map[string]SpanTotals)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans)+1)
	for _, sp := range t.spans {
		child[sp.Parent] += sp.End - sp.Start
	}
	for _, sp := range t.spans {
		d := sp.End - sp.Start
		self := d - child[sp.ID]
		if self < 0 {
			self = 0
		}
		st := out[sp.Name]
		st.Spans++
		st.Count += sp.Count
		st.Total += time.Duration(d)
		st.Self += time.Duration(self)
		out[sp.Name] = st
	}
	return out
}

// harnessLayer is the layer of the benchmark's own spans — the root around
// one pass, reference work done beside it — which belong to no layer of the
// program and count toward no coverage.
const (
	harnessLayer = "bench"
	passSpan     = "bench.pass"
)

// LayerOf returns the module a span name belongs to: the part before the
// first dot.
func LayerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// LayerSelf sums self time by layer of the program, given Totals.
func LayerSelf(tot map[string]SpanTotals) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, st := range tot {
		if l := LayerOf(name); l != harnessLayer {
			out[l] += st.Self
		}
	}
	return out
}

// WriteTraces writes the spans of each traced workload to path, keyed by
// workload name.
func WriteTraces(path string, traces map[string]*Tracer) error {
	out := make(map[string][]Span, len(traces))
	for name, t := range traces {
		t.mu.Lock()
		out[name] = t.spans
		t.mu.Unlock()
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
