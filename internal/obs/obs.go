// Package obs is the observability layer for the collection→store→classify
// pipeline: atomic counters and gauges, bounded histograms with quantile
// estimates, request traces, and an HTTP exposition server.
//
// The paper's entire contribution is measurement; obs turns the measurement
// apparatus itself into a measured system. Every hot path (collector ingest,
// WAL appends, segment seals, query pushdown, the streaming classifier)
// publishes into a process-wide Registry, and any of the cmd tools can serve
// it with -metrics-addr:
//
//	/metrics       Prometheus text exposition
//	/healthz       liveness probe
//	/debug/traces  kept request traces (trace.go)
//	/debug/pprof/  runtime profiling (net/http/pprof)
//
// The package has no dependencies outside the standard library, and the
// instruments are cheap enough for per-record use: a Counter increment is
// one atomic add, a Gauge set is one atomic store, and a Histogram
// observation is a binary search plus two atomic adds. Metric families are
// created get-or-create, so instrumentation sites can cache pointers in
// package variables and share series across subsystems.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind is the metric family type.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Label is one name=value dimension of a metric series.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// series is one labeled instance within a family. Exactly one of the value
// fields is set, according to the family kind (fn overrides counter/gauge
// for func-backed series).
type series struct {
	labels  []Label
	counter *Counter
	gauge   *Gauge
	fn      func() float64
	hist    *Histogram
}

// family groups the series of one metric name.
type family struct {
	name  string
	help  string
	kind  Kind
	edges []float64 // histogram bucket layout, shared by all series
	byKey map[string]*series
}

// Registry holds metric families. All methods are safe for concurrent use;
// the accessors are get-or-create, so callers need no registration phase.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that the built-in
// instrumentation publishes into.
func Default() *Registry { return defaultRegistry }

// labelKey canonicalizes a label set (sorted by key) into a map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, l := range labels {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteByte('=')
		sb.WriteString(l.Value)
	}
	return sb.String()
}

func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// get returns (creating if necessary) the series for (name, labels),
// checking the kind of an existing family.
func (r *Registry) get(name, help string, kind Kind, edges []float64, labels []Label) *series {
	labels = sortLabels(labels)
	key := labelKey(labels)

	r.mu.RLock()
	f := r.families[name]
	if f != nil {
		if s := f.byKey[key]; s != nil && f.kind == kind {
			r.mu.RUnlock()
			return s
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f = r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind, edges: edges, byKey: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	if f.help == "" {
		f.help = help
	}
	s := f.byKey[key]
	if s == nil {
		s = &series{labels: labels}
		switch kind {
		case KindCounter:
			s.counter = &Counter{}
		case KindGauge:
			s.gauge = &Gauge{}
		case KindHistogram:
			s.hist = newHistogram(f.edges)
		}
		f.byKey[key] = s
	}
	return s
}

// Counter returns the counter series for (name, labels), creating it if
// needed.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.get(name, help, KindCounter, nil, labels).counter
}

// Gauge returns the gauge series for (name, labels), creating it if needed.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.get(name, help, KindGauge, nil, labels).gauge
}

// CounterFunc registers fn as a func-backed counter series: the value is
// read at exposition time, so a subsystem can export monotone totals it
// already maintains (e.g. the classifier's atomic per-class counts) without
// double bookkeeping or locking. Re-registering replaces the function.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.get(name, help, KindCounter, nil, labels).fn = fn
}

// Histogram returns the histogram series for (name, labels), creating it
// with the given bucket upper edges (nil means DurationBuckets). The first
// creation of a family fixes its bucket layout.
func (r *Registry) Histogram(name, help string, edges []float64, labels ...Label) *Histogram {
	if edges == nil {
		edges = DurationBuckets
	}
	return r.get(name, help, KindHistogram, edges, labels).hist
}

// Value returns the current value of the counter or gauge series for
// (name, labels), or 0 if it does not exist. Self-reports use this to read
// back what the instrumentation already counted.
func (r *Registry) Value(name string, labels ...Label) float64 {
	key := labelKey(sortLabels(labels))
	r.mu.RLock()
	defer r.mu.RUnlock()
	f := r.families[name]
	if f == nil {
		return 0
	}
	s := f.byKey[key]
	if s == nil {
		return 0
	}
	return seriesValue(s)
}

// Sum returns the sum of every counter/gauge series of the family, e.g. the
// total across all label values of a per-type counter.
func (r *Registry) Sum(name string) float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f := r.families[name]
	if f == nil || f.kind == KindHistogram {
		return 0
	}
	total := 0.0
	for _, s := range f.byKey {
		total += seriesValue(s)
	}
	return total
}

func seriesValue(s *series) float64 {
	switch {
	case s.fn != nil:
		return s.fn()
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return s.gauge.Value()
	}
	return 0
}

// snapshot returns the families sorted by name and their series sorted by
// label key, for deterministic exposition.
func (r *Registry) snapshot() []*family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries returns a family's series sorted by label key. Callers must
// hold no registry lock; series maps are only appended to under the
// registry lock, so the read here takes it briefly.
func (r *Registry) sortedSeries(f *family) []*series {
	r.mu.RLock()
	defer r.mu.RUnlock()
	keys := make([]string, 0, len(f.byKey))
	for k := range f.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*series, len(keys))
	for i, k := range keys {
		out[i] = f.byKey[k]
	}
	return out
}
