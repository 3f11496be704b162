package obs

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Request-scoped tracing: a Trace is a tree of TraceSpans describing one
// request's path through the system (admission wait, cache lookup, segment
// scan, record encode, ...). Spans carry typed key=value annotations and are
// linked by 64-bit span IDs under a 64-bit trace ID, so a trace that crosses
// a process boundary (the serve client → bgpserve → store) reassembles into
// one tree.
//
// Tracing is off by default and the disabled path is allocation-free: every
// *TraceSpan method is nil-receiver safe, SpanFromContext returns nil when no
// trace is active, and Tracer.Start returns (ctx, nil) untouched when the
// tracer is disabled. Hot paths therefore thread a span through
// unconditionally and never branch on "is tracing on".
//
// Completed traces land in a fixed-size ring buffer. Retention is decided at
// the root: head-based probabilistic sampling (decided when the trace starts,
// propagated across the wire so all participants agree) plus
// always-keep-if-over-threshold, so slow outliers survive even at low sample
// rates. The ring is served by /debug/traces (JSON list, per-trace tree, and
// an ASCII waterfall).

// TraceHeader is the HTTP header carrying trace context across the serving
// plane: "<traceID hex16>-<spanID hex16>-<flags hex>", flags bit 0 = sampled.
const TraceHeader = "X-Irtl-Trace"

// TraceFlagSampled marks a trace selected by head sampling at its root.
const TraceFlagSampled = 1

// maxSpansPerTrace bounds a single trace's span count; beyond it StartChild
// returns nil (a no-op span) and the trace is annotated as truncated.
const maxSpansPerTrace = 512

// TraceConfig configures a Tracer.
type TraceConfig struct {
	// SampleRate is the head-sampling probability in [0,1]; a root trace is
	// kept with this probability even if fast.
	SampleRate float64
	// SlowThreshold keeps any trace whose root span runs at least this long,
	// regardless of the sampling decision. Zero means 1s; negative disables
	// the slow path.
	SlowThreshold time.Duration
	// RingSize is the number of completed traces retained (default 256).
	RingSize int
}

// Trace metrics (default registry: all tracers publish into one family set).
var (
	obsTraceStarted     = Default().Counter("irtl_trace_traces_total", "Trace roots started or joined.")
	obsTraceSpans       = Default().Counter("irtl_trace_spans_total", "Trace spans created.")
	obsTraceKeptSampled = Default().Counter("irtl_trace_kept_total", "Completed traces retained in the ring.", L("reason", "sampled"))
	obsTraceKeptSlow    = Default().Counter("irtl_trace_kept_total", "Completed traces retained in the ring.", L("reason", "slow"))
	obsTraceDropped     = Default().Counter("irtl_trace_dropped_total", "Completed traces discarded (not sampled, under threshold).")
)

// Tracer owns the sampling policy and the ring of completed traces.
// The zero value is a disabled tracer; Enable turns it on.
type Tracer struct {
	cfg  atomic.Pointer[TraceConfig] // nil = disabled
	rng  atomic.Uint64               // splitmix64 state, lazily seeded
	mu   sync.Mutex
	ring []*Trace // circular, ring[next] is the oldest slot
	next int
}

var defaultTracer Tracer

// DefaultTracer returns the process-wide tracer, disabled until
// EnableTracing. The serve plane and the CLI -trace-sample flags all use it.
func DefaultTracer() *Tracer { return &defaultTracer }

// EnableTracing enables the default tracer.
func EnableTracing(cfg TraceConfig) { defaultTracer.Enable(cfg) }

// Enable turns the tracer on (or reconfigures it). RingSize changes reset
// the ring.
func (t *Tracer) Enable(cfg TraceConfig) {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 256
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = time.Second
	}
	if cfg.SampleRate < 0 {
		cfg.SampleRate = 0
	}
	if cfg.SampleRate > 1 {
		cfg.SampleRate = 1
	}
	t.mu.Lock()
	if len(t.ring) != cfg.RingSize {
		t.ring = make([]*Trace, cfg.RingSize)
		t.next = 0
	}
	t.mu.Unlock()
	t.cfg.Store(&cfg)
}

// Disable turns the tracer off. In-flight traces finish but are not
// collected. The ring is kept so already-captured traces stay inspectable.
func (t *Tracer) Disable() { t.cfg.Store(nil) }

// Enabled reports whether the tracer is currently collecting.
func (t *Tracer) Enabled() bool { return t.cfg.Load() != nil }

// splitmix64 is the ID/sampling generator: fast, seedless-crypto-free, and
// good enough for uniqueness across one process's lifetime.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) nextID() uint64 {
	for {
		old := t.rng.Load()
		seed := old
		if seed == 0 {
			seed = uint64(time.Now().UnixNano()) | 1
		}
		nxt := seed + 0x9e3779b97f4a7c15
		if t.rng.CompareAndSwap(old, nxt) {
			id := splitmix64(nxt)
			if id == 0 {
				id = 1
			}
			return id
		}
	}
}

// Trace is one request's span tree plus its retention decision.
type Trace struct {
	tracer *Tracer
	ID     uint64
	// Sampled is the head-sampling decision, made at the root (or inherited
	// from the remote parent) and propagated on the wire.
	Sampled bool
	// Remote marks traces joined from a wire parent rather than rooted here.
	Remote bool
	start  time.Time
	slow   bool // the root ran at least SlowThreshold; set by collect

	mu        sync.Mutex
	spans     []*TraceSpan
	truncated bool
	root      *TraceSpan
}

// TraceSpan is one timed operation within a trace. A span belongs to a
// single goroutine: Annotate/AnnotateInt/SetError/Finish must not race with
// each other or with child creation on the same span. Concurrent work gets
// its own child span per goroutine.
type TraceSpan struct {
	tr     *Trace
	ID     uint64
	Parent uint64 // parent span ID; 0 for the root
	Name   string
	start  time.Time
	dur    time.Duration // set by Finish
	done   bool
	attrs  []Annotation
	errMsg string
}

// Annotation is a typed key=value note on a span.
type Annotation struct {
	Key   string
	Str   string // set when !IsInt
	Int   int64  // set when IsInt
	IsInt bool
}

type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp as the active span. A nil sp
// returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *TraceSpan) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the active span, or nil if the context carries
// none. The nil result is usable: every *TraceSpan method no-ops on nil.
func SpanFromContext(ctx context.Context) *TraceSpan {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*TraceSpan)
	return sp
}

// Start begins a new root trace if the tracer is enabled, returning the
// derived context and root span. When disabled it returns (ctx, nil) with no
// allocation, so callers always Finish the result unconditionally.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *TraceSpan) {
	cfg := t.cfg.Load()
	if cfg == nil {
		return ctx, nil
	}
	sampled := cfg.SampleRate > 0 && float64(t.nextID()>>11)/(1<<53) < cfg.SampleRate
	return t.newRoot(ctx, name, t.nextID(), 0, sampled, false)
}

// Join begins a trace that continues a remote parent: the root span here has
// the given trace ID and parent span ID, and inherits the remote sampling
// decision. When the tracer is disabled it returns (ctx, nil).
func (t *Tracer) Join(ctx context.Context, name string, traceID, parentSpanID uint64, sampled bool) (context.Context, *TraceSpan) {
	if t.cfg.Load() == nil {
		return ctx, nil
	}
	if traceID == 0 {
		return t.Start(ctx, name)
	}
	return t.newRoot(ctx, name, traceID, parentSpanID, sampled, true)
}

// JoinHeader is Join for an X-Irtl-Trace header value; an absent or
// malformed header starts a fresh root instead.
func (t *Tracer) JoinHeader(ctx context.Context, name, header string) (context.Context, *TraceSpan) {
	if t.cfg.Load() == nil {
		return ctx, nil
	}
	traceID, spanID, sampled, ok := ParseTraceHeader(header)
	if !ok {
		return t.Start(ctx, name)
	}
	return t.Join(ctx, name, traceID, spanID, sampled)
}

func (t *Tracer) newRoot(ctx context.Context, name string, traceID, parentSpanID uint64, sampled, remote bool) (context.Context, *TraceSpan) {
	now := time.Now()
	tr := &Trace{tracer: t, ID: traceID, Sampled: sampled, Remote: remote, start: now}
	sp := &TraceSpan{tr: tr, ID: t.nextID(), Parent: parentSpanID, Name: name, start: now}
	tr.root = sp
	tr.spans = append(tr.spans, sp)
	obsTraceStarted.Inc()
	obsTraceSpans.Inc()
	return ContextWithSpan(ctx, sp), sp
}

// StartChild begins a child of the span carried by ctx, returning the
// derived context and the child. With no active span it returns (ctx, nil):
// zero allocations, and the nil child's methods all no-op.
func StartChild(ctx context.Context, name string) (context.Context, *TraceSpan) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := parent.StartChild(name)
	if child == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, child), child
}

// StartChild begins a child span. Nil-safe: a nil receiver returns nil.
// Children past maxSpansPerTrace are dropped (nil) and the trace marked
// truncated.
func (sp *TraceSpan) StartChild(name string) *TraceSpan {
	if sp == nil {
		return nil
	}
	tr := sp.tr
	child := &TraceSpan{tr: tr, ID: tr.tracer.nextID(), Parent: sp.ID, Name: name, start: time.Now()}
	tr.mu.Lock()
	if len(tr.spans) >= maxSpansPerTrace {
		tr.truncated = true
		tr.mu.Unlock()
		return nil
	}
	tr.spans = append(tr.spans, child)
	tr.mu.Unlock()
	obsTraceSpans.Inc()
	return child
}

// Annotate attaches a string key=value note. Nil-safe.
func (sp *TraceSpan) Annotate(key, val string) {
	if sp == nil {
		return
	}
	sp.attrs = append(sp.attrs, Annotation{Key: key, Str: val})
}

// AnnotateInt attaches an integer key=value note. Nil-safe.
func (sp *TraceSpan) AnnotateInt(key string, v int64) {
	if sp == nil {
		return
	}
	sp.attrs = append(sp.attrs, Annotation{Key: key, Int: v, IsInt: true})
}

// SetError marks the span failed with err's message. Nil-safe; a nil err is
// ignored.
func (sp *TraceSpan) SetError(err error) {
	if sp == nil || err == nil {
		return
	}
	sp.errMsg = err.Error()
}

// Err returns the span's error message ("" if none). Nil-safe.
func (sp *TraceSpan) Err() string {
	if sp == nil {
		return ""
	}
	return sp.errMsg
}

// Finish ends the span and returns its duration. Finishing the root decides
// retention and, if kept, publishes the trace to the tracer's ring.
// Idempotent and nil-safe (nil or double Finish returns the recorded or zero
// duration).
func (sp *TraceSpan) Finish() time.Duration {
	if sp == nil {
		return 0
	}
	if sp.done {
		return sp.dur
	}
	sp.done = true
	sp.dur = time.Since(sp.start)
	if sp.tr.root == sp {
		sp.tr.tracer.collect(sp.tr, sp.dur)
	}
	return sp.dur
}

// Duration returns the span's recorded duration (0 until Finish). Nil-safe.
func (sp *TraceSpan) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	return sp.dur
}

// TraceID returns the owning trace's ID, 0 for nil.
func (sp *TraceSpan) TraceID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.tr.ID
}

// Trace returns the trace the span belongs to, nil for nil.
func (sp *TraceSpan) Trace() *Trace {
	if sp == nil {
		return nil
	}
	return sp.tr
}

// SpanID returns the span's ID, 0 for nil.
func (sp *TraceSpan) SpanID() uint64 {
	if sp == nil {
		return 0
	}
	return sp.ID
}

// Header renders the span as an X-Irtl-Trace value for propagation, "" for
// nil (send no header).
func (sp *TraceSpan) Header() string {
	if sp == nil {
		return ""
	}
	return FormatTraceHeader(sp.tr.ID, sp.ID, sp.tr.Sampled)
}

// collect decides retention for a completed trace, recording its slow
// verdict, and rings it.
func (t *Tracer) collect(tr *Trace, rootDur time.Duration) {
	cfg := t.cfg.Load()
	if cfg == nil {
		return
	}
	tr.slow = cfg.SlowThreshold >= 0 && rootDur >= cfg.SlowThreshold
	switch {
	case tr.Sampled:
		obsTraceKeptSampled.Inc()
	case tr.slow:
		obsTraceKeptSlow.Inc()
	default:
		obsTraceDropped.Inc()
		return
	}
	t.mu.Lock()
	if len(t.ring) == 0 {
		t.mu.Unlock()
		return
	}
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	t.mu.Unlock()
}

// Traces returns the retained traces, newest first.
func (t *Tracer) Traces() []*Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, 0, len(t.ring))
	for i := 1; i <= len(t.ring); i++ {
		tr := t.ring[(t.next-i+len(t.ring))%len(t.ring)]
		if tr != nil {
			out = append(out, tr)
		}
	}
	return out
}

// Spans snapshots the trace's spans in creation order. Valid on a collected
// trace; on an in-flight trace it returns whatever has been started so far.
func (tr *Trace) Spans() []*TraceSpan {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]*TraceSpan, len(tr.spans))
	copy(out, tr.spans)
	return out
}

// Root returns the trace's root span.
func (tr *Trace) Root() *TraceSpan { return tr.root }

// StartTime returns when the trace's root span started.
func (tr *Trace) StartTime() time.Time { return tr.start }

// Slow reports the tracer's keep-if-slow verdict on the finished root: it
// ran at least SlowThreshold. It is set whether or not the trace was also
// head-sampled, and is false for a trace the tracer did not collect.
func (tr *Trace) Slow() bool { return tr.slow }

// Attrs returns the span's annotations. Nil-safe. The slice is the span's
// own; callers must not mutate it and must only read it after the span has
// finished.
func (sp *TraceSpan) Attrs() []Annotation {
	if sp == nil {
		return nil
	}
	return sp.attrs
}

// Find returns the retained trace with the given ID, or nil.
func (t *Tracer) Find(id uint64) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, tr := range t.ring {
		if tr != nil && tr.ID == id {
			return tr
		}
	}
	return nil
}

// FormatTraceHeader renders trace context in the X-Irtl-Trace wire form:
// "<traceID hex16>-<spanID hex16>-<flags hex>".
func FormatTraceHeader(traceID, spanID uint64, sampled bool) string {
	flags := 0
	if sampled {
		flags = TraceFlagSampled
	}
	return fmt.Sprintf("%016x-%016x-%x", traceID, spanID, flags)
}

// ParseTraceHeader parses an X-Irtl-Trace value. ok is false for an empty or
// malformed value, or a zero trace ID.
func ParseTraceHeader(s string) (traceID, spanID uint64, sampled, ok bool) {
	if len(s) < 35 || s[16] != '-' || s[33] != '-' {
		return 0, 0, false, false
	}
	var flags uint64
	if _, err := fmt.Sscanf(s, "%16x-%16x-%x", &traceID, &spanID, &flags); err != nil {
		return 0, 0, false, false
	}
	if traceID == 0 {
		return 0, 0, false, false
	}
	return traceID, spanID, flags&TraceFlagSampled != 0, true
}
