package obs

import (
	"context"
	"time"
)

// Span measures one execution of a named pipeline stage: wall time plus an
// event count, published on End as
//
//	irtl_stage_seconds{stage=...}       histogram of stage durations
//	irtl_stage_runs_total{stage=...}    completed executions
//	irtl_stage_events_total{stage=...}  events processed across executions
//
// A Span is a thin wrapper over a TraceSpan, so a stage that runs inside a
// traced request (StartSpanCtx) shows up both in the aggregate stage metrics
// and as a node in the request's trace — one timing source, read once at End.
//
// A Span belongs to ONE goroutine. Add, Annotate, and End are not safe for
// concurrent use on the same span, and this is enforced in spirit by the
// race detector: TestSpanSingleGoroutine exercises the documented discipline
// under -race. Concurrent stages take one Span per goroutine. Spans are for
// stage-granularity timing (an ingest pass, a seal, a classify run), not
// per-record use.
type Span struct {
	reg    *Registry
	stage  string
	events int64
	ts     *TraceSpan // detached (traceless) unless created via StartSpanCtx
}

// StartSpan begins a stage span in the registry. The span's TraceSpan is
// detached — it times the stage but belongs to no trace.
func (r *Registry) StartSpan(stage string) *Span {
	return &Span{reg: r, stage: stage, ts: detachedSpan(stage)}
}

// StartSpan begins a stage span in the default registry.
func StartSpan(stage string) *Span { return Default().StartSpan(stage) }

// StartSpanCtx begins a stage span in the default registry that is also a
// child TraceSpan of the trace carried by ctx (if any), returning the span
// and the derived context. With no active trace the stage metrics still
// publish; only the trace node is absent.
func StartSpanCtx(ctx context.Context, stage string) (*Span, context.Context) {
	sp := &Span{reg: Default(), stage: stage}
	cctx, ts := StartChild(ctx, stage)
	if ts == nil {
		sp.ts = detachedSpan(stage)
		return sp, ctx
	}
	sp.ts = ts
	return sp, cctx
}

// detachedSpan makes a TraceSpan that belongs to no trace: it records timing
// for the wrapping Span but Finish never publishes anywhere.
func detachedSpan(name string) *TraceSpan {
	tr := &Trace{start: time.Now()}
	ts := &TraceSpan{tr: tr, Name: name, start: tr.start}
	tr.root = ts
	return ts
}

// Add notes n events processed by the stage.
func (sp *Span) Add(n int64) { sp.events += n }

// End publishes the span and returns its duration, read from the underlying
// TraceSpan so trace and metrics agree exactly.
func (sp *Span) End() time.Duration {
	d := sp.ts.Finish()
	sp.ts.AnnotateInt("events", sp.events)
	lbl := L("stage", sp.stage)
	sp.reg.Histogram("irtl_stage_seconds", "Pipeline stage wall time.", DurationBuckets, lbl).Observe(d.Seconds())
	sp.reg.Counter("irtl_stage_runs_total", "Completed pipeline stage executions.", lbl).Inc()
	sp.reg.Counter("irtl_stage_events_total", "Events processed by pipeline stages.", lbl).Add(sp.events)
	return d
}
