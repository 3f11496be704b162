package obs

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// enabledTracer returns a private tracer so tests do not disturb the
// process-wide default.
func enabledTracer(cfg TraceConfig) *Tracer {
	t := &Tracer{}
	t.Enable(cfg)
	return t
}

func TestTraceHeaderRoundTrip(t *testing.T) {
	cases := []struct {
		traceID, spanID uint64
		sampled         bool
	}{
		{1, 2, false},
		{0xdeadbeefcafef00d, 0x0123456789abcdef, true},
		{1 << 63, 1, true},
	}
	for _, c := range cases {
		h := FormatTraceHeader(c.traceID, c.spanID, c.sampled)
		traceID, spanID, sampled, ok := ParseTraceHeader(h)
		if !ok || traceID != c.traceID || spanID != c.spanID || sampled != c.sampled {
			t.Fatalf("round trip %+v via %q: got (%x, %x, %v, %v)", c, h, traceID, spanID, sampled, ok)
		}
	}
	for _, bad := range []string{
		"",
		"not-a-header",
		"0000000000000000-0000000000000001-1", // zero trace ID
		"000000000000000g-0000000000000001-1", // bad hex
		"00000000000000010000000000000001-1",  // missing separator
	} {
		if _, _, _, ok := ParseTraceHeader(bad); ok {
			t.Fatalf("ParseTraceHeader(%q) accepted", bad)
		}
	}
}

// TestTraceDisabledZeroAlloc is the hot-path contract: with tracing off, the
// full span API (root start, child start, annotate, finish) allocates
// nothing.
func TestTraceDisabledZeroAlloc(t *testing.T) {
	tr := &Tracer{} // zero value = disabled
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		cctx, root := tr.Start(ctx, "root")
		_, child := StartChild(cctx, "child")
		child.Annotate("k", "v")
		child.AnnotateInt("n", 42)
		child.SetError(nil)
		child.Finish()
		root.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per op, want 0", allocs)
	}
}

// TestTraceSamplingAndRing: SampleRate 1 keeps everything, SampleRate 0 with
// the slow path disabled drops everything, and the ring is bounded and
// newest-first.
func TestTraceSamplingAndRing(t *testing.T) {
	tr := enabledTracer(TraceConfig{SampleRate: 1, SlowThreshold: -1, RingSize: 4})
	for i := 0; i < 6; i++ {
		_, root := tr.Start(context.Background(), "req")
		root.Finish()
	}
	kept := tr.Traces()
	if len(kept) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(kept))
	}
	for _, k := range kept {
		if !k.Sampled {
			t.Fatalf("trace %x not marked sampled", k.ID)
		}
		if tr.Find(k.ID) != k {
			t.Fatalf("Find(%x) missed", k.ID)
		}
	}

	drop := enabledTracer(TraceConfig{SampleRate: 0, SlowThreshold: -1, RingSize: 4})
	for i := 0; i < 6; i++ {
		_, root := drop.Start(context.Background(), "req")
		root.Finish()
	}
	if got := drop.Traces(); len(got) != 0 {
		t.Fatalf("unsampled tracer kept %d traces, want 0", len(got))
	}
}

// TestTraceSlowKeep: a trace over the threshold survives a zero sample rate.
func TestTraceSlowKeep(t *testing.T) {
	tr := enabledTracer(TraceConfig{SampleRate: 0, SlowThreshold: time.Microsecond, RingSize: 4})
	_, root := tr.Start(context.Background(), "slow")
	time.Sleep(2 * time.Millisecond)
	root.Finish()
	kept := tr.Traces()
	if len(kept) != 1 {
		t.Fatalf("slow trace not kept (ring has %d)", len(kept))
	}
	if kept[0].Sampled {
		t.Fatal("slow-kept trace claims head sampling")
	}
}

// TestTraceTreeShape: child spans link to their parents, annotations and
// errors land on the right span, and the span budget truncates gracefully.
func TestTraceTreeShape(t *testing.T) {
	tr := enabledTracer(TraceConfig{SampleRate: 1, SlowThreshold: -1, RingSize: 4})
	ctx, root := tr.Start(context.Background(), "root")
	cctx, c1 := StartChild(ctx, "scan")
	c1.AnnotateInt("blocks", 7)
	_, c2 := StartChild(cctx, "segment")
	c2.SetError(errors.New("boom"))
	c2.Finish()
	c1.Finish()
	root.Finish()

	trc := tr.Find(root.TraceID())
	if trc == nil {
		t.Fatal("trace not collected")
	}
	if len(trc.spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(trc.spans))
	}
	if c1.Parent != root.ID || c2.Parent != c1.ID {
		t.Fatal("parent links wrong")
	}
	if c2.Err() != "boom" {
		t.Fatalf("child error = %q", c2.Err())
	}

	// Exhaust the span budget: children beyond the cap are nil no-ops and the
	// trace is marked truncated.
	_, bigRoot := tr.Start(context.Background(), "big")
	var last *TraceSpan
	for i := 0; i < maxSpansPerTrace+10; i++ {
		last = bigRoot.StartChild("c")
		last.Finish()
	}
	if last != nil {
		t.Fatal("span budget not enforced")
	}
	bigRoot.Finish()
	if big := tr.Find(bigRoot.TraceID()); big == nil || !big.truncated {
		t.Fatal("over-budget trace not marked truncated")
	}
}

// TestTraceJoin: a joined trace shares the remote trace ID, records the
// remote parent span, inherits the sampling decision, and is marked Remote.
func TestTraceJoin(t *testing.T) {
	tr := enabledTracer(TraceConfig{SampleRate: 0, SlowThreshold: -1, RingSize: 4})
	_, root := tr.Join(context.Background(), "serve_query", 0xabc, 0xdef, true)
	if root.TraceID() != 0xabc || root.Parent != 0xdef || !root.Sampled() {
		t.Fatalf("join: trace %x parent %x sampled %v", root.TraceID(), root.Parent, root.Sampled())
	}
	root.Finish()
	trc := tr.Find(0xabc)
	if trc == nil || !trc.Remote {
		t.Fatal("joined trace not collected as remote")
	}

	// A zero trace ID (untraced v2 client) falls back to a fresh root.
	_, fresh := tr.Join(context.Background(), "serve_query", 0, 0, false)
	if fresh.TraceID() == 0 {
		t.Fatal("zero-ID join did not mint a trace ID")
	}
	fresh.Finish()

	// JoinHeader parses the wire form; garbage starts a fresh root.
	_, h := tr.JoinHeader(context.Background(), "q", FormatTraceHeader(0x123, 0x456, true))
	if h.TraceID() != 0x123 || !h.Sampled() {
		t.Fatalf("JoinHeader: trace %x sampled %v", h.TraceID(), h.Sampled())
	}
	h.Finish()
	_, g := tr.JoinHeader(context.Background(), "q", "garbage")
	if g == nil || g.TraceID() == 0x123 {
		t.Fatal("garbage header did not start a fresh root")
	}
	g.Finish()
}

// TestTraceConcurrentChildren is the race-regression test for the
// span-per-goroutine contract: many goroutines each own a child span
// (create, annotate, finish) concurrently, then the completed trace renders
// while new traces are being collected. Run under -race.
func TestTraceConcurrentChildren(t *testing.T) {
	tr := enabledTracer(TraceConfig{SampleRate: 1, SlowThreshold: -1, RingSize: 64})
	ctx, root := tr.Start(context.Background(), "fanout")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := StartChild(ctx, "worker")
			sp.AnnotateInt("i", int64(i))
			sp.Annotate("state", "done")
			sp.Finish()
		}(i)
	}
	wg.Wait()
	root.Finish()

	var renders sync.WaitGroup
	for i := 0; i < 4; i++ {
		renders.Add(1)
		go func() {
			defer renders.Done()
			for j := 0; j < 20; j++ {
				for _, trc := range tr.Traces() {
					var sb strings.Builder
					waterfall(trc, &sb)
					_ = tree(trc)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		cctx, r := tr.Start(context.Background(), "more")
		_, c := StartChild(cctx, "child")
		c.Finish()
		r.Finish()
	}
	renders.Wait()

	trc := tr.Find(root.TraceID())
	if trc == nil {
		t.Fatal("fanout trace not collected")
	}
	if len(trc.spans) != 33 {
		t.Fatalf("fanout trace has %d spans, want 33", len(trc.spans))
	}
}

// TestTracesHandler drives /debug/traces end to end: list, per-trace tree,
// and the waterfall rendering.
func TestTracesHandler(t *testing.T) {
	tr := enabledTracer(TraceConfig{SampleRate: 1, SlowThreshold: -1, RingSize: 4})
	ctx, root := tr.Start(context.Background(), "req")
	_, c := StartChild(ctx, "scan")
	c.AnnotateInt("blocks", 3)
	c.Finish()
	root.Finish()

	h := TracesHandler(tr)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "req") {
		t.Fatalf("list: %d %q", rec.Code, rec.Body.String())
	}

	id := FormatTraceHeader(root.TraceID(), 0, false)[:16]
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+id, nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "scan") {
		t.Fatalf("tree: %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+id+"&format=waterfall", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "scan") {
		t.Fatalf("waterfall: %d %q", rec.Code, rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id=ffffffffffffffff", nil))
	if rec.Code != 404 {
		t.Fatalf("missing trace: %d", rec.Code)
	}
}

// TestRuntimeCollector: the background collector publishes the runtime
// gauges, and stop is idempotent.
func TestRuntimeCollector(t *testing.T) {
	r := NewRegistry()
	stop := StartRuntimeCollector(r, time.Hour) // immediate sample, then idle
	defer stop()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, name := range []string{
		"irtl_runtime_goroutines",
		"irtl_runtime_heap_bytes",
		"irtl_runtime_gomaxprocs",
		"irtl_runtime_gc_total",
		"irtl_runtime_gc_pause_seconds",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("runtime exposition missing %s:\n%s", name, text)
		}
	}
	stop()
	stop() // idempotent
}

// Sampled reports the trace's head-sampling decision, false for nil.
func (sp *TraceSpan) Sampled() bool {
	if sp == nil {
		return false
	}
	return sp.tr.Sampled
}
