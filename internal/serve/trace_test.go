package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"instability/internal/faults"
	"instability/internal/obs"
	"instability/internal/store"
)

// enableTestTracing turns the process tracer on for one test, with every
// request head-sampled and judged slow at or over slowThreshold (negative:
// never), and restores the disabled state afterwards.
func enableTestTracing(t *testing.T, slowThreshold time.Duration) {
	t.Helper()
	obs.EnableTracing(obs.TraceConfig{SampleRate: 1, SlowThreshold: slowThreshold, RingSize: 64})
	t.Cleanup(func() { obs.DefaultTracer().Disable() })
}

// findTrace polls the ring for the trace with the given ID and remoteness
// (the client and server halves of one request share an ID but are separate
// Trace objects; the server's is marked Remote).
func findTrace(t *testing.T, id uint64, remote bool) *obs.Trace {
	t.Helper()
	var found *obs.Trace
	waitFor(t, func() bool {
		for _, tr := range obs.DefaultTracer().Traces() {
			if tr.ID == id && tr.Remote == remote {
				found = tr
				return true
			}
		}
		return false
	})
	return found
}

func spanNames(tr *obs.Trace) map[string]*obs.TraceSpan {
	m := make(map[string]*obs.TraceSpan)
	for _, sp := range tr.Spans() {
		if _, ok := m[sp.Name]; !ok {
			m[sp.Name] = sp
		}
	}
	return m
}

func hasIntAttr(sp *obs.TraceSpan, key string) (int64, bool) {
	for _, a := range sp.Attrs() {
		if a.Key == key && a.IsInt {
			return a.Int, true
		}
	}
	return 0, false
}

// TestTracePropagationBinary checks tracing over an IRTQ record stream: one
// traced remote query produces a client trace and a server trace sharing
// one trace ID, the server root hangs off the client's remote_query span,
// the admission/cache/scan/encode stages appear as children, and the
// store_scan span carries the EXPLAIN counters that also ride back in the
// Irtl-Explain trailer.
func TestTracePropagationBinary(t *testing.T) {
	enableTestTracing(t, -1)
	st := newTestStore(t, 300, store.Options{})
	srv := startServer(t, Options{Store: st})

	ctx, root := obs.DefaultTracer().Start(context.Background(), "client")
	c := &Client{Addr: srv.Addr().String()}
	rr, err := c.QueryCtx(ctx, QuerySpec{Peer: "690"})
	if err != nil {
		t.Fatal(err)
	}
	recs := drainRemote(t, rr)
	ex := rr.Explain()
	if ex == nil {
		t.Fatal("Irtl-Explain trailer carried no EXPLAIN profile")
	}
	if ex.RecordsMatched != len(recs) {
		t.Fatalf("EXPLAIN records_matched %d, streamed %d", ex.RecordsMatched, len(recs))
	}
	if ex.SegmentsTotal == 0 || ex.BlocksScanned == 0 || ex.BytesReadDisk == 0 {
		t.Fatalf("EXPLAIN not populated: %+v", *ex)
	}
	root.Finish()

	clientTr := findTrace(t, root.TraceID(), false)
	serverTr := findTrace(t, root.TraceID(), true)

	rq, ok := spanNames(clientTr)["remote_query"]
	if !ok {
		t.Fatal("client trace has no remote_query span")
	}
	if serverTr.Root().Name != "serve_query" || serverTr.Root().Parent != rq.ID {
		t.Fatalf("server root %q parent %x, want serve_query under client span %x",
			serverTr.Root().Name, serverTr.Root().Parent, rq.ID)
	}
	names := spanNames(serverTr)
	for _, want := range []string{"admission", "cache", "scan", "encode", "store_scan"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("server trace missing %q span (have %v)", want, keys(names))
		}
	}
	if matched, ok := hasIntAttr(names["store_scan"], "records_matched"); !ok || matched != int64(len(recs)) {
		t.Fatalf("store_scan records_matched = %d/%v, want %d", matched, ok, len(recs))
	}
	// Every span's parent resolves inside its own trace (the root's parent is
	// the remote client span).
	ids := map[uint64]bool{serverTr.Root().Parent: true}
	for _, sp := range serverTr.Spans() {
		ids[sp.ID] = true
	}
	for _, sp := range serverTr.Spans() {
		if !ids[sp.Parent] {
			t.Fatalf("span %q has dangling parent %x", sp.Name, sp.Parent)
		}
	}
}

// TestTracePropagationHTTP covers the header-propagated protocol: the
// aggregate path joins via X-Irtl-Trace and shows cache and scan children,
// and a repeat query is answered from the cache inside the same trace shape.
func TestTracePropagationHTTP(t *testing.T) {
	enableTestTracing(t, -1)
	st := newTestStore(t, 300, store.Options{})
	srv := startServer(t, Options{Store: st, CacheBytes: 1 << 20})
	c := &Client{Addr: srv.Addr().String()}

	ctx, root := obs.DefaultTracer().Start(context.Background(), "dashboard")
	if _, err := c.AggregateCtx(ctx, KindClasses, QuerySpec{}, 0); err != nil {
		t.Fatal(err)
	}
	root.Finish()

	clientTr := findTrace(t, root.TraceID(), false)
	serverTr := findTrace(t, root.TraceID(), true)
	ra, ok := spanNames(clientTr)["remote_aggregate"]
	if !ok {
		t.Fatal("client trace has no remote_aggregate span")
	}
	if serverTr.Root().Name != "serve_aggregate" || serverTr.Root().Parent != ra.ID {
		t.Fatalf("server root %q parent %x, want serve_aggregate under %x",
			serverTr.Root().Name, serverTr.Root().Parent, ra.ID)
	}
	names := spanNames(serverTr)
	for _, want := range []string{"admission", "cache", "scan", "store_scan"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("aggregate trace missing %q span (have %v)", want, keys(names))
		}
	}

	// Repeat: the cache answers; the trace still shows the cache stage, now a
	// hit, with no scan beneath it.
	ctx2, root2 := obs.DefaultTracer().Start(context.Background(), "dashboard")
	if _, err := c.AggregateCtx(ctx2, KindClasses, QuerySpec{}, 0); err != nil {
		t.Fatal(err)
	}
	root2.Finish()
	hitTr := findTrace(t, root2.TraceID(), true)
	hitNames := spanNames(hitTr)
	csp, ok := hitNames["cache"]
	if !ok {
		t.Fatal("cached aggregate trace has no cache span")
	}
	hit := false
	for _, a := range csp.Attrs() {
		if a.Key == "result" && a.Str == "hit" {
			hit = true
		}
	}
	if !hit {
		t.Fatal("repeat aggregate's cache span not annotated result=hit")
	}
	if _, ok := hitNames["store_scan"]; ok {
		t.Fatal("cache hit still scanned the store")
	}

	// The NDJSON record stream propagates the same way.
	ctx3, root3 := obs.DefaultTracer().Start(context.Background(), "curl")
	if _, err := c.QueryHTTPCtx(ctx3, QuerySpec{Peer: "690"}); err != nil {
		t.Fatal(err)
	}
	root3.Finish()
	recTr := findTrace(t, root3.TraceID(), true)
	if recTr.Root().Name != "serve_query" || recTr.Root().Parent != root3.SpanID() {
		t.Fatalf("records trace root %q parent %x, want serve_query under %x",
			recTr.Root().Name, recTr.Root().Parent, root3.SpanID())
	}
}

// TestTraceChaos: with fault injection flipping read bytes, traces stay
// well-formed and the quarantined blocks surface as EXPLAIN counters and
// span annotations.
func TestTraceChaos(t *testing.T) {
	enableTestTracing(t, -1)
	plan, err := faults.ParseSpec("seed=7,flipreadp=0.02")
	if err != nil {
		t.Fatal(err)
	}
	st := newTestStore(t, 600, store.Options{FS: faults.NewInjector(faults.Disk{}, plan)})
	srv := startServer(t, Options{Store: st})
	c := &Client{Addr: srv.Addr().String()}

	quarantined := 0
	var traceIDs []uint64
	for i := 0; i < 8; i++ {
		ctx, root := obs.DefaultTracer().Start(context.Background(), "chaos-client")
		rr, err := c.QueryCtx(ctx, QuerySpec{})
		if err != nil {
			t.Fatal(err)
		}
		drainRemote(t, rr)
		if ex := rr.Explain(); ex != nil {
			quarantined += ex.BlocksQuarantined
		}
		root.Finish()
		traceIDs = append(traceIDs, root.TraceID())
	}
	if quarantined == 0 {
		t.Fatal("chaos plan produced no quarantined blocks; raise flipreadp")
	}

	sawQuarantineNote := false
	for _, id := range traceIDs {
		tr := findTrace(t, id, true)
		ids := map[uint64]bool{tr.Root().Parent: true}
		for _, sp := range tr.Spans() {
			ids[sp.ID] = true
		}
		for _, sp := range tr.Spans() {
			if !ids[sp.Parent] {
				t.Fatalf("chaos trace %x: span %q dangling parent", id, sp.Name)
			}
			for _, a := range sp.Attrs() {
				if a.Key == "quarantined_block" {
					sawQuarantineNote = true
				}
			}
		}
	}
	if !sawQuarantineNote {
		t.Fatal("no segment span annotated a quarantined block")
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing the slow-query
// log while requests are still completing.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestSlowQueryLog: with a nanosecond threshold every request emits one
// parseable NDJSON profile line with stage timings and the EXPLAIN payload,
// and /v1/statz surfaces the same profiles as recent queries.
func TestSlowQueryLog(t *testing.T) {
	enableTestTracing(t, time.Nanosecond)
	var buf syncBuffer
	st := newTestStore(t, 300, store.Options{})
	srv := startServer(t, Options{
		Store:        st,
		CacheBytes:   1 << 20,
		SlowQueryLog: &buf,
	})
	c := &Client{Addr: srv.Addr().String(), Token: "batch"}

	rr, err := c.Query(QuerySpec{Peer: "690"})
	if err != nil {
		t.Fatal(err)
	}
	recs := drainRemote(t, rr)
	if _, err := c.Aggregate(KindClasses, QuerySpec{}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Aggregate(KindClasses, QuerySpec{}, 0); err != nil { // cache hit
		t.Fatal(err)
	}

	var lines []string
	waitFor(t, func() bool {
		lines = nonEmptyLines(buf.String())
		return len(lines) >= 3
	})

	var profiles []QueryProfile
	for _, line := range lines {
		var p QueryProfile
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("slow-query line does not parse: %v\n%s", err, line)
		}
		profiles = append(profiles, p)
	}
	bin := profiles[0]
	if bin.Proto != "binary" || bin.Kind != "records" || bin.Query != "peer=690" {
		t.Fatalf("binary profile: %+v", bin)
	}
	if bin.DurationMs <= 0 || bin.Records != len(recs) {
		t.Fatalf("binary profile counters: %+v", bin)
	}
	for _, stage := range []string{"admission", "scan", "encode"} {
		if _, ok := bin.Stages[stage]; !ok {
			t.Fatalf("binary profile missing stage %q: %v", stage, bin.Stages)
		}
	}
	if bin.Explain == nil || bin.Explain.RecordsMatched != len(recs) {
		t.Fatalf("binary profile EXPLAIN: %+v", bin.Explain)
	}
	agg1, agg2 := profiles[1], profiles[2]
	if agg1.Kind != KindClasses || agg1.CacheHit || agg1.Explain == nil {
		t.Fatalf("first aggregate profile: %+v", agg1)
	}
	if !agg2.CacheHit {
		t.Fatalf("repeat aggregate profile not marked cache_hit: %+v", agg2)
	}

	stz, err := c.Statz()
	if err != nil {
		t.Fatal(err)
	}
	if len(stz.RecentQueries) < 3 {
		t.Fatalf("statz retains %d recent queries, want >= 3", len(stz.RecentQueries))
	}
	// Newest first: the cache-hit aggregate leads.
	if !stz.RecentQueries[0].CacheHit {
		t.Fatalf("recent queries not newest-first: %+v", stz.RecentQueries[0])
	}
}

// TestSlowQueryOneDecision: the tracer's keep-if-slow verdict is the only
// slow decision. Under one config — every request head-sampled, slow at the
// threshold — a request that is both sampled and slow writes exactly one
// line, one under the threshold writes none, and
// irtl_serve_slow_queries_total grows by the lines written. With the tracer
// off a request leaves no record: no line, and no recent queries.
func TestSlowQueryOneDecision(t *testing.T) {
	const threshold = 250 * time.Millisecond
	enableTestTracing(t, threshold)
	var buf syncBuffer
	srv := startStallServer(t, Options{SlowQueryLog: &buf})
	addr := srv.Addr().String()
	c := &Client{Addr: addr}
	slow0 := obsSlowQueries.Value()

	if _, err := c.QueryHTTP(QuerySpec{Limit: 1}); err != nil {
		t.Fatal(err)
	}
	// The whole answer, read only once the threshold has passed: the
	// server's writes wait on this reader, so the request is slow.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.(*net.TCPConn).SetReadBuffer(64 << 10) // fixed, so it cannot grow to hold the answer
	if _, err := conn.Write([]byte("GET /v1/records HTTP/1.1\r\nHost: serve\r\nConnection: close\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(threshold + 50*time.Millisecond)
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.ActiveSessions() == 0 })

	lines := nonEmptyLines(buf.String())
	if len(lines) != 1 {
		t.Fatalf("%d slow-query lines, want 1 (the slow request's):\n%s", len(lines), buf.String())
	}
	var p QueryProfile
	if err := json.Unmarshal([]byte(lines[0]), &p); err != nil {
		t.Fatal(err)
	}
	if p.Query != "all" || p.DurationMs < float64(threshold/time.Millisecond) {
		t.Fatalf("slow line is not the slow request: %+v", p)
	}
	if got := obsSlowQueries.Value() - slow0; got != int64(len(lines)) {
		t.Fatalf("irtl_serve_slow_queries_total grew by %d for %d lines", got, len(lines))
	}
	stz, err := c.Statz()
	if err != nil {
		t.Fatal(err)
	}
	if len(stz.RecentQueries) < 2 || stz.RecentQueries[0].TraceID != p.TraceID || stz.RecentQueries[1].Query != "limit=1" {
		t.Fatalf("recent queries do not list both sampled requests, newest first: %+v", stz.RecentQueries)
	}

	obs.DefaultTracer().Disable()
	if _, err := c.QueryHTTP(QuerySpec{Limit: 1}); err != nil {
		t.Fatal(err)
	}
	if stz, err = c.Statz(); err != nil {
		t.Fatal(err)
	}
	if n := len(nonEmptyLines(buf.String())); n != 1 || len(stz.RecentQueries) != 0 {
		t.Fatalf("tracer off: %d lines, %d recent queries; want 1 (from before) and 0", n, len(stz.RecentQueries))
	}
}

// TestCacheEvictionAccounting pins the eviction counters and the byte gauge:
// LRU eviction under the budget and generation sweeps both count, and the
// size returns to zero when everything is swept.
func TestCacheEvictionAccounting(t *testing.T) {
	body := bytes.Repeat([]byte("x"), 256)
	g1, g2 := genPrefix(1), genPrefix(2)
	c := newResultCache(3 * (256 + int64(len(g1)) + 1 + cacheEntryOverhead))
	cachePut(t, c, g1+"a", body)
	cachePut(t, c, g1+"b", body)
	cachePut(t, c, g1+"c", body)
	if _, _, ev, _ := c.counts(); ev != 0 {
		t.Fatalf("evictions before overflow: %d", ev)
	}
	cachePut(t, c, g1+"d", body) // budget overflow: LRU (a) goes
	if _, ok := c.get(g1 + "a"); ok {
		t.Fatal("LRU entry survived overflow")
	}
	_, _, ev, size := c.counts()
	if ev != 1 {
		t.Fatalf("evictions after overflow: %d, want 1", ev)
	}
	if size <= 0 {
		t.Fatalf("cache size %d after puts", size)
	}
	cachePut(t, c, g2+"e", body)
	c.dropOldGens(2) // generation sweep: every gen-1 entry goes
	if _, ok := c.get(g2 + "e"); !ok {
		t.Fatal("current-generation entry swept")
	}
	_, _, ev2, _ := c.counts()
	if ev2 <= ev+1 {
		t.Fatalf("generation sweep evicted %d entries, want several", ev2-ev)
	}
	c.dropOldGens(3)
	if _, _, _, size := c.counts(); size != 0 {
		t.Fatalf("cache size %d after full sweep, want 0", size)
	}
}

func keys(m map[string]*obs.TraceSpan) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func nonEmptyLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// TestTraceSegmentSpanBudget: a scan of more segments than the trace's span
// budget holds still leaves room for the request's own stages, so the
// profile of a 601-segment record stream keeps its encode stage and record
// count. The EXPLAIN on store_scan still counts every segment.
func TestTraceSegmentSpanBudget(t *testing.T) {
	enableTestTracing(t, -1)
	st := newTestStore(t, 900, store.Options{Window: time.Minute})
	srv := startServer(t, Options{Store: st})

	ctx, root := obs.DefaultTracer().Start(context.Background(), "client")
	rr, err := (&Client{Addr: srv.Addr().String()}).QueryCtx(ctx, QuerySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if recs := drainRemote(t, rr); len(recs) != 900 {
		t.Fatalf("streamed %d records, want 900", len(recs))
	}
	root.Finish()

	p := profileOf(findTrace(t, root.TraceID(), true))
	if p.Records != 900 {
		t.Fatalf("profile records = %d, want 900", p.Records)
	}
	for _, stage := range []string{"admission", "scan", "encode"} {
		if _, ok := p.Stages[stage]; !ok {
			t.Fatalf("profile has no %q stage: %v", stage, p.Stages)
		}
	}
	if p.Explain == nil || p.Explain.SegmentsScanned <= 512 {
		t.Fatalf("EXPLAIN does not count every segment: %+v", p.Explain)
	}
}
