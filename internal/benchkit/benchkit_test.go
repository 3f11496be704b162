package benchkit

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"instability/internal/collector"
	"instability/internal/serve"
	"instability/internal/store"
)

// smallCampaign is the 3-day SmallConfig campaign the unit tests share.
func smallCampaign(t *testing.T) *Campaign {
	t.Helper()
	c, err := Generate(CampaignConfig(3, true))
	if err != nil {
		t.Fatal(err)
	}
	if c.Days() != 3 || len(c.Recs) == 0 {
		t.Fatalf("campaign: %d days, %d records", c.Days(), len(c.Recs))
	}
	return c
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1, 0.5}, {19, 0.5}, {20, 0.5}, {99, 0.5}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := TailPercentile(tc.n); got != tc.want {
			t.Errorf("TailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	var s Samples
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	if s.Median() != 50 || s.Quantile(0.95) != 95 || s.Quantile(1) != 100 || s.Max() != 100 || s.Sum() != 5050 {
		t.Errorf("nearest-rank quantiles of 1..100: p50 %v p95 %v p100 %v", s.Median(), s.Quantile(0.95), s.Quantile(1))
	}
	if s[0] != 100 {
		t.Error("Quantile sorted its receiver")
	}
	if (Samples{}).Quantile(0.5) != 0 {
		t.Error("empty Samples must read 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := Quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = Quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of 1,2 = %v %v %v", q1, q2, q3)
	}
	if got := Spread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %v", got)
	}
}

func TestRecordHashIsOrderIndependent(t *testing.T) {
	c := smallCampaign(t)
	answer := func(recs []collector.Record) Answer {
		var a Answer
		var h Hasher
		for _, rec := range recs {
			x, err := h.Record(rec)
			if err != nil {
				t.Fatal(err)
			}
			a.Add(x)
		}
		return a
	}
	want := answer(c.Recs)
	shuffled := append([]collector.Record(nil), c.Recs...)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := answer(shuffled); got != want {
		t.Errorf("shuffled campaign hashes to %+v, in order %+v", got, want)
	}
	shuffled[0].Time = shuffled[0].Time.Add(time.Nanosecond)
	if got := answer(shuffled); got == want {
		t.Error("a changed record left the hash unchanged")
	}
	if got := answer(shuffled[1:]); got == want {
		t.Error("a dropped record left the hash unchanged")
	}
}

// TestOracleAgreesWithStore holds the brute-force filter against store.Query
// on every query shape, the origin predicate's announce-only rule included.
func TestOracleAgreesWithStore(t *testing.T) {
	c := smallCampaign(t)
	o, err := NewOracle(c.Recs, c.Cfg.Start, c.Days())
	if err != nil {
		t.Fatal(err)
	}
	if o.All.Count != len(c.Recs) || o.WireBytes == 0 {
		t.Fatalf("oracle: %+v over %d records, %d wire bytes", o.All, len(c.Recs), o.WireBytes)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := buildStore(dir, c.Recs, true); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, StoreOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	var ann, wd collector.Record
	for _, rec := range c.Recs {
		if rec.Type == collector.Announce && ann.Type == 0 {
			ann = rec
		}
		if rec.Type == collector.Withdraw && wd.Type == 0 {
			wd = rec
		}
	}
	origin, ok := ann.Attrs.Path.Origin()
	if !ok || wd.Type == 0 {
		t.Fatal("campaign lacks an announcement with a path or a withdrawal")
	}
	day1, day2 := rfc(c.DayStart(1)), rfc(c.DayStart(2))
	specs := []serve.QuerySpec{
		{},
		{Type: "W"},
		{From: day1, To: day2},
		{Origin: strconv.Itoa(int(origin))},
		{Origin: strconv.Itoa(int(origin)), Type: "W"}, // origin implies announce: empty
		{Prefix: wd.Prefix.String()},
		{Peer: strconv.Itoa(int(ann.PeerAS)), From: day1, To: day2},
		{From: day2, To: day1}, // empty range
	}
	for _, spec := range specs {
		q, err := spec.Parse()
		if err != nil {
			t.Fatal(err)
		}
		rd, err := st.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := drain(rd, &Hasher{})
		rd.Close()
		if err != nil {
			t.Fatal(err)
		}
		if want := o.Answer(q); got != want {
			t.Errorf("{%s}: store %+v, oracle %+v", spec, got, want)
		}
	}
	q, _ := serve.QuerySpec{Origin: strconv.Itoa(int(origin))}.Parse()
	if Matches(&q, &wd) {
		t.Error("an origin predicate matched a withdrawal")
	}
	if !Matches(&q, &ann) {
		t.Error("an origin predicate missed its own announcement")
	}
	if a := o.Answer(q); a.Count == 0 || a.Count >= o.All.Count {
		t.Errorf("origin query matched %d of %d records", a.Count, o.All.Count)
	}
	q, _ = serve.QuerySpec{Origin: strconv.Itoa(int(origin)), Type: "W"}.Parse()
	if a := o.Answer(q); a.Count != 0 {
		t.Errorf("origin + type=W matched %d records, want none", a.Count)
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := NewTracer()
	t0 := time.Now()
	pass := tr.Record(nil, passSpan, t0, 100*time.Millisecond, 0)
	cb := tr.Record(pass, "collector.callback", t0, 60*time.Millisecond, 10)
	tr.Record(cb, "store.append", t0, 25*time.Millisecond, 10)
	tr.Record(cb, "core.classify", t0, 15*time.Millisecond, 10)
	tr.Record(pass, "bench.reference", t0, 30*time.Millisecond, 0)
	tot := tr.Totals()
	if got := tot["collector.callback"]; got.Self != 20*time.Millisecond || got.Total != 60*time.Millisecond || got.Count != 10 {
		t.Errorf("callback totals %+v", got)
	}
	self := LayerSelf(tot)
	if len(self) != 3 || self["collector"] != 20*time.Millisecond || self["store"] != 25*time.Millisecond || self["core"] != 15*time.Millisecond {
		t.Errorf("layer self times %v", self)
	}
	var nilTracer *Tracer
	nilTracer.Start(nil, "x").End(1) // the untraced run: must be a no-op
	if nilTracer.Record(nil, "x", t0, time.Second, 1) != nil || len(nilTracer.Totals()) != 0 {
		t.Error("nil tracer recorded something")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := WriteTraces(path, map[string]*Tracer{WLive: tr}); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(path); !bytes.Contains(b, []byte(`"name":"store.append"`)) {
		t.Errorf("trace file lacks a span: %s", b)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := MetricDef{"op_ms_p50", "ms", "lower", 0.10}
	higher := MetricDef{"records_per_s", "rec/s", "higher", 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, tc := range []struct {
		name string
		a, b []float64
		def  MetricDef
		want string
	}{
		{"same", steady, steady, lower, VerdictOK},
		{"slower latency", steady, []float64{120, 121, 119, 120, 120}, lower, VerdictRegression},
		{"faster latency", steady, []float64{80, 81, 79, 80, 80}, lower, VerdictOK},
		{"lower throughput", steady, []float64{80, 81, 79, 80, 80}, higher, VerdictRegression},
		{"higher throughput", steady, []float64{120, 121, 119, 120, 120}, higher, VerdictOK},
		{"within bound", steady, []float64{105, 106, 104, 105, 105}, lower, VerdictOK},
		{"noisy", steady, []float64{70, 100, 130, 160, 100}, lower, VerdictUnresolved},
		{"noisy but every run better", []float64{100, 130, 160, 190, 130}, []float64{50, 60, 70, 80, 60}, lower, VerdictOK},
	} {
		if _, got := judge(tc.a, tc.b, tc.def); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}

	dir := t.TempDir()
	doc := func(name string, v float64) string {
		var runs []*Result
		for i := 0; i < 5; i++ {
			runs = append(runs, &Result{Workload: WAnalyze, Metrics: map[string]Metric{"op_ms_p95": {v + float64(i)/10, "ms"}}})
		}
		path := filepath.Join(dir, name)
		if err := AppendDoc(path, RunRecord{}, runs[:2]); err != nil {
			t.Fatal(err)
		}
		if err := AppendDoc(path, RunRecord{}, runs[2:]); err != nil {
			t.Fatal(err)
		}
		return path
	}
	manifest := filepath.Join(dir, "BENCHMARK.json")
	b, err := ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manifest, b, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	regressed, err := Compare(&out, manifest, doc("a.json", 10), doc("b.json", 13))
	if err != nil || !regressed || !strings.Contains(out.String(), VerdictRegression) {
		t.Errorf("10 → 13 ms: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	out.Reset()
	if regressed, err = Compare(&out, manifest, doc("c.json", 10), doc("d.json", 10.2)); err != nil || regressed {
		t.Errorf("10 → 10.2 ms: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "n=5/5") {
		t.Errorf("AppendDoc did not accumulate runs:\n%s", out.String())
	}
}

// TestBenchSmoke runs every workload, untraced and traced, on a 3-day
// campaign, and holds the result against the metric tables and against the
// checked-in BENCHMARK.json — so the harness cannot rot and the names cannot
// drift from the file the driver reads.
func TestBenchSmoke(t *testing.T) {
	want, err := ManifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json")); err != nil {
		t.Errorf("BENCHMARK.json: %v", err)
	} else if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with `bash cmd/bgpbench/run.sh manifest > BENCHMARK.json`")
	}

	for _, name := range Gated {
		if _, ok := specs[name]; !ok {
			t.Errorf("gated workload %q is not a workload", name)
		}
	}

	start := time.Now()
	traceOut := filepath.Join(t.TempDir(), "bench-trace.json")
	runs, err := RunAll(Options{Seed: 1996, Days: 3, Small: true, TmpDir: t.TempDir()}, traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2*len(Workloads) {
		t.Fatalf("%d runs, want %d", len(runs), 2*len(Workloads))
	}
	moved := make(map[string]bool) // per-layer metrics some workload reported non-zero
	for i, res := range runs {
		if want := Workloads[i%len(Workloads)].Name; res.Workload != want || res.Trace != (i >= len(Workloads)) {
			t.Fatalf("run %d is %s trace=%v, want %s", i, res.Workload, res.Trace, want)
		}
		if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
			t.Errorf("%s trace=%v: failed %d of %d: %v", res.Workload, res.Trace, res.Failed, res.Attempted, res.Errors)
		}
		defs := EndToEnd
		if res.Trace {
			defs = PerLayer
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("%s trace=%v: %d metrics, want %d", res.Workload, res.Trace, len(res.Metrics), len(defs))
		}
		for _, def := range defs {
			m, ok := res.Metrics[def.Name]
			switch {
			case !ok:
				t.Errorf("%s trace=%v: %s missing", res.Workload, res.Trace, def.Name)
			case m.Unit != def.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s trace=%v: %s = %v %s", res.Workload, res.Trace, def.Name, m.Value, m.Unit)
			case !res.Trace && m.Value <= 0:
				t.Errorf("%s: end-to-end %s = %v, must never be 0", res.Workload, def.Name, m.Value)
			case m.Value != 0:
				moved[def.Name] = true
			}
		}
		if line, err := DriverLine(res); err != nil || !bytes.HasPrefix(line, []byte(`{"correct":true,"attempted":`)) {
			t.Errorf("driver line: %s (%v)", line, err)
		}
	}
	// Zero is a legitimate reading for these: on any clean run; for the
	// seal and compact ones on a campaign too small to auto-seal (one segment
	// a window leaves compaction nothing to merge); for mem_share when
	// mixed's appender is done before its reader's first query.
	quiet := map[string]bool{"failed_share": true, "session.queue_drops": true, "serve.shed": true,
		"serve.coalesced": true, "serve.cache.evictions": true, "store.blockcache.evictions": true,
		"detect.alerts":           true,
		"store.seal_stall_ms_max": true, "store.compact_ns_per_record": true, "store.compact_rewrite_share": true,
		"store.query.mem_share": true}
	for _, def := range PerLayer {
		if !moved[def.Name] && !quiet[def.Name] {
			t.Errorf("per-layer %s read 0 on every workload: nothing measures it", def.Name)
		}
	}
	if fi, err := os.Stat(traceOut); err != nil || fi.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
	var names []string
	seen := make(map[string]bool)
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, def := range defs {
			if seen[def.Name] || (def.Better != "lower" && def.Better != "higher") {
				t.Errorf("metric %s: duplicate or bad direction %q", def.Name, def.Better)
			}
			seen[def.Name] = true
			names = append(names, def.Name)
		}
	}
	t.Logf("%d metrics over %d workloads in %v", len(names), len(Workloads), time.Since(start).Round(time.Millisecond))
}
