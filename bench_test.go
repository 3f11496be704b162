// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus ablations for the design choices DESIGN.md calls out. Each benchmark
// measures the cost of computing its experiment from a shared simulated
// campaign and reports the experiment's headline number as a custom metric,
// so `go test -bench=. -benchmem` doubles as the reproduction harness.
package instability_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"instability"
	"instability/internal/analysis"
	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/damping"
	"instability/internal/detect"
	"instability/internal/events"
	"instability/internal/exchange"
	"instability/internal/netaddr"
	"instability/internal/report"
	"instability/internal/rib"
	"instability/internal/router"
	"instability/internal/session"
	"instability/internal/store"
	"instability/internal/synchrony"
	"instability/internal/topology"
	"instability/internal/workload"
)

// campaign is the shared simulated measurement campaign: seven simulated
// weeks with a pathological flood, the infrastructure upgrade, and a
// collector outage.
type campaign struct {
	pipe     *instability.Pipeline
	gen      *workload.Generator
	cfg      workload.Config
	floodDay core.Date
	outages  map[core.Date]bool
}

var (
	campOnce sync.Once
	camp     *campaign
)

func getCampaign(b *testing.B) *campaign {
	b.Helper()
	campOnce.Do(func() {
		cfg := workload.DefaultConfig()
		cfg.Days = 49
		cfg.Incidents = []workload.Incident{
			{Kind: workload.PathologicalFlood, Day: 12, Magnitude: 1},
			{Kind: workload.InfrastructureUpgrade, Day: 25, Days: 5, Magnitude: 1},
			{Kind: workload.CollectorOutage, Day: 40, Magnitude: 1},
		}
		p := instability.NewPipeline()
		_, gen, err := instability.RunScenario(cfg, p)
		if err != nil {
			panic(err)
		}
		start := core.DateOf(cfg.Start)
		camp = &campaign{
			pipe: p, gen: gen, cfg: cfg,
			floodDay: start + 12,
			outages:  map[core.Date]bool{start + 40: true},
		}
	})
	return camp
}

func BenchmarkTable1(b *testing.B) {
	c := getCampaign(b)
	var res report.Table1Result
	for i := 0; i < b.N; i++ {
		res = report.Table1(c.pipe.Acc, c.floodDay)
	}
	maxWd := 0
	for _, row := range res.Rows {
		if row.Withdraw > maxWd {
			maxWd = row.Withdraw
		}
	}
	b.ReportMetric(float64(maxWd), "flood_withdrawals")
	if maxWd < 10000 {
		b.Fatalf("flood provider withdrawals %d, want the ISP-I signature", maxWd)
	}
}

func BenchmarkFig1(b *testing.B) {
	c := getCampaign(b)
	var res report.Fig1Result
	for i := 0; i < b.N; i++ {
		res = report.Fig1(c.gen.Topology())
	}
	if len(res.Exchanges) != 5 {
		b.Fatal("expected 5 exchange points")
	}
	b.ReportMetric(float64(res.Peers[0]), "maeeast_peers")
}

func BenchmarkFig2(b *testing.B) {
	c := getCampaign(b)
	var res report.Fig2Result
	for i := 0; i < b.N; i++ {
		res = report.Fig2(c.pipe.Acc)
	}
	var dup, diff int
	for _, m := range res.Months {
		cc := res.Counts[m]
		dup += cc[core.AADup] + cc[core.WADup]
		diff += cc[core.AADiff] + cc[core.WADiff]
	}
	if dup <= diff {
		b.Fatalf("duplicates %d should dominate diffs %d", dup, diff)
	}
	b.ReportMetric(float64(dup)/float64(diff), "dup_over_diff")
}

func BenchmarkFig3(b *testing.B) {
	c := getCampaign(b)
	var res report.Fig3Result
	for i := 0; i < b.N; i++ {
		res = report.Fig3(c.pipe.Acc, c.outages)
	}
	if len(res.Grid) != c.cfg.Days {
		b.Fatalf("grid rows %d", len(res.Grid))
	}
	b.ReportMetric(res.TrendSlope, "log_trend_per_day")
}

func BenchmarkFig4(b *testing.B) {
	c := getCampaign(b)
	week := core.DateOf(c.cfg.Start) + 15
	for week.Weekday() != time.Saturday {
		week++
	}
	var res report.Fig4Result
	for i := 0; i < b.N; i++ {
		res = report.Fig4(c.pipe.Acc, week)
	}
	if len(res.Series) != 7*core.TenMinBins {
		b.Fatal("bad week length")
	}
}

func BenchmarkFig5(b *testing.B) {
	c := getCampaign(b)
	var res report.Fig5Result
	for i := 0; i < b.N; i++ {
		res = report.Fig5(c.pipe.Acc, 7)
	}
	if !report.HasPeriod(res.FFTPeaks, 24, 0.2) && !report.HasPeriod(res.Significant, 24, 0.2) {
		b.Fatalf("24h cycle missing: %+v", res.FFTPeaks)
	}
	// The weekly cycle: 168h within 25%.
	weekly := report.HasPeriod(res.FFTPeaks, 168, 0.25) || report.HasPeriod(res.Significant, 168, 0.25)
	b.ReportMetric(boolMetric(weekly), "weekly_cycle_found")
	b.ReportMetric(boolMetric(true), "daily_cycle_found")
}

func BenchmarkFig6(b *testing.B) {
	c := getCampaign(b)
	var res report.Fig6Result
	for i := 0; i < b.N; i++ {
		res = report.Fig6(c.pipe.Acc)
	}
	worst := 0.0
	for _, r := range res.Correlation {
		if r > worst {
			worst = r
		}
	}
	if worst > 0.7 {
		b.Fatalf("update share too correlated with table share: %v", worst)
	}
	b.ReportMetric(worst, "max_size_correlation")
}

func BenchmarkFig7(b *testing.B) {
	c := getCampaign(b)
	var res report.Fig7Result
	for i := 0; i < b.N; i++ {
		res = report.Fig7(c.pipe.Acc)
	}
	if res.MedianAtFifty[core.AADiff] < 0.8 {
		b.Fatalf("AADiff mass from small contributors %v, want >=0.8", res.MedianAtFifty[core.AADiff])
	}
	b.ReportMetric(res.MedianAtTen[core.AADiff], "aadiff_share_leq10")
}

func BenchmarkFig8(b *testing.B) {
	c := getCampaign(b)
	var res report.Fig8Result
	for i := 0; i < b.N; i++ {
		res = report.Fig8(c.pipe.Acc)
	}
	if res.ThirtyAndSixty[core.AADup] < 0.35 {
		b.Fatalf("AADup 30s+1m mass %v", res.ThirtyAndSixty[core.AADup])
	}
	b.ReportMetric(res.ThirtyAndSixty[core.AADup], "aadup_30s1m_share")
	b.ReportMetric(res.ThirtyAndSixty[core.WADup], "wadup_30s1m_share")
}

func BenchmarkFig9(b *testing.B) {
	c := getCampaign(b)
	var res report.Fig9Result
	for i := 0; i < b.N; i++ {
		res = report.Fig9(c.pipe.Acc, c.outages)
	}
	var stable []float64
	for _, d := range res.Days[1:] { // skip the initial-dump day
		stable = append(stable, d.StableFrac)
	}
	med := analysis.Quantile(stable, 0.5)
	if med < 0.7 {
		b.Fatalf("median stable fraction %v, paper reports >0.8", med)
	}
	b.ReportMetric(med, "median_stable_frac")
}

func BenchmarkFig10(b *testing.B) {
	c := getCampaign(b)
	var res report.Fig10Result
	for i := 0; i < b.N; i++ {
		res = report.Fig10(c.pipe.CensusByDay)
	}
	if res.GrowthPerDay <= 0 {
		b.Fatal("multihoming growth not positive")
	}
	if res.FinalShare < 0.25 {
		b.Fatalf("multihomed share %v, paper reports >25%%", res.FinalShare)
	}
	b.ReportMetric(res.GrowthPerDay, "multihomed_growth_per_day")
	b.ReportMetric(res.FinalShare, "final_multihomed_share")
}

// BenchmarkScenarioGeneration measures the end-to-end generate+classify
// pipeline throughput (records per op reported as a metric).
func BenchmarkScenarioGeneration(b *testing.B) {
	cfg := workload.SmallConfig()
	cfg.Days = 7
	b.ReportAllocs()
	var records int
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		p := instability.NewPipeline()
		stats, _, err := instability.RunScenario(cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		records = stats.Records
	}
	b.ReportMetric(float64(records), "records")
}

// BenchmarkClassifierThroughput measures raw classification speed.
func BenchmarkClassifierThroughput(b *testing.B) {
	cfg := workload.SmallConfig()
	cfg.Days = 2
	g, err := workload.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var recs []collector.Record
	g.Run(func(r collector.Record) { recs = append(recs, r) }, nil)
	b.ResetTimer()
	b.ReportAllocs()
	cls := core.NewClassifier()
	for i := 0; i < b.N; i++ {
		cls.Classify(recs[i%len(recs)])
	}
}

// ----------------------------------------------------------- ablations

// BenchmarkAblationStatelessVsStateful quantifies the §4.2 vendor fix: the
// WWDup count at a route server before and after the stateful software
// update.
func BenchmarkAblationStatelessVsStateful(b *testing.B) {
	episode := func(stateless bool) int {
		sim := events.New(7)
		cls := core.NewClassifier()
		ww := 0
		pt := exchange.New(sim, exchange.Config{Name: "AADS", Sink: func(r collector.Record) {
			if cls.Classify(r).Class == core.WWDup {
				ww++
			}
		}})
		x := router.New(sim, router.Config{AS: 690, ID: 1, Session: session.Config{MRAI: time.Second, CompareLastSent: true}})
		y := router.New(sim, router.Config{AS: 701, ID: 2, Session: session.Config{MRAI: time.Second, Stateless: stateless, CompareLastSent: !stateless}})
		pt.AttachClient(x, 5*time.Millisecond)
		pt.AttachClient(y, 5*time.Millisecond)
		sim.RunFor(10 * time.Second)
		for i := 0; i < 20; i++ {
			prefix := netaddr.MustPrefix(netaddr.Addr(0xc02a0000+uint32(i)<<8), 24)
			x.Originate(prefix, bgp.OriginIGP)
			sim.RunFor(time.Minute)
			x.WithdrawOrigin(prefix)
			sim.RunFor(time.Minute)
		}
		return ww
	}
	var before, after int
	for i := 0; i < b.N; i++ {
		before = episode(true)
		after = episode(false)
	}
	if before <= after || before == 0 {
		b.Fatalf("stateless %d vs stateful %d", before, after)
	}
	b.ReportMetric(float64(before), "wwdup_stateless")
	b.ReportMetric(float64(after), "wwdup_stateful")
}

// BenchmarkAblationJitter quantifies Floyd-Jacobson: unjittered timers
// synchronize, jittered ones do not.
func BenchmarkAblationJitter(b *testing.B) {
	var unj, jit synchrony.Result
	for i := 0; i < b.N; i++ {
		cfg := synchrony.DefaultConfig()
		cfg.Steps = 500
		unj = synchrony.Run(cfg, rand.New(rand.NewSource(1)))
		cfg.JitterFrac = 0.25
		jit = synchrony.Run(cfg, rand.New(rand.NewSource(1)))
	}
	if unj.PhaseCoherence < 0.9 || jit.PhaseCoherence > 0.6 {
		b.Fatalf("coherence unjittered %v jittered %v", unj.PhaseCoherence, jit.PhaseCoherence)
	}
	b.ReportMetric(unj.PhaseCoherence, "coherence_unjittered")
	b.ReportMetric(jit.PhaseCoherence, "coherence_jittered")
}

// BenchmarkAblationDamping measures suppression effectiveness and the
// reachability delay it introduces.
func BenchmarkAblationDamping(b *testing.B) {
	run := func(withDamping bool) (suppressed int, delay time.Duration) {
		sim := events.New(11)
		cfg := router.Config{AS: 200, ID: 2, Session: session.Config{MRAI: 0}}
		if withDamping {
			d := damping.DefaultConfig()
			cfg.Damping = &d
		}
		r := router.New(sim, cfg)
		feeder := router.New(sim, router.Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0}})
		router.Connect(sim, feeder, r, time.Millisecond)
		sim.RunFor(5 * time.Second)
		prefix := netaddr.MustParsePrefix("192.42.113.0/24")
		for i := 0; i < 10; i++ {
			feeder.Originate(prefix, bgp.OriginIGP)
			sim.RunFor(30 * time.Second)
			feeder.WithdrawOrigin(prefix)
			sim.RunFor(30 * time.Second)
		}
		feeder.Originate(prefix, bgp.OriginIGP)
		for delay < 3*time.Hour {
			sim.RunFor(time.Minute)
			delay += time.Minute
			if _, _, ok := r.RIB().Best(prefix); ok {
				break
			}
		}
		return r.Metrics().DampedUpdates, delay
	}
	var supOn int
	var delayOn, delayOff time.Duration
	for i := 0; i < b.N; i++ {
		_, delayOff = run(false)
		supOn, delayOn = run(true)
	}
	if supOn == 0 || delayOn <= delayOff {
		b.Fatalf("damping ineffective: suppressed %d, delay %v vs %v", supOn, delayOn, delayOff)
	}
	b.ReportMetric(float64(supOn), "suppressed_updates")
	b.ReportMetric(delayOn.Minutes(), "reuse_delay_minutes")
}

// BenchmarkAblationCacheVsFullTable compares the two router architectures
// under identical update load.
func BenchmarkAblationCacheVsFullTable(b *testing.B) {
	run := func(arch router.Architecture) (invalidations int) {
		sim := events.New(9)
		victim := router.New(sim, router.Config{AS: 200, ID: 2, Arch: arch, Session: session.Config{MRAI: 0}})
		feeder := router.New(sim, router.Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0}})
		router.Connect(sim, feeder, victim, time.Millisecond)
		sim.RunFor(5 * time.Second)
		for i := 0; i < 30; i++ {
			feeder.Originate(netaddr.MustParsePrefix("35.0.0.0/8"), bgp.OriginIGP)
			sim.RunFor(time.Second)
			feeder.WithdrawOrigin(netaddr.MustParsePrefix("35.0.0.0/8"))
			sim.RunFor(time.Second)
		}
		return victim.Metrics().CacheInvalidations
	}
	var cache, full int
	for i := 0; i < b.N; i++ {
		cache = run(router.RouteCache)
		full = run(router.FullTable)
	}
	if cache == 0 || full != 0 {
		b.Fatalf("cache %d full %d", cache, full)
	}
	b.ReportMetric(float64(cache), "cache_invalidations")
}

// BenchmarkAblationAggregation quantifies how CIDR aggregation shrinks the
// globally visible route set (the §4 argument for why poor aggregation
// inflates instability).
func BenchmarkAblationAggregation(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	topo := topology.Generate(topology.Config{
		Backbones: 6, Regionals: 10, Customers: 200, PrefixesPerCustomer: 8,
	}, rng)
	var raw, aggregated int
	for i := 0; i < b.N; i++ {
		raw, aggregated = 0, 0
		for _, asn := range topo.Order {
			a := topo.ASes[asn]
			raw += len(a.Prefixes)
			aggregated += len(rib.Aggregate(a.Prefixes))
		}
	}
	if aggregated >= raw {
		b.Fatalf("aggregation did not shrink the table: %d -> %d", raw, aggregated)
	}
	b.ReportMetric(float64(raw), "raw_prefixes")
	b.ReportMetric(float64(aggregated), "aggregated_prefixes")
}

// BenchmarkAblationRouteServer reports the session-count complexity claim.
func BenchmarkAblationRouteServer(b *testing.B) {
	var mesh, rs int
	for i := 0; i < b.N; i++ {
		mesh = exchange.BilateralSessions(60)
		rs = exchange.RouteServerSessions(60)
	}
	if mesh <= rs {
		b.Fatal("mesh should exceed route server sessions")
	}
	b.ReportMetric(float64(mesh), "mesh_sessions")
	b.ReportMetric(float64(rs), "routeserver_sessions")
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// BenchmarkRIBDefaultFreeTable exercises RIB operations at the paper's
// default-free table scale (42,000 prefixes).
func BenchmarkRIBDefaultFreeTable(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	table := rib.New(6000)
	peer := rib.PeerID{AS: 690, ID: 1}
	attrs := bgp.Attrs{Origin: bgp.OriginIGP, Path: bgp.PathFromASNs(690, 237), NextHop: 1}
	prefixes := make([]netaddr.Prefix, 42000)
	for i := range prefixes {
		prefixes[i] = netaddr.MustPrefix(netaddr.Addr(rng.Uint32()), 8+rng.Intn(17))
		table.Update(peer, prefixes[i], attrs)
	}
	alt := attrs
	alt.Path = bgp.PathFromASNs(701, 237)
	altPeer := rib.PeerID{AS: 701, ID: 2}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := prefixes[i%len(prefixes)]
		table.Update(altPeer, p, alt)
		table.Withdraw(altPeer, p)
	}
	b.ReportMetric(float64(table.Len()), "table_prefixes")
}

// ----------------------------------------------------------- irtlstore

var (
	storeRecsOnce sync.Once
	storeRecs     []collector.Record
)

// getStoreCampaign synthesizes one week of updates shared by the store
// benchmarks.
func getStoreCampaign(b *testing.B) []collector.Record {
	b.Helper()
	storeRecsOnce.Do(func() {
		cfg := workload.SmallConfig()
		cfg.Days = 7
		g, err := workload.New(cfg)
		if err != nil {
			panic(err)
		}
		g.Run(func(r collector.Record) { storeRecs = append(storeRecs, r) }, nil)
	})
	return storeRecs
}

// BenchmarkStoreIngest is the ledger's ingest workload over the week-long
// campaign: AppendBatch(256) under the ledger's auto-seal threshold, then
// Seal, Compact and Close, into a fresh store per op. records/sec and
// B/record track the ledger's records_per_s and store.alloc_bytes_per_record
// on a smaller campaign.
func BenchmarkStoreIngest(b *testing.B) {
	recs := getStoreCampaign(b)
	var ms runtime.MemStats
	var alloc uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		runtime.ReadMemStats(&ms)
		a0 := ms.TotalAlloc
		b.StartTimer()
		s, err := store.Open(dir, store.Options{AutoSealRecords: 1 << 16})
		if err != nil {
			b.Fatal(err)
		}
		w := s.Writer()
		for off := 0; off < len(recs); off += 256 {
			if err := w.AppendBatch(recs[off:min(off+256, len(recs))]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Seal(); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Compact(); err != nil {
			b.Fatal(err)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - a0
		b.StartTimer()
	}
	records := float64(b.N) * float64(len(recs))
	b.ReportMetric(records/b.Elapsed().Seconds(), "records/sec")
	b.ReportMetric(float64(alloc)/records, "B/record")
}

// BenchmarkStoreQuery compares a full scan against an indexed query for a
// single origin AS over the same sealed multi-segment store. The pushdown
// sub-benchmark must scan strictly fewer blocks — that is the point of the
// per-segment indexes — and the reported blocks_scanned metric makes the
// difference visible in the bench output.
func BenchmarkStoreQuery(b *testing.B) {
	recs := getStoreCampaign(b)
	s, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	w := s.Writer()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		b.Fatal(err)
	}
	// Query the busiest origin so the pushdown case does nontrivial work.
	byOrigin := make(map[bgp.ASN]int)
	for _, rec := range recs {
		if rec.Type == collector.Announce {
			if o, ok := rec.Attrs.Path.Origin(); ok {
				byOrigin[o]++
			}
		}
	}
	var origin bgp.ASN
	for o, n := range byOrigin {
		if n > byOrigin[origin] {
			origin = o
		}
	}

	run := func(b *testing.B, open func() (*store.Reader, error)) store.Explain {
		b.Helper()
		b.ReportAllocs()
		var st store.Explain
		var matched int
		for i := 0; i < b.N; i++ {
			r, err := open()
			if err != nil {
				b.Fatal(err)
			}
			matched = 0
			for {
				if _, err := r.Next(); err != nil {
					break
				}
				matched++
			}
			st = r.Explain()
			r.Close()
		}
		if matched == 0 {
			b.Fatal("query matched nothing")
		}
		b.ReportMetric(float64(st.BlocksScanned), "blocks_scanned")
		b.ReportMetric(float64(matched), "records_matched")
		b.ReportMetric(float64(matched)*float64(b.N)/b.Elapsed().Seconds(), "records_per_sec")
		return st
	}

	var full, pushed store.Explain
	b.Run("FullScan", func(b *testing.B) {
		full = run(b, func() (*store.Reader, error) { return s.Query(store.Query{}) })
	})
	b.Run("OriginPushdown", func(b *testing.B) {
		pushed = run(b, func() (*store.Reader, error) {
			return s.Query(store.Query{OriginAS: []bgp.ASN{origin}})
		})
	})
	if full.BlocksScanned > 0 && pushed.BlocksScanned >= full.BlocksScanned {
		b.Fatalf("pushdown scanned %d blocks, full scan %d — index not helping",
			pushed.BlocksScanned, full.BlocksScanned)
	}
}

// feedDay is one generated day of records and the date its barrier closes.
type feedDay struct {
	date core.Date
	recs []collector.Record
}

// feedDays synthesizes the small-scale week the Feed benchmarks replay, day
// by day, and its record count. Records are copied out of the generator's
// reused day buffer.
func feedDays(b *testing.B) ([]feedDay, int) {
	b.Helper()
	g, err := workload.New(workload.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	var days []feedDay
	var recs []collector.Record
	n := 0
	g.Run(func(r collector.Record) { recs = append(recs, r) }, func(_ int, end time.Time) {
		days = append(days, feedDay{date: core.DateOf(end.Add(-time.Second)), recs: recs})
		n += len(recs)
		recs = nil
	})
	return days, n
}

// feedWeek is one benchmark op: the week through feed, with endDay at each
// day's end — the stream the ledger's analyze workload runs.
func feedWeek(days []feedDay, feed func(collector.Record), endDay func(core.Date)) {
	for _, d := range days {
		for _, rec := range d.recs {
			feed(rec)
		}
		endDay(d.date)
	}
}

// reportPerRecord reports the per-record cost of b.N passes over n records.
func reportPerRecord(b *testing.B, n int) {
	records := float64(b.N) * float64(n)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(records/b.Elapsed().Seconds(), "records_per_sec")
}

// BenchmarkPipelineFeed measures the full per-record analysis cost (classify,
// accumulate, day-end snapshot and census) over whole days into a fresh
// pipeline per op, as the ledger's analyze workload feeds it.
func BenchmarkPipelineFeed(b *testing.B) {
	days, n := feedDays(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := instability.NewPipeline()
		feedWeek(days, func(rec collector.Record) { p.Feed(rec) }, p.EndDay)
	}
	reportPerRecord(b, n)
}

// BenchmarkPipelineFeedDetect is BenchmarkPipelineFeed with the anomaly
// detector on the pipeline's hooks, Advance at each day end: the delta
// between the two is the marginal per-record cost of detection.
func BenchmarkPipelineFeedDetect(b *testing.B) {
	days, n := feedDays(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := instability.NewPipeline()
		det := detect.New(detect.Config{})
		p.Events = det.Add
		p.DayEnd = func(d core.Date) { det.Advance(d.Time().AddDate(0, 0, 1)) }
		feedWeek(days, func(rec collector.Record) { p.Feed(rec) }, p.EndDay)
		det.Finish()
	}
	reportPerRecord(b, n)
}
