package instability_test

import (
	"path/filepath"
	"testing"
	"time"

	"instability"
	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/netaddr"
	"instability/internal/workload"
)

func TestRunScenarioPipeline(t *testing.T) {
	p := instability.NewPipeline()
	events := 0
	p.Events = func(core.Event) { events++ }
	stats, gen, err := instability.RunScenario(workload.SmallConfig(), p)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records == 0 || events != stats.Records {
		t.Fatalf("records %d events %d", stats.Records, events)
	}
	if gen == nil || gen.Topology() == nil {
		t.Fatal("generator not returned")
	}
	if len(p.CensusByDay) != 7 {
		t.Fatalf("censuses %d", len(p.CensusByDay))
	}
	tot := p.Acc.TotalCounts()
	if tot[instability.WWDup] == 0 || tot[instability.WADup] == 0 {
		t.Fatalf("classes missing: %v", tot)
	}
	// The classifier holds the live table.
	c := p.Census()
	if c.Prefixes == 0 {
		t.Fatal("routing table empty")
	}
	if c.Multihomed == 0 {
		t.Fatal("census shows no multihoming")
	}
}

// TestFeedAllocsZero pins the per-record cost of the paper's two repeated
// classes: a duplicate announcement (AADup) and a repeated withdrawal
// (WWDup), each within one day and one detector window, allocate nothing
// through Feed and the detector on its Events hook — the Event never
// escapes to the heap.
func TestFeedAllocsZero(t *testing.T) {
	p := instability.NewPipeline()
	attachDetector(p)
	at := time.Date(1996, 6, 3, 12, 0, 0, 0, time.UTC)
	peer := netaddr.MustParseAddr("192.41.177.1")
	ann := collector.Record{
		Time: at, Type: collector.Announce, PeerAS: 690, PeerAddr: peer,
		Prefix: netaddr.MustParsePrefix("35.0.0.0/8"),
		Attrs:  bgp.Attrs{Path: bgp.PathFromASNs(690, 237), NextHop: peer, Communities: []bgp.Community{0x02b20001}},
	}
	wd := collector.Record{
		Time: at, Type: collector.Withdraw, PeerAS: 690, PeerAddr: peer,
		Prefix: netaddr.MustParsePrefix("141.211.0.0/16"),
	}
	for _, c := range []struct {
		rec   collector.Record
		class core.Class
	}{{ann, core.AADup}, {wd, core.WWDup}} {
		// Two feeds bring the route to the repeated state and create every
		// counter a repeat bumps.
		p.Feed(c.rec)
		p.Feed(c.rec)
		before := p.Acc.TotalCounts()
		p.Feed(c.rec)
		if got := p.Acc.TotalCounts()[c.class] - before[c.class]; got != 1 {
			t.Fatalf("%v record not classified %v: counts %v, then %v", c.rec.Type, c.class, before, p.Acc.TotalCounts())
		}
		if n := testing.AllocsPerRun(200, func() { p.Feed(c.rec) }); n != 0 {
			t.Errorf("Feed of a repeated %v: %v allocs per record, want 0", c.class, n)
		}
	}
}

func TestRunScenarioUnknownExchange(t *testing.T) {
	cfg := workload.SmallConfig()
	cfg.Exchange = "nowhere"
	if _, _, err := instability.RunScenario(cfg, instability.NewPipeline()); err == nil {
		t.Fatal("expected error")
	}
}

func TestLogRoundTripThroughPipeline(t *testing.T) {
	// Generate a scenario to a gzip log file, then classify the file; the
	// results must match the direct pipeline exactly.
	cfg := workload.SmallConfig()
	cfg.Days = 3
	dir := t.TempDir()
	path := filepath.Join(dir, "maeeast.irtl.gz")

	w, err := collector.Create(path, cfg.Exchange)
	if err != nil {
		t.Fatal(err)
	}
	direct := instability.NewPipeline()
	g, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Run(func(rec collector.Record) {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		direct.Feed(rec)
	}, func(day int, end time.Time) {
		direct.EndDay(core.DateOf(end.Add(-time.Second)))
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := collector.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fromLog := instability.NewPipeline()
	n, err := instability.ClassifyLog(r, fromLog)
	if err != nil {
		t.Fatal(err)
	}
	if n != w.Count() {
		t.Fatalf("read %d of %d records", n, w.Count())
	}
	if fromLog.Acc.TotalCounts() != direct.Acc.TotalCounts() {
		t.Fatalf("log pipeline diverges:\n%v\n%v", fromLog.Acc.TotalCounts(), direct.Acc.TotalCounts())
	}
	if len(fromLog.Acc.Dates()) != len(direct.Acc.Dates()) {
		t.Fatal("day counts diverge")
	}
}

func TestTaxonomyReexports(t *testing.T) {
	if instability.AADup.String() != "AADup" || !instability.WWDup.IsPathological() {
		t.Fatal("re-exported taxonomy broken")
	}
	if instability.WADiff.IsPathological() || !instability.WADiff.IsInstability() {
		t.Fatal("predicates broken")
	}
}
