package instability_test

import (
	"path/filepath"
	"testing"
	"time"

	"instability"
	"instability/internal/collector"
	"instability/internal/core"
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
