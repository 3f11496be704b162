package instability_test

import (
	"fmt"
	"time"

	"instability"
	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/netaddr"
	"instability/internal/report"
	"instability/internal/workload"
)

// Example classifies a tiny hand-built update stream: a first announcement,
// an exact duplicate (AADup), a withdrawal, an identical re-announcement
// (WADup), and a spurious withdrawal from a peer that never announced the
// prefix (WWDup) — the paper's §4 taxonomy in five records.
func Example() {
	t0 := time.Date(1996, 8, 1, 12, 0, 0, 0, time.UTC)
	peerX := netaddr.MustParseAddr("198.32.186.1")
	peerY := netaddr.MustParseAddr("198.32.186.7")
	prefix := netaddr.MustParsePrefix("192.42.113.0/24")
	attrs := bgp.Attrs{
		Origin:  bgp.OriginIGP,
		Path:    bgp.PathFromASNs(690, 237),
		NextHop: peerX,
	}

	stream := []instability.Record{
		{Time: t0, Type: collector.Announce, PeerAS: 690, PeerAddr: peerX, Prefix: prefix, Attrs: attrs},
		{Time: t0.Add(30 * time.Second), Type: collector.Announce, PeerAS: 690, PeerAddr: peerX, Prefix: prefix, Attrs: attrs},
		{Time: t0.Add(60 * time.Second), Type: collector.Withdraw, PeerAS: 690, PeerAddr: peerX, Prefix: prefix},
		{Time: t0.Add(90 * time.Second), Type: collector.Announce, PeerAS: 690, PeerAddr: peerX, Prefix: prefix, Attrs: attrs},
		{Time: t0.Add(91 * time.Second), Type: collector.Withdraw, PeerAS: 701, PeerAddr: peerY, Prefix: prefix},
	}

	p := instability.NewPipeline()
	p.Events = func(ev instability.Event) {
		fmt.Printf("%-4s from %s -> %s\n", ev.Record.Type, ev.Record.PeerAS, ev.Class)
	}
	for _, rec := range stream {
		p.Feed(rec)
	}
	// Output:
	// A    from AS690 -> Other
	// A    from AS690 -> AADup
	// W    from AS690 -> Other
	// A    from AS690 -> WADup
	// W    from AS701 -> WWDup
}

// ExampleRunScenario generates one simulated week of exchange-point
// traffic, runs it through the classifier pipeline, and prints the
// taxonomy breakdown and the paper's headline claims in miniature.
func ExampleRunScenario() {
	cfg := workload.SmallConfig()
	cfg.Days = 7

	p := instability.NewPipeline()
	stats, gen, err := instability.RunScenario(cfg, p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("simulated %d days at %s: %d routes, %d update records\n",
		stats.Days, cfg.Exchange, gen.Routes(), stats.Records)

	tot := p.Acc.TotalCounts()
	all := 0
	for _, v := range tot {
		all += v
	}
	for _, c := range core.Classes() {
		fmt.Printf("%-7s %6s  (%.1f%%)\n", c, report.FormatCount(tot[c]), 100*float64(tot[c])/float64(all))
	}

	fmt.Printf("instability %s vs pathological %s\n",
		report.FormatCount(core.Instability(tot)), report.FormatCount(core.Pathological(tot)))

	census := p.Census()
	fmt.Printf("routing table: %d prefixes, %d multihomed (%.0f%%)\n",
		census.Prefixes, census.Multihomed, census.MultihomedShare()*100)
	// Output:
	// simulated 7 days at Mae-East: 448 routes, 7056 update records
	// AADiff     599  (8.5%)
	// WADiff      90  (1.3%)
	// WADup      343  (4.9%)
	// AADup    1,235  (17.5%)
	// WWDup    3,895  (55.2%)
	// Other      894  (12.7%)
	// instability 1,032 vs pathological 5,130
	// routing table: 266 prefixes, 135 multihomed (51%)
}
