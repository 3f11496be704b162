// Quickstart: generate one simulated week of exchange-point traffic, run it
// through the classifier pipeline, and print the taxonomy breakdown and the
// headline claims of the paper in miniature.
package main

import (
	"fmt"

	"instability"
	"instability/internal/core"
	"instability/internal/report"
	"instability/internal/workload"
)

func main() {
	cfg := workload.SmallConfig()
	cfg.Days = 7

	p := instability.NewPipeline()
	stats, gen, err := instability.RunScenario(cfg, p)
	if err != nil {
		panic(err)
	}

	fmt.Printf("simulated %d days at %s: %d routes, %d update records\n\n",
		stats.Days, cfg.Exchange, gen.Routes(), stats.Records)

	tot := p.Acc.TotalCounts()
	fmt.Println("taxonomy breakdown (the paper's §4 classes):")
	all := 0
	for _, v := range tot {
		all += v
	}
	for _, c := range core.Classes() {
		fmt.Printf("  %-7s %9s  (%.1f%%)\n", c, report.FormatCount(tot[c]), 100*float64(tot[c])/float64(all))
	}

	instab := tot[core.AADiff] + tot[core.WADiff] + tot[core.WADup]
	path := tot[core.AADup] + tot[core.WWDup]
	fmt.Printf("\ninstability %s vs pathological %s — redundant updates dominate, as observed\n",
		report.FormatCount(instab), report.FormatCount(path))

	census := p.Census()
	fmt.Printf("routing table: %d prefixes, %d multihomed (%.0f%%)\n",
		census.Prefixes, census.Multihomed, census.MultihomedShare()*100)
}
