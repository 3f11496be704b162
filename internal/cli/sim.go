package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"instability/internal/collector"
	"instability/internal/workload"
)

// Sim is bgpsim: it runs a measurement scenario and writes the observed
// update stream as a collector log (gzip-compressed when the output name
// ends in .gz; RFC 6396 MRT when it ends in .mrt or .mrt.gz) — the synthetic
// stand-in for the Routing Arbiter archive.
//
//	bgpsim -out maeeast.irtl.gz -days 214 -scale paper
//	bgpsim -out week.irtl -days 7 -scale small -seed 7
//	bgpsim -out attack.irtl.gz -scale small -adversary hijack,worm -truth-out truth.json
func Sim(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, _ := setup("bgpsim", stderr)
	var (
		out      = fs.String("out", "updates.irtl.gz", "output log file (.gz for compression, .mrt or .mrt.gz for MRT)")
		days     = fs.Int("days", 0, "override scenario length in days")
		seed     = fs.Int64("seed", 0, "override random seed")
		exchange = fs.String("exchange", "", "exchange point (Mae-East, Sprint, AADS, PacBell, Mae-West)")
		scale    = fs.String("scale", "paper", "scenario scale: paper (7 months) or small (1 week)")
		advSpec  = fs.String("adversary", "", "inject adversarial scenarios on consecutive days: comma-separated hijack|leak|poison|storm|worm, or all")
		truthOut = fs.String("truth-out", "", "write the injected episodes' ground-truth intervals as JSON (for bgpanalyze -detect -truth)")
		quiet    = fs.Bool("q", false, "suppress progress output")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	var cfg workload.Config
	switch *scale {
	case "paper":
		cfg = workload.DefaultConfig()
	case "small":
		cfg = workload.SmallConfig()
	default:
		return usagef("unknown -scale %q", *scale)
	}
	if *days > 0 {
		cfg.Days = *days
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *exchange != "" {
		cfg.Exchange = *exchange
	}
	if *advSpec != "" {
		names := strings.Split(*advSpec, ",")
		if *advSpec == "all" {
			names = names[:0]
			for _, k := range workload.AdversaryScenarios {
				names = append(names, k.String())
			}
		}
		kinds := make([]workload.IncidentKind, len(names))
		for i, name := range names {
			kind, err := workload.ParseScenario(strings.TrimSpace(name))
			if err != nil {
				return usageError{err: err}
			}
			kinds[i] = kind
		}
		for i, inc := range workload.AdversaryIncidents(kinds) {
			if inc.Day >= cfg.Days {
				return usagef("-adversary %s lands on day %d but the scenario has only %d days; raise -days", names[i], inc.Day, cfg.Days)
			}
			cfg.Incidents = append(cfg.Incidents, inc)
		}
	} else if *truthOut != "" {
		return usagef("-truth-out requires -adversary")
	}

	g, err := workload.New(cfg)
	if err != nil {
		return err
	}
	var w interface {
		Write(collector.Record) error
		Close() error
		Count() int
	}
	if strings.HasSuffix(*out, ".mrt") || strings.HasSuffix(*out, ".mrt.gz") {
		w, err = collector.CreateMRT(*out)
	} else {
		w, err = collector.Create(*out, cfg.Exchange)
	}
	if err != nil {
		return err
	}
	start := time.Now()
	ctx, stopRun := context.WithCancel(ctx) // a failed write stops the run too
	defer stopRun()
	var werr error
	stats, err := g.RunContext(ctx, func(rec collector.Record) {
		if werr == nil {
			if werr = w.Write(rec); werr != nil {
				stopRun()
			}
		}
	}, func(day int, end time.Time) {
		if !*quiet && (day+1)%30 == 0 {
			fmt.Fprintf(stderr, "  ... %d/%d days, %d records\n", day+1, cfg.Days, w.Count())
		}
	})
	if cerr := w.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	if *truthOut != "" {
		data, err := json.MarshalIndent(g.GroundTruth(), "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*truthOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
		if !*quiet {
			fmt.Fprintf(stdout, "wrote %d ground-truth intervals to %s\n", len(g.GroundTruth()), *truthOut)
		}
	}
	if !*quiet {
		fmt.Fprintf(stdout, "wrote %d records (%d routes at %s, %d days) to %s in %v\n",
			stats.Records, g.Routes(), cfg.Exchange, stats.Days, *out, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
