package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"time"

	"instability"
	"instability/internal/core"
	"instability/internal/detect"
	"instability/internal/obs"
	"instability/internal/report"
	"instability/internal/rib"
	"instability/internal/serve"
	"instability/internal/store"
)

// analyzeIDs are bgpanalyze's -id values, in the order -id all prints them.
var analyzeIDs = []string{"summary", "table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}

// Analyze is bgpanalyze: it classifies a collector log and prints the
// paper's tables and figures computed from it — the role the XYZ toolkit
// played for the original study.
//
//	bgpanalyze -in maeeast.irtl.gz                 # summary
//	bgpanalyze -in maeeast.irtl.gz -id fig8        # one figure
//	bgpanalyze -in maeeast.irtl.gz -id all
//	bgpanalyze -store db -from 1996-05-01 -to 1996-06-01 -peer 690 -id fig6
//	bgpanalyze -remote localhost:1791 -from 1996-05-01 -to 1996-06-01 -id fig6
//	bgpanalyze -in attack.irtl.gz -detect -truth truth.json -alert-log alerts.log
//
// The query flags (time window, peer AS, origin AS, prefix) select the slice
// to classify from any of the three sources, with the same answer from each.
// With -in every record of the log is tested; with -store the store's
// indexes skip what the slice does not need. With -remote the query runs
// against a bgpserve instance, whose /v1/records streams the records back as
// an IRTL log in the store's record codec, so the classification is
// bit-identical to opening the store locally. Classification runs in place
// on one goroutine; a gzip log is inflated ahead of it on another.
func Analyze(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, lg := setup("bgpanalyze", stderr)
	var (
		in         = fs.String("in", "", "input log file")
		remote     = fs.String("remote", "", "analyze a query against a bgpserve instance (host:port) instead of a local store")
		token      = fs.String("token", "", "API token for -remote (identifies the tenant for quotas)")
		id         = fs.String("id", "summary", "what to print: summary, table1, fig2..fig10, all")
		day        = fs.String("day", "", "day for table1 (YYYY-MM-DD, default: busiest)")
		detectFlag = fs.Bool("detect", false, "run the streaming anomaly detector over the classified stream and print its alerts")
		truthFile  = fs.String("truth", "", "ground-truth intervals (JSON, from bgpsim -truth-out) to score -detect alerts against")
		alertLog   = fs.String("alert-log", "", "append -detect alerts to this sidecar log (served by bgpserve /v1/alerts)")
	)
	spec := addQueryFlags(fs, originFlag)
	sf := addStoreFlags(fs, "analyze an irtlstore query instead of a log file", blockCacheFlag)
	of := addObsFlags(fs).withTrace(fs, 0)
	if err := parse(fs, args); err != nil {
		return err
	}
	sources := 0
	for _, s := range []string{*in, sf.dir, *remote} {
		if s != "" {
			sources++
		}
	}
	if sources != 1 {
		return usagef("need exactly one of -in, -store, or -remote")
	}
	if !*detectFlag && (*truthFile != "" || *alertLog != "") {
		return usagef("-truth and -alert-log require -detect")
	}
	if *id != "all" && !slices.Contains(analyzeIDs, *id) {
		return usagef("unknown -id %q", *id)
	}
	figs := figureInputs{fig5Seed: 1}
	if *day != "" {
		t, err := time.Parse("2006-01-02", *day)
		if err != nil {
			return usagef("bad -day %q: %v", *day, err)
		}
		figs.table1Day = core.DateOf(t)
	}
	stopObs, err := of.start(lg)
	if err != nil {
		return err
	}
	defer stopObs()
	// With -trace-sample the whole run is one trace: the query (local scan
	// or remote fetch) and the classify stage are children of one root, and
	// with -remote the server's admission/scan/encode spans share its ID.
	ctx, finish := of.root(ctx, "bgpanalyze")
	defer finish()

	var rc *serve.Client
	if *remote != "" {
		rc = &serve.Client{Addr: *remote, Token: *token}
	}
	r, exchangeName, err := openRecords(ctx, lg, *in, sf, rc, *spec)
	if err != nil {
		return err
	}
	defer r.Close()

	p := instability.NewPipeline()
	// Live taxonomy counters: a scrape during a long classify reads the
	// running totals.
	p.Acc.Register(obs.Default())
	var det *detect.Detector
	if *detectFlag {
		det = detect.New(detect.Config{})
		p.Events = det.Add
		p.DayEnd = func(d core.Date) { det.Advance(d.Time().AddDate(0, 0, 1)) }
	}
	_, span := obs.StartChild(ctx, "classify")
	n, err := instability.ClassifyLog(cancellable(ctx, r), p)
	span.AnnotateInt("records", int64(n))
	span.SetError(err)
	span.Finish()
	if err != nil {
		return err
	}
	acc := p.Acc
	fmt.Fprintf(stdout, "classified %d records from %s (%s)\n", n, *in+sf.dir+*remote, exchangeName)
	printIntern(stdout)
	fmt.Fprintln(stdout)

	if det != nil {
		if err := reportAlerts(stdout, det.Finish(), *truthFile, *alertLog); err != nil {
			return err
		}
	}
	if *day == "" {
		figs.table1Day = busiestDay(acc)
	}
	if dates := acc.Dates(); len(dates) > 7 {
		figs.fig4Week = dates[len(dates)/2]
	}
	show := func(id string) {
		if id == "summary" {
			printSummary(stdout, acc, p.Census())
		} else {
			printFigure(stdout, id, acc, p.CensusByDay, figs)
		}
	}
	if *id != "all" {
		show(*id)
		return nil
	}
	for _, id := range analyzeIDs {
		show(id)
		fmt.Fprintln(stdout)
	}
	return nil
}

// figureInputs are what the paper's figures take besides the classified
// stream: the inputs bgpanalyze and experiments choose differently.
type figureInputs struct {
	table1Day core.Date          // Table 1's day
	outages   map[core.Date]bool // days Figs 3 and 9 leave out
	fig4Week  core.Date          // first day of Fig 4's week; zero prints no Fig 4
	fig5Seed  int64              // Fig 5's seed
}

// printFigure prints Table 1 or one of Figs 2–10, named by id, from the
// accumulator and the routing-table census of each day.
func printFigure(w io.Writer, id string, acc *core.Accumulator, censusByDay map[core.Date]rib.Census, in figureInputs) {
	switch id {
	case "table1":
		fmt.Fprintln(w, report.Table1(acc, in.table1Day))
	case "fig2":
		fmt.Fprintln(w, report.Fig2(acc))
	case "fig3":
		fmt.Fprintln(w, report.Fig3(acc, in.outages))
	case "fig4":
		if in.fig4Week != 0 {
			fmt.Fprintln(w, report.Fig4(acc, in.fig4Week))
		}
	case "fig5":
		fmt.Fprintln(w, report.Fig5(acc, in.fig5Seed))
	case "fig6":
		fmt.Fprintln(w, report.Fig6(acc))
	case "fig7":
		fmt.Fprintln(w, report.Fig7(acc))
	case "fig8":
		fmt.Fprintln(w, report.Fig8(acc))
	case "fig9":
		fmt.Fprintln(w, report.Fig9(acc, in.outages))
	case "fig10":
		fmt.Fprintln(w, report.Fig10(censusByDay))
	}
}

// reportAlerts prints the detector's alert stream and, when asked, appends
// it to a sidecar log (the file bgpserve's /v1/alerts serves) and scores it
// against ground-truth intervals written by bgpsim -truth-out.
func reportAlerts(w io.Writer, alerts []detect.Alert, truthFile, alertLog string) error {
	printAlerts(w, alerts)
	if alertLog != "" {
		l, err := store.OpenSidecarLog(alertLog)
		if err != nil {
			return err
		}
		for _, a := range alerts {
			if err := l.Append(a); err != nil {
				l.Close()
				return err
			}
		}
		if err := l.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "appended %d alerts to %s\n", len(alerts), alertLog)
	}
	if truthFile != "" {
		data, err := os.ReadFile(truthFile)
		if err != nil {
			return err
		}
		var truths []detect.Truth
		if err := json.Unmarshal(data, &truths); err != nil {
			return fmt.Errorf("bad truth file %s: %v", truthFile, err)
		}
		fmt.Fprintln(w, detect.Evaluate(alerts, truths, 15*time.Minute))
	}
	fmt.Fprintln(w)
	return nil
}

// printAlerts prints one line per closed alert episode.
func printAlerts(w io.Writer, alerts []detect.Alert) {
	fmt.Fprintf(w, "detector: %d alert episodes\n", len(alerts))
	for _, a := range alerts {
		target := ""
		switch {
		case a.Prefix != "":
			target = fmt.Sprintf(" peer=%d prefix=%s", a.Peer, a.Prefix)
		case a.Peer != 0:
			target = fmt.Sprintf(" peer=%d", a.Peer)
		}
		fmt.Fprintf(w, "  %-6s %s%s %s .. %s windows=%d records=%d peak=%.1f baseline=%.2f\n",
			a.Channel, a.Class, target,
			a.Start.Format("2006-01-02 15:04"), a.End.Format("2006-01-02 15:04"),
			a.Windows, a.Records, a.Peak, a.Baseline)
	}
}

func printSummary(w io.Writer, acc *core.Accumulator, census rib.Census) {
	tot := acc.TotalCounts()
	all := 0
	for _, v := range tot {
		all += v
	}
	fmt.Fprintln(w, "taxonomy breakdown:")
	for _, c := range core.Classes() {
		fmt.Fprintf(w, "  %-7s %12s (%.1f%%)\n", c, report.FormatCount(tot[c]), 100*float64(tot[c])/float64(all))
	}
	instab := core.Instability(tot)
	path := core.Pathological(tot)
	fmt.Fprintf(w, "instability %s, pathological %s (%.1fx)\n",
		report.FormatCount(instab), report.FormatCount(path), float64(path)/float64(max(instab, 1)))
	fmt.Fprintf(w, "final table: %d prefixes, %d multihomed (%.0f%%), %d origin ASes, %d unique paths\n",
		census.Prefixes, census.Multihomed, census.MultihomedShare()*100, census.OriginASes, census.UniquePaths)
}

func busiestDay(acc *core.Accumulator) core.Date {
	var best core.Date
	bestN := -1
	for _, d := range acc.Dates() {
		if n := acc.Days[d].Total(); n > bestN {
			best, bestN = d, n
		}
	}
	return best
}
