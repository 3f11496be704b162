// Package instability is a library-scale reproduction of "Internet Routing
// Instability" (Labovitz, Malan, Jahanian; SIGCOMM 1997): the update
// taxonomy (WADiff, AADiff, WADup, AADup, WWDup), a streaming classifier, a
// BGP-4 protocol stack with the 1996-era vendor behaviors that generated the
// pathologies, route-server collectors at simulated exchange points, a
// nine-month workload generator, and the statistical machinery (FFT, Burg
// maximum-entropy spectra, singular-spectrum analysis, inter-arrival
// histograms) behind every figure and table in the paper's evaluation.
//
// This root package wires the pieces into the standard measurement pipeline:
// update records flow through the classifier into per-day statistics, and the
// classifier's per-route state is the routing table the census counts (table
// size, multihoming).
// Subsystems live in internal packages; everything a downstream user needs
// is re-exported or reachable from here.
//
// Quick start:
//
//	p := instability.NewPipeline()
//	stats, err := instability.RunScenario(workload.SmallConfig(), p)
//	fmt.Println(p.Acc.TotalCounts())
package instability

import (
	"io"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/rib"
	"instability/internal/workload"
)

// Pipeline is the standard analysis chain: classifier and per-day
// accumulator, with the classifier's routes as the routing table.
type Pipeline struct {
	// Classifier holds per-(peer,prefix) tuple history: the collector's
	// routing table.
	Classifier *core.Classifier
	// Acc aggregates classified events per day.
	Acc *core.Accumulator
	// CensusByDay snapshots the table census at each day end.
	CensusByDay map[core.Date]rib.Census

	// Events, when set, observes every classified event.
	Events func(core.Event)
	// DayEnd, when set, observes every day barrier after the snapshot is
	// taken — the hook point for window-finalizing consumers such as the
	// anomaly detector (detect.Detector.Advance).
	DayEnd func(core.Date)
}

// NewPipeline returns an empty pipeline.
func NewPipeline() *Pipeline {
	return &Pipeline{
		Classifier:  core.NewClassifier(),
		Acc:         core.NewAccumulator(),
		CensusByDay: make(map[core.Date]rib.Census),
	}
}

// Feed classifies one record and folds it into the statistics. The event is
// built once and classified and counted in place.
func (p *Pipeline) Feed(rec collector.Record) core.Event {
	ev := core.Event{Record: rec}
	p.Classifier.ClassifyEvent(&ev)
	p.Acc.AddEvent(&ev)
	if p.Events != nil {
		p.Events(ev)
	}
	return ev
}

// EndDay records the end-of-day routing table snapshot for date.
func (p *Pipeline) EndDay(date core.Date) {
	p.Acc.EndDay(p.Classifier, date)
	p.CensusByDay[date] = p.Census()
	if p.DayEnd != nil {
		p.DayEnd(date)
	}
}

// Census returns the census of the routing table as it stands: every route
// the classifier holds announced.
func (p *Pipeline) Census() rib.Census {
	return rib.MergeCensuses(p.Classifier.PartialCensus())
}

// RunScenario generates the configured workload through the pipeline and
// returns the generator statistics. The pipeline's day snapshots are taken
// automatically.
func RunScenario(cfg workload.Config, p *Pipeline) (workload.Stats, *workload.Generator, error) {
	return runScenario(cfg, func(rec collector.Record) { p.Feed(rec) }, p.EndDay)
}

// runScenario is the one generator→pipeline loop, over either pipeline
// type's Feed and EndDay: every generated day closes under its last second's
// date.
func runScenario(cfg workload.Config, feed func(collector.Record), endDay func(core.Date)) (workload.Stats, *workload.Generator, error) {
	g, err := workload.New(cfg)
	if err != nil {
		return workload.Stats{}, nil, err
	}
	stats := g.Run(feed, func(day int, end time.Time) { endDay(core.DateOf(end.Add(-time.Second))) })
	return stats, g, nil
}

// ClassifyLog streams a collector log (native or MRT) through the pipeline,
// taking a day snapshot at each date boundary. It returns the number of
// records read.
func ClassifyLog(r collector.RecordReader, p *Pipeline) (int, error) {
	return classifyLog(r, func(rec collector.Record) { p.Feed(rec) }, p.EndDay)
}

// classifyLog is the one log→day-barrier loop, over either pipeline type's
// Feed and EndDay.
func classifyLog(r collector.RecordReader, feed func(collector.Record), endDay func(core.Date)) (int, error) {
	n := 0
	var cur core.Date
	haveDay := false
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, err
		}
		d := core.DateOf(rec.Time)
		if haveDay && d != cur {
			endDay(cur)
		}
		cur, haveDay = d, true
		feed(rec)
		n++
	}
	if haveDay {
		endDay(cur)
	}
	return n, nil
}

// Re-exported core vocabulary, so downstream users rarely need the internal
// paths.
type (
	// Record is one logged routing update observation.
	Record = collector.Record
	// Class is a taxonomy bucket.
	Class = core.Class
	// Event is a classified record.
	Event = core.Event
	// PrefixAS is the paper's per-route aggregation key.
	PrefixAS = core.PrefixAS
	// PeerKey identifies an exchange peer.
	PeerKey = core.PeerKey
	// Date is a UTC civil date.
	Date = core.Date
	// ASN is a 16-bit autonomous system number.
	ASN = bgp.ASN
)

// Taxonomy constants.
const (
	Other  = core.Other
	AADiff = core.AADiff
	AADup  = core.AADup
	WADiff = core.WADiff
	WADup  = core.WADup
	WWDup  = core.WWDup
)
