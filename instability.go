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
//	stats, _, err := instability.RunScenario(workload.SmallConfig(), p)
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
// accumulator, with the classifier's routes as the routing table. It
// classifies in place, on the caller's goroutine; Feed, EndDay and Census
// must be called from one goroutine.
type Pipeline struct {
	// Acc aggregates classified events per day.
	Acc *core.Accumulator
	// CensusByDay snapshots the table census at each day end.
	CensusByDay map[core.Date]rib.Census

	// Events, when set, observes every classified event, in stream order.
	Events func(core.Event)
	// DayEnd, when set, observes every day end after the snapshot is
	// taken — the hook point for window-finalizing consumers such as the
	// anomaly detector (detect.Detector.Advance).
	DayEnd func(core.Date)

	// cl holds per-(peer,prefix) tuple history, the collector's routing
	// table.
	cl *core.Classifier
}

// NewPipeline returns an empty pipeline.
func NewPipeline() *Pipeline {
	return &Pipeline{
		Acc:         core.NewAccumulator(),
		CensusByDay: make(map[core.Date]rib.Census),
		cl:          core.NewClassifier(),
	}
}

// Feed classifies one record and folds it into the statistics. The event is
// built once and classified and counted through a pointer.
func (p *Pipeline) Feed(rec collector.Record) {
	ev := core.Event{Record: rec}
	p.cl.ClassifyEvent(&ev)
	p.Acc.AddEvent(&ev)
	if p.Events != nil {
		p.Events(ev)
	}
}

// EndDay closes date in the accumulator and records the end-of-day routing
// table census for it.
func (p *Pipeline) EndDay(date core.Date) {
	p.Acc.EndDay(p.cl, date)
	p.CensusByDay[date] = p.cl.Census()
	if p.DayEnd != nil {
		p.DayEnd(date)
	}
}

// Census returns the census of the routing table as it stands: every route
// the classifier holds announced.
func (p *Pipeline) Census() rib.Census { return p.cl.Census() }

// RunScenario generates the configured workload through the pipeline and
// returns the generator statistics. Every generated day closes with EndDay
// under its last second's date.
func RunScenario(cfg workload.Config, p *Pipeline) (workload.Stats, *workload.Generator, error) {
	g, err := workload.New(cfg)
	if err != nil {
		return workload.Stats{}, nil, err
	}
	stats := g.Run(p.Feed, func(day int, end time.Time) { p.EndDay(core.DateOf(end.Add(-time.Second))) })
	return stats, g, nil
}

// ClassifyLog streams a collector log (native or MRT) through the pipeline,
// taking a day snapshot at each date boundary. It returns the number of
// records read.
func ClassifyLog(r collector.RecordReader, p *Pipeline) (int, error) {
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
			p.EndDay(cur)
		}
		cur, haveDay = d, true
		p.Feed(rec)
		n++
	}
	if haveDay {
		p.EndDay(cur)
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
