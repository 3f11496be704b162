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
// accumulator, with the classifier's routes as the routing table. A pipeline
// from NewPipeline classifies in place, on the feeder's goroutine; one from
// NewShardedPipeline hands each record to the in-place pipeline of the shard
// that owns its prefix (parallel.go). Either publishes the same Acc and
// CensusByDay from the same stream. Feed, EndDay, Census and Close must be
// called from one goroutine.
type Pipeline struct {
	// Acc aggregates classified events per day. A sharded pipeline's is
	// complete up to its last EndDay or Close.
	Acc *core.Accumulator
	// CensusByDay snapshots the table census at each day end.
	CensusByDay map[core.Date]rib.Census

	// Events, when set before the first Feed, observes every classified
	// event. A sharded pipeline calls it from its shard goroutines:
	// concurrently across prefixes, in stream order within one prefix.
	Events func(core.Event)
	// DayEnd, when set, observes every day barrier on the feeder goroutine
	// after the snapshot is taken and every Events call of the day has
	// returned — the hook point for window-finalizing consumers such as the
	// anomaly detector (detect.Detector.Advance).
	DayEnd func(core.Date)

	// cl holds per-(peer,prefix) tuple history, the collector's routing
	// table; nil when the pipeline is sharded.
	cl *core.Classifier
	// A sharded pipeline's shards and its feeder's state (parallel.go).
	shards  []*shard
	batches [][]collector.Record
	peaks   map[core.Date]*peakTrack
	closed  bool
}

// NewPipeline returns an empty pipeline that classifies in place.
func NewPipeline() *Pipeline {
	return &Pipeline{
		Acc:         core.NewAccumulator(),
		CensusByDay: make(map[core.Date]rib.Census),
		cl:          core.NewClassifier(),
	}
}

// Feed classifies one record and folds it into the statistics. In place, the
// event is built once and classified and counted through a pointer.
func (p *Pipeline) Feed(rec collector.Record) {
	if p.shards != nil {
		p.route(rec)
		return
	}
	ev := core.Event{Record: rec}
	p.cl.ClassifyEvent(&ev)
	p.Acc.AddEvent(&ev)
	if p.Events != nil {
		p.Events(ev)
	}
}

// EndDay records the end-of-day routing table snapshot for date. A sharded
// pipeline makes it a barrier: every shard closes the day on its share of
// the prefixes, and the shares merge into what one in-place pipeline holds.
func (p *Pipeline) EndDay(date core.Date) {
	if p.shards != nil {
		p.CensusByDay[date] = rib.MergeCensuses(p.barrier(true, date)...)
	} else {
		p.CensusByDay[date] = rib.MergeCensuses(p.closeDay(date))
	}
	if p.DayEnd != nil {
		p.DayEnd(date)
	}
}

// closeDay closes date in an in-place pipeline's accumulator and returns its
// table's partial census: the whole census in place, one shard's share of
// it at a barrier.
func (p *Pipeline) closeDay(date core.Date) rib.PartialCensus {
	p.Acc.EndDay(p.cl, date)
	return p.cl.PartialCensus()
}

// Census returns the census of the routing table as it stands: every route
// the classifier holds announced. A sharded pipeline reads its shards' live
// tables, so call it only after EndDay or Close.
func (p *Pipeline) Census() rib.Census {
	if p.shards == nil {
		return rib.MergeCensuses(p.cl.PartialCensus())
	}
	parts := make([]rib.PartialCensus, len(p.shards))
	for i, sh := range p.shards {
		parts[i] = sh.p.cl.PartialCensus()
	}
	return rib.MergeCensuses(parts...)
}

// RunScenario generates the configured workload through the pipeline and
// returns the generator statistics. Every generated day closes with EndDay
// under its last second's date. The caller still owns p and closes it.
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
// records read. The caller still owns p and closes it.
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
