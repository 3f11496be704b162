package benchkit

import (
	"fmt"
	"time"

	"instability"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/detect"
	"instability/internal/rib"
)

// analyze is the paper-reproduction path: the whole campaign through a fresh
// Pipeline with the detector on its hooks, as cmd/bgpanalyze wires them.
type analyze struct {
	e *env
	// The first pass's outputs; every later pass, staged or not, must
	// reproduce them.
	have   bool
	totals [core.NumClasses]int
	alerts string
}

func openAnalyze(e *env, _ *run) (workloadRun, error) { return &analyze{e: e}, nil }

func (a *analyze) close() error { return nil }

func (a *analyze) pass(tr *Tracer, root *ActiveSpan, s *sampleSet, r *run) (passOut, error) {
	if tr != nil {
		return a.staged(tr, root, s, r)
	}
	c := a.e.camp
	p := instability.NewPipeline()
	det := detect.New(detect.Config{})
	p.Events = det.Add
	p.DayEnd = func(d core.Date) { det.Advance(d.Time().AddDate(0, 0, 1)) }
	// The unit operation is a chunk of consecutive records, day ends
	// included where they fall: days differ in size by a factor of ten, so
	// a per-day latency would measure the calendar.
	var ops int64
	t0 := time.Now()
	tc, n := t0, 0
	for d := 0; d < c.Days(); d++ {
		for _, rec := range c.Day(d) {
			p.Feed(rec)
			if n++; n == chunkRecords {
				now := time.Now()
				s.add("op_ms", ms(now.Sub(tc)))
				tc, n = now, 0
				ops++
			}
		}
		p.EndDay(c.Date(d))
	}
	alerts := det.Finish()
	wall := time.Since(t0).Seconds()
	a.verify(r, p.Acc.TotalCounts(), alerts)
	return passOut{wall: wall, records: int64(len(c.Recs)), ops: ops}, nil
}

// verify checks the pass's outputs: every record classified, and the class
// totals and alert list identical to the first pass's.
func (a *analyze) verify(r *run, totals [core.NumClasses]int, alerts []detect.Alert) {
	r.op(int64(len(a.e.camp.Recs)))
	sum := 0
	for _, n := range totals {
		sum += n
	}
	r.check(sum == len(a.e.camp.Recs), "analyze: class totals sum to %d, campaign has %d records", sum, len(a.e.camp.Recs))
	rendered := fmt.Sprintf("%+v", alerts)
	if !a.have {
		a.have, a.totals, a.alerts = true, totals, rendered
		return
	}
	r.check(totals == a.totals, "analyze: class totals differ between passes: %v vs %v", totals, a.totals)
	r.check(rendered == a.alerts, "analyze: alert list differs between passes")
}

// staged is the traced pass. Feed and EndDay cannot be opened from outside,
// so it makes the same calls they make, a simulated day at a stage: classify
// the day, accumulate its events, mirror it into the RIB, feed the detector,
// then the three day-end calls. One span per (stage, day); verify proves the
// staging computes what the pipeline computes.
func (a *analyze) staged(tr *Tracer, root *ActiveSpan, s *sampleSet, r *run) (passOut, error) {
	c := a.e.camp
	cl := core.NewClassifier()
	acc := core.NewAccumulator()
	table := rib.New(0)
	det := detect.New(detect.Config{})
	var evs []core.Event
	stage := func(name string, n int, fn func()) time.Duration {
		sp := tr.Start(root, name)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		sp.End(int64(n))
		return d
	}
	t0 := time.Now()
	for d := 0; d < c.Days(); d++ {
		recs, date := c.Day(d), c.Date(d)
		evs = evs[:0]
		a0 := allocBytes()
		stage("core.classify", len(recs), func() {
			for _, rec := range recs {
				evs = append(evs, cl.Classify(rec))
			}
		})
		stage("core.accumulate", len(evs), func() {
			for _, ev := range evs {
				acc.Add(ev)
			}
		})
		s.sum("core.alloc_bytes", allocBytes()-a0)
		stage("rib.update", len(recs), func() {
			for _, rec := range recs {
				peer := rib.PeerID{AS: rec.PeerAS, ID: rec.PeerAddr}
				switch rec.Type {
				case collector.Announce:
					table.Update(peer, rec.Prefix, rec.Attrs)
				case collector.Withdraw:
					table.Withdraw(peer, rec.Prefix)
				}
			}
		})
		stage("detect.add", len(evs), func() {
			for _, ev := range evs {
				det.Add(ev)
			}
		})
		s.add("core.endday_ms", ms(stage("core.endday", 1, func() { acc.EndDay(cl, date) })))
		s.add("rib.census_ms", ms(stage("rib.census", 1, func() { table.TakeCensus() })))
		s.add("detect.advance_ms", ms(stage("detect.advance", 1, func() { det.Advance(date.Time().AddDate(0, 0, 1)) })))
	}
	var alerts []detect.Alert
	stage("detect.finish", 1, func() { alerts = det.Finish() })
	wall := time.Since(t0).Seconds()
	cl.Interner().FlushStats()
	s.sum("detect.alerts", float64(len(alerts)))
	a.verify(r, acc.TotalCounts(), alerts)
	return passOut{wall: wall, records: int64(len(c.Recs)), ops: int64(len(c.Recs) / chunkRecords)}, nil
}

func (a *analyze) layers(r *run, s *sampleSet, tot map[string]SpanTotals, outs []passOut) {
	perCount := func(metric, span string) {
		st := tot[span]
		r.set(metric, share(float64(st.Total.Nanoseconds()), float64(st.Count)), st.Spans)
	}
	perCount("core.classify_ns_per_record", "core.classify")
	perCount("core.accumulate_ns_per_record", "core.accumulate")
	perCount("rib.update_ns_per_record", "rib.update")
	perCount("detect.add_ns_per_event", "detect.add")
	for _, m := range []string{"core.endday_ms", "rib.census_ms", "detect.advance_ms"} {
		r.set(m+"_p50", s.get(m).Median(), len(s.get(m)))
	}
	r.set("core.alloc_bytes_per_record", share(s.sums["core.alloc_bytes"], float64(tot["core.classify"].Count)), len(outs))
	r.set("detect.alerts", s.sums["detect.alerts"]/float64(len(outs)), len(outs))
	internLayers(r, s, len(outs))
}

// internLayers reads the attribute interner's share of the traced passes.
func internLayers(r *run, s *sampleSet, passes int) {
	hits, misses := s.sums["irtl_intern_hits_total"], s.sums["irtl_intern_misses_total"]
	r.set("intern.hit_share", share(hits, hits+misses), passes)
	r.set("intern.unique_attrs", misses/float64(passes), passes)
}
