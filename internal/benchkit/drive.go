package benchkit

import (
	"fmt"
	"runtime"
	"time"
)

// passOut is what one pass of a workload measured.
type passOut struct {
	wall    float64 // seconds in the timed section
	records int64   // campaign records completed in it
	ops     int64   // unit operations completed in it
	// opWall is the time spent in the unit operations when they are only
	// part of the timed section (the selective queries of a list that also
	// scans); zero means wall.
	opWall float64
	// rates holds records/s samples when throughput is sampled per scan
	// rather than per pass.
	rates []float64
	// opMs is the pass's unit-operation latencies, filled in by measure.
	opMs Samples
}

// workloadRun is one workload bound to a set-up.
type workloadRun interface {
	// pass runs the workload once: tr and root are nil on an untraced
	// pass; s takes the pass's latencies and sums; r takes its checks.
	pass(tr *Tracer, root *ActiveSpan, s *sampleSet, r *run) (passOut, error)
	// layers turns the traced passes' samples and spans into per-layer
	// metrics.
	layers(r *run, s *sampleSet, tot map[string]SpanTotals, outs []passOut)
	close() error
}

// spec is the static description of a workload: what it needs set up, how
// many untimed warm-up passes let caches fill and lazy set-up finish, and
// how many timed passes it runs when no time budget is given.
type spec struct {
	needs  needs
	warm   int
	passes int
	open   func(*env, *run) (workloadRun, error)
}

var specs = map[string]spec{
	WAnalyze:   {needs{}, 1, 5, openAnalyze},
	WIngest:    {needs{oracle: true}, 1, 4, openIngest},
	WQueryCold: {needs{oracle: true, store: true, cold: true}, 1, 1, openQueryCold},
	WQueryWarm: {needs{oracle: true, store: true, hot: true}, 1, 5, openQueryWarm},
	WServe:     {needs{oracle: true, store: true, hot: true}, 1, 5, openServe},
	WLive:      {needs{}, 1, 4, openLive},
	WMixed:     {needs{mixed: true}, 1, 3, openMixed},
}

// passes calls fn until the measurement budget is spent: exactly fixed
// times when o.Seconds is zero (the counts are sized for the full campaign),
// else the whole number of passes whose total comes nearest o.Seconds, and on
// past it while few (when set) says the passes so far hold too few samples.
// Rounding to the nearest keeps a run that ends a moment short of the budget
// from paying for one more whole pass. fn always runs at least once.
//
// The collector runs before every pass, outside its timing. The campaign is
// half a gigabyte of the harness's own heap; a collection of it that falls
// into one pass of five slows a quarter of that pass's operations, which is
// the 95th percentile of the run. Starting every pass from a collected heap
// leaves inside the pass only the collections its own allocation causes.
func (o Options) passes(fixed int, few func() bool, fn func() error) error {
	var spent time.Duration
	for i := 1; ; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return err
		}
		spent += time.Since(t0)
		if o.Seconds > 0 {
			half := spent.Seconds() / float64(i) / 2
			if spent.Seconds()+half >= o.Seconds && (few == nil || !few()) {
				return nil
			}
		} else if i >= fixed {
			return nil
		}
	}
}

// tailPercentile is the percentile op_ms_p95 names. The reporting rule
// (TailPercentile) must allow it: a run goes on until it holds the 200
// operations that put ten samples beyond the 95th percentile.
const tailPercentile = 0.95

// measure runs workload name against e and fills r: untraced for the
// end-to-end metrics when tr is nil, else traced for the per-layer ones. The
// traced run alternates untraced and traced passes, so the two walls it
// compares are taken under the same conditions.
func measure(e *env, name string, r *run, tr *Tracer) (err error) {
	sp, ok := specs[name]
	if !ok {
		return fmt.Errorf("benchkit: unknown workload %q", name)
	}
	w, err := sp.open(e, r)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := w.close(); err == nil {
			err = cerr
		}
	}()

	for i := 0; i < sp.warm; i++ {
		if _, err := w.pass(nil, nil, newSampleSet(), r); err != nil {
			return err
		}
	}
	var outs []passOut
	if tr == nil {
		ops := 0
		few := func() bool { return TailPercentile(ops) < tailPercentile }
		err := e.opts.passes(sp.passes, few, func() error {
			s := newSampleSet()
			out, err := w.pass(nil, nil, s, r)
			out.opMs = s.get("op_ms")
			ops += len(out.opMs)
			outs = append(outs, out)
			e.opts.logf("%s pass %d: %.2fs, %d records, %d ops, p95 %.3f ms", name, len(outs), out.wall, out.records, out.ops, out.opMs.Quantile(tailPercentile))
			return err
		})
		if err != nil {
			return err
		}
		endToEnd(e, r, outs)
		return nil
	}
	s := newSampleSet()

	var plain, traced Samples
	err = e.opts.passes(1, nil, func() error {
		out, err := w.pass(nil, nil, newSampleSet(), r)
		if err != nil {
			return err
		}
		plain.Add(out.wall)
		before := readObs()
		root := tr.Start(nil, passSpan)
		out, err = w.pass(tr, root, s, r)
		root.End(out.records)
		foldObs(s, before)
		traced.Add(out.wall)
		outs = append(outs, out)
		return err
	})
	if err != nil {
		return err
	}
	for _, m := range PerLayer {
		r.set(m.Name, 0, 0)
	}
	ops := s.get("op_ms")
	r.set("op_ms_p50", ops.Median(), len(ops))
	tot := tr.Totals()
	w.layers(r, s, tot, outs)
	var self time.Duration
	for _, d := range LayerSelf(tot) {
		self += d
	}
	r.set("trace.coverage", share(self.Seconds(), plain.Median()*float64(len(outs))), len(outs))
	r.set("obs.trace_overhead_share", traced.Median()/plain.Median()-1, len(outs))
	r.set("failed_share", share(float64(r.failed), float64(r.attempted)), int(r.attempted))
	return nil
}

// endToEnd fills the end-to-end metrics from the untraced passes. The rates
// are the median over passes of the pass's own figure, so one pass that
// shared the host with something else moves nothing. The tail latency is
// read from the operations of all passes pooled: a pass alone may hold too
// few for the reporting rule, and a median of small-sample percentiles is
// noisier than one percentile of the pool.
func endToEnd(e *env, r *run, outs []passOut) {
	var rates, opRates, opMs Samples
	for _, o := range outs {
		opMs = append(opMs, o.opMs...)
		if len(o.rates) > 0 {
			rates = append(rates, o.rates...)
		} else {
			rates.Add(share(float64(o.records), o.wall))
		}
		opWall := o.opWall
		if opWall == 0 {
			opWall = o.wall
		}
		opRates.Add(share(float64(o.ops), opWall))
	}
	r.set("setup_s", e.setupSeconds, 1)
	r.set("records_per_s", rates.Median(), len(rates))
	r.set("ops_per_s", opRates.Median(), len(opRates))
	r.set("op_ms_p95", opMs.Quantile(tailPercentile), len(opMs))
}
