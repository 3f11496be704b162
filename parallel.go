package instability

import (
	"runtime"
	"strconv"
	"sync"
	"time"

	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/obs"
	"instability/internal/rib"
	"instability/internal/workload"
)

// ParallelPipeline is the sharded form of Pipeline: records are
// hash-partitioned by prefix across N worker shards, each a private serial
// Pipeline (Classifier, Accumulator) fed through a bounded channel in
// multi-record batches. One key is enough: classification history never
// crosses a (peer, prefix) key and a census never splits a prefix, and
// equal prefixes always share a shard, so the shards share nothing on the
// hot path; EndDay is the only barrier, where per-shard day statistics are
// merged so the published results are identical to what the serial
// Pipeline produces from the same stream.
//
// Each shard's Classifier owns a private attribute/path interner, so the
// hot path stays lock-free. Interned IDs are therefore shard-local;
// MergeCensuses remaps each shard's path IDs through a fresh table at the
// barrier, which is order-independent because interning is content-addressed
// — the serial/parallel bit-for-bit contract is unaffected.
//
// The feeder side (Feed, EndDay, Sync, Close) must be used from one
// goroutine, exactly like the serial Pipeline. The Events hook, when set,
// runs on shard goroutines: it is called concurrently, in stream order
// within one prefix only.
type ParallelPipeline struct {
	// Acc holds the merged per-day statistics. It is complete up to the
	// last EndDay/Close barrier; between barriers, newly fed records live
	// in the shards' private accumulators.
	Acc *core.Accumulator
	// CensusByDay snapshots the merged table census at each day end.
	CensusByDay map[core.Date]rib.Census
	// Events, when set before the first Feed, observes every classified
	// event. Called from shard goroutines: concurrently across prefixes, in
	// stream order within one prefix.
	Events func(core.Event)
	// DayEnd, when set, observes every day barrier on the feeder
	// goroutine, after all shards have drained the day's events — the
	// hook point for window-finalizing consumers such as the anomaly
	// detector (every Events call for the day happens-before DayEnd).
	DayEnd func(core.Date)

	shards  []*shard
	batches [][]collector.Record
	peaks   map[core.Date]*peakTrack
	closed  bool
}

// ParallelConfig tunes a ParallelPipeline. The zero value is usable.
type ParallelConfig struct {
	// Shards is the number of worker shards. Default GOMAXPROCS.
	Shards int
}

const (
	// batchSize is the number of records buffered per shard before the
	// batch is handed to the shard's channel; batching amortizes channel
	// and scheduling overhead across the hot per-record work.
	batchSize = 256
	// queueBatches is the per-shard channel capacity in batches (the bound
	// on in-flight work, and the backpressure point).
	queueBatches = 4
)

// shardMsg is either a data batch (recs != nil) or, at a barrier, a function
// to run on the shard's goroutine against its pipeline once every batch sent
// before it has been fed.
type shardMsg struct {
	recs []collector.Record
	do   func(*Pipeline)
}

// shard is one worker: a serial Pipeline over the shard's share of the
// prefixes, plus the channel that feeds it.
type shard struct {
	p    *Pipeline
	in   chan shardMsg
	done chan struct{}
}

// peakTrack reproduces the serial Accumulator's burst accounting on the
// undivided stream: PeakSecond is the one statistic a shard cannot compute
// locally (each shard sees only its share of any second), so the feeder —
// which still sees every record in time order — tracks it exactly and
// patches it over the merged per-day stats.
type peakTrack struct {
	curSec int64
	cur    int
	peak   int
}

// Parallel pipeline instrumentation.
var (
	obsParShards = obs.Default().Gauge("irtl_parallel_shards",
		"Worker shards of the most recently created parallel pipeline.")
	obsParBatches = obs.Default().Counter("irtl_parallel_batches_total",
		"Record batches dispatched to pipeline shards.")
	obsParBatchRecords = obs.Default().Histogram("irtl_parallel_batch_records",
		"Records per dispatched batch.",
		[]float64{1, 4, 16, 64, 128, 256, 512, 1024})
	obsParMergeWait = obs.Default().Histogram("irtl_parallel_merge_wait_seconds",
		"Feeder wait at the EndDay barrier, from first flush to last shard handoff.", nil)
	obsParMerge = obs.Default().Histogram("irtl_parallel_merge_seconds",
		"Time to merge all shard accumulators into the master at a barrier.", nil)
)

// NewParallelPipeline returns a running sharded pipeline. Close must be
// called to stop the shard goroutines (Close also performs a final merge).
func NewParallelPipeline(cfg ParallelConfig) *ParallelPipeline {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	pp := &ParallelPipeline{
		Acc:         core.NewAccumulator(),
		CensusByDay: make(map[core.Date]rib.Census),
		shards:      make([]*shard, cfg.Shards),
		batches:     make([][]collector.Record, cfg.Shards),
		peaks:       make(map[core.Date]*peakTrack),
	}
	obsParShards.SetInt(int64(cfg.Shards))
	for i := range pp.shards {
		sh := &shard{
			p:    NewPipeline(),
			in:   make(chan shardMsg, queueBatches),
			done: make(chan struct{}),
		}
		pp.shards[i] = sh
		// Queue depth is read at exposition time, so a scrape during a
		// replay shows where backpressure sits without touching the feeder.
		obs.Default().GaugeFunc("irtl_parallel_queue_depth",
			"Batches queued per pipeline shard.",
			func() float64 { return float64(len(sh.in)) },
			obs.L("shard", strconv.Itoa(i)))
		go sh.run(pp)
	}
	return pp
}

// run is the shard worker loop. It owns the shard's pipeline exclusively
// between barriers, and what happens to a record is Pipeline.Feed — nothing
// here repeats it. pp.Events is picked up per batch: the write in the feeder
// happens before the batch send, which happens before this read, so the hook
// may be assigned any time up to the first Feed.
func (sh *shard) run(pp *ParallelPipeline) {
	defer close(sh.done)
	for msg := range sh.in {
		if msg.recs != nil {
			sh.p.Events = pp.Events
			for _, rec := range msg.recs {
				sh.p.Feed(rec)
			}
			batchPool.Put(msg.recs[:0])
			continue
		}
		msg.do(sh.p)
	}
}

// batchPool recycles record batch slices between the feeder and the shard
// workers, so steady-state feeding allocates nothing per batch.
var batchPool = sync.Pool{New: func() any { return []collector.Record(nil) }}

func getBatch(n int) []collector.Record {
	b := batchPool.Get().([]collector.Record)
	if cap(b) < n {
		b = make([]collector.Record, 0, n)
	}
	return b
}

// Feed routes one record to the shard that owns its prefix. Results become
// visible in Acc at the next EndDay or Close barrier.
func (pp *ParallelPipeline) Feed(rec collector.Record) {
	pp.trackPeak(rec)
	pp.route(core.PrefixShardOf(rec.Prefix, len(pp.shards)), rec)
}

// route appends one record to shard i's pending batch, dispatching the batch
// when full.
func (pp *ParallelPipeline) route(i int, rec collector.Record) {
	if pp.batches[i] == nil {
		pp.batches[i] = getBatch(batchSize)
	}
	pp.batches[i] = append(pp.batches[i], rec)
	if len(pp.batches[i]) >= batchSize {
		pp.dispatch(i)
	}
}

// dispatch hands shard i's pending batch to its channel.
func (pp *ParallelPipeline) dispatch(i int) {
	b := pp.batches[i]
	if len(b) == 0 {
		return
	}
	obsParBatches.Inc()
	obsParBatchRecords.Observe(float64(len(b)))
	pp.batches[i] = nil
	pp.shards[i].in <- shardMsg{recs: b}
}

// Flush dispatches all partially filled batches without a barrier.
func (pp *ParallelPipeline) Flush() {
	for i := range pp.shards {
		pp.dispatch(i)
	}
}

// trackPeak maintains the exact per-day peak-second count on the undivided
// stream (see peakTrack).
func (pp *ParallelPipeline) trackPeak(rec collector.Record) {
	sec := rec.Time.Unix()
	d := core.DateOf(rec.Time)
	pk := pp.peaks[d]
	if pk == nil {
		pk = &peakTrack{}
		pp.peaks[d] = pk
	}
	if sec != pk.curSec {
		pk.curSec, pk.cur = sec, 0
	}
	pk.cur++
	if pk.cur > pk.peak {
		pk.peak = pk.cur
	}
}

// barrier flushes pending batches, takes every shard's accumulator (for
// endDay, closed for day and with the shard's partial census), merges them
// into Acc, and patches the exact peak-second counts. Each shard does its
// share on its own goroutine; a barrier is not Pipeline.EndDay, because the
// shard's census is partial (MergeCensuses finishes it) and its accumulator
// changes hands — ownership passes to the feeder, so the merge runs without
// locks.
func (pp *ParallelPipeline) barrier(endDay bool, day core.Date) []rib.PartialCensus {
	pp.Flush()
	t0 := time.Now()
	accs := make([]*core.Accumulator, len(pp.shards))
	parts := make([]rib.PartialCensus, len(pp.shards))
	var wg sync.WaitGroup
	wg.Add(len(pp.shards))
	for i, sh := range pp.shards {
		sh.in <- shardMsg{do: func(p *Pipeline) {
			defer wg.Done()
			if endDay {
				p.Acc.EndDay(p.Classifier, day)
				parts[i] = p.Classifier.PartialCensus()
			}
			accs[i], p.Acc = p.Acc, core.NewAccumulator()
		}}
	}
	wg.Wait()
	obsParMergeWait.ObserveSince(t0)
	t1 := time.Now()
	for _, acc := range accs {
		pp.Acc.Merge(acc)
	}
	for d, pk := range pp.peaks {
		if ds := pp.Acc.Days[d]; ds != nil {
			ds.PeakSecond = pk.peak
		}
	}
	obsParMerge.ObserveSince(t1)
	return parts
}

// EndDay is the serial Pipeline.EndDay made into a barrier: all shards
// flush, snapshot their routing-table shares for date, and surrender their
// day statistics, which are merged so that Acc and CensusByDay match the
// serial pipeline bit for bit.
func (pp *ParallelPipeline) EndDay(date core.Date) {
	parts := pp.barrier(true, date)
	pp.CensusByDay[date] = rib.MergeCensuses(parts...)
	if pp.DayEnd != nil {
		pp.DayEnd(date)
	}
}

// Sync flushes and merges without taking a day snapshot, making Acc current
// with everything fed so far.
func (pp *ParallelPipeline) Sync() {
	pp.barrier(false, 0)
}

// Close merges any remaining shard state and stops the shard goroutines.
// The pipeline must not be fed after Close.
func (pp *ParallelPipeline) Close() {
	if pp.closed {
		return
	}
	pp.closed = true
	pp.Sync()
	for _, sh := range pp.shards {
		close(sh.in)
	}
	for _, sh := range pp.shards {
		<-sh.done
	}
}

// Census merges a table census over all shards' classifiers — the parallel
// equivalent of Pipeline.Census. Unlike the merged statistics it reads live
// shard state, so call it only at a quiescent point (after EndDay, Sync, or
// Close).
func (pp *ParallelPipeline) Census() rib.Census {
	parts := make([]rib.PartialCensus, 0, len(pp.shards))
	for _, sh := range pp.shards {
		parts = append(parts, sh.p.Classifier.PartialCensus())
	}
	return rib.MergeCensuses(parts...)
}

// RunScenarioParallel is RunScenario over a sharded pipeline: the generated
// stream is fed through pp with a day barrier at each day end. The caller
// still owns pp and should Close it when done feeding.
func RunScenarioParallel(cfg workload.Config, pp *ParallelPipeline) (workload.Stats, *workload.Generator, error) {
	return runScenario(cfg, pp.Feed, pp.EndDay)
}

// ClassifyLogParallel is ClassifyLog over a sharded pipeline: records stream
// through pp with a barrier at each date boundary. It returns the number of
// records read. The caller still owns pp and should Close it when done.
func ClassifyLogParallel(r collector.RecordReader, pp *ParallelPipeline) (int, error) {
	return classifyLog(r, pp.Feed, pp.EndDay)
}
