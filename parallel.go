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
)

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

// shard is one worker: an in-place Pipeline over the shard's share of the
// prefixes, plus the channel that feeds it.
type shard struct {
	p    *Pipeline
	in   chan shardMsg
	done chan struct{}
}

// peakTrack reproduces the in-place Accumulator's burst accounting on the
// undivided stream: PeakSecond is the one statistic a shard cannot compute
// locally (each shard sees only its share of any second), so the feeder —
// which still sees every record in time order — tracks it exactly and
// patches it over the merged per-day stats.
type peakTrack struct {
	curSec int64
	cur    int
	peak   int
}

// Sharded pipeline instrumentation.
var (
	obsParShards = obs.Default().Gauge("irtl_parallel_shards",
		"Worker shards of the most recently created sharded pipeline.")
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

// NewShardedPipeline returns a pipeline that classifies on shards worker
// goroutines (GOMAXPROCS when shards <= 0); Close stops them. One shard is
// the in-place pipeline itself, whose Close does nothing.
//
// The feeder hash-partitions records by prefix across the shards, each a
// private in-place Pipeline fed through a bounded channel in multi-record
// batches. One key is enough: classification history never
// crosses a (peer, prefix) key and a census never splits a prefix, and equal
// prefixes always share a shard, so the shards share nothing on the hot
// path; EndDay is the only barrier, where per-shard day statistics are
// merged so the published results are identical to what one in-place
// Pipeline produces from the same stream.
//
// Each shard's classifier owns a private attribute/path interner, so the hot
// path stays lock-free. Interned IDs are therefore shard-local;
// MergeCensuses remaps each shard's path IDs through a fresh table at the
// barrier, which is order-independent because interning is content-addressed
// — the in-place/sharded bit-for-bit contract is unaffected.
func NewShardedPipeline(shards int) *Pipeline {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards == 1 {
		return NewPipeline()
	}
	p := &Pipeline{
		Acc:         core.NewAccumulator(),
		CensusByDay: make(map[core.Date]rib.Census),
		shards:      make([]*shard, shards),
		batches:     make([][]collector.Record, shards),
		peaks:       make(map[core.Date]*peakTrack),
	}
	obsParShards.SetInt(int64(shards))
	for i := range p.shards {
		sh := &shard{
			p:    NewPipeline(),
			in:   make(chan shardMsg, queueBatches),
			done: make(chan struct{}),
		}
		p.shards[i] = sh
		// Queue depth is read at exposition time, so a scrape during a
		// replay shows where backpressure sits without touching the feeder.
		// The gauge holds the channel only: the registry outlives the
		// pipeline, and must not keep a closed shard's tables reachable.
		in := sh.in
		obs.Default().GaugeFunc("irtl_parallel_queue_depth",
			"Batches queued per pipeline shard.",
			func() float64 { return float64(len(in)) },
			obs.L("shard", strconv.Itoa(i)))
		go sh.run(p)
	}
	return p
}

// run is the shard worker loop. It owns the shard's pipeline exclusively
// between barriers, and what happens to a record is Pipeline.Feed — nothing
// here repeats it. p.Events is picked up per batch: the write in the feeder
// happens before the batch send, which happens before this read, so the hook
// may be assigned any time up to the first Feed.
func (sh *shard) run(p *Pipeline) {
	defer close(sh.done)
	for msg := range sh.in {
		if msg.recs != nil {
			sh.p.Events = p.Events
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

// route tracks the record's second on the undivided stream and appends the
// record to the pending batch of the shard that owns its prefix, dispatching
// the batch when full.
func (p *Pipeline) route(rec collector.Record) {
	p.trackPeak(rec)
	i := core.PrefixShardOf(rec.Prefix, len(p.shards))
	if p.batches[i] == nil {
		b := batchPool.Get().([]collector.Record)
		if cap(b) < batchSize {
			b = make([]collector.Record, 0, batchSize)
		}
		p.batches[i] = b
	}
	p.batches[i] = append(p.batches[i], rec)
	if len(p.batches[i]) >= batchSize {
		p.dispatch(i)
	}
}

// dispatch hands shard i's pending batch to its channel.
func (p *Pipeline) dispatch(i int) {
	b := p.batches[i]
	if len(b) == 0 {
		return
	}
	obsParBatches.Inc()
	obsParBatchRecords.Observe(float64(len(b)))
	p.batches[i] = nil
	p.shards[i].in <- shardMsg{recs: b}
}

// trackPeak maintains the exact per-day peak-second count on the undivided
// stream (see peakTrack).
func (p *Pipeline) trackPeak(rec collector.Record) {
	sec := rec.Time.Unix()
	d := core.DateOf(rec.Time)
	pk := p.peaks[d]
	if pk == nil {
		pk = &peakTrack{}
		p.peaks[d] = pk
	}
	if sec != pk.curSec {
		pk.curSec, pk.cur = sec, 0
	}
	pk.cur++
	if pk.cur > pk.peak {
		pk.peak = pk.cur
	}
}

// barrier dispatches pending batches, takes every shard's accumulator (for
// endDay, closed for day and with the shard's partial census), merges them
// into Acc, and patches the exact peak-second counts. Each shard does its
// share on its own goroutine; its accumulator then changes hands, so the
// merge runs on the feeder without locks.
func (p *Pipeline) barrier(endDay bool, day core.Date) []rib.PartialCensus {
	for i := range p.shards {
		p.dispatch(i)
	}
	t0 := time.Now()
	accs := make([]*core.Accumulator, len(p.shards))
	parts := make([]rib.PartialCensus, len(p.shards))
	var wg sync.WaitGroup
	wg.Add(len(p.shards))
	for i, sh := range p.shards {
		sh.in <- shardMsg{do: func(sp *Pipeline) {
			defer wg.Done()
			if endDay {
				parts[i] = sp.closeDay(day)
			}
			accs[i], sp.Acc = sp.Acc, core.NewAccumulator()
		}}
	}
	wg.Wait()
	obsParMergeWait.ObserveSince(t0)
	t1 := time.Now()
	for _, acc := range accs {
		p.Acc.Merge(acc)
	}
	for d, pk := range p.peaks {
		if ds := p.Acc.Days[d]; ds != nil {
			ds.PeakSecond = pk.peak
		}
	}
	obsParMerge.ObserveSince(t1)
	return parts
}

// Close merges what a sharded pipeline's shards hold since the last EndDay
// and stops their goroutines; Acc and Census stay readable. The pipeline
// must not be fed after Close. On an in-place pipeline Close does nothing.
func (p *Pipeline) Close() {
	if p.shards == nil || p.closed {
		return
	}
	p.closed = true
	p.barrier(false, 0)
	for _, sh := range p.shards {
		close(sh.in)
	}
	for _, sh := range p.shards {
		<-sh.done
	}
}
