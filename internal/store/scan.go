package store

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"instability/internal/collector"
)

// Parallel query execution. QueryParallel produces the exact record sequence
// of Query — same candidate blocks, same per-segment block order, same heap
// merge keys — but fans block fetches across a bounded worker pool.
// The consumer (Reader.Next) stays single-threaded; only the expensive part
// of a scan, read + parse + filter + materialize, runs concurrently.
//
// Ordering is preserved by construction rather than by re-sorting: each
// parSegStream submits its candidate blocks to the pool in block order and
// keeps a FIFO of single-slot result channels, so blocks are consumed in the
// order they were submitted no matter which worker finishes first. The merge
// heap then interleaves streams by (timestamp, segment seq) exactly as the
// serial path does.

// scanLookahead is how many blocks a stream keeps in flight beyond the one
// being consumed. Two is enough to hide fetch latency behind the
// merge without holding many decoded blocks in memory per stream.
const scanLookahead = 2

type blockTask struct {
	seg *segment
	f   io.ReaderAt
	// mm is the mapping reference the submitting stream holds; the stream
	// outlives every task it submitted (close drains them), so a worker
	// never touches mapped pages after their release. Workers must use this,
	// never seg.mm — the latter is store-lock state compaction mutates.
	mm    *segMap
	q     *Query
	cache *blockCache
	bi    int
	out   chan<- blockResult // cap 1: workers never block on delivery
}

type blockResult struct {
	recs []collector.Record // pooled buffer; nil-length results still own it
	hit  bool               // block came from the shared cache
	err  error
}

// recBufPool recycles decoded-record buffers across parallel scans: the
// merge consumer returns each fully consumed slice and workers decode the
// next block into a recycled one, so steady-state scanning holds a bounded
// set of live buffers instead of allocating one per block per query.
var recBufPool = sync.Pool{New: func() any { return new([]collector.Record) }}

// recBufsLive is the get/put balance of recBufPool. It returns to zero when
// every code path — including every error path — hands its buffer back; the
// leak-check tests assert exactly that.
var recBufsLive atomic.Int64

func getRecBuf() []collector.Record {
	recBufsLive.Add(1)
	return *recBufPool.Get().(*[]collector.Record)
}

func putRecBuf(b []collector.Record) {
	recBufsLive.Add(-1)
	b = b[:0]
	recBufPool.Put(&b)
}

// scanPool is a fixed set of block fetch workers shared by all streams of
// one parallel reader. Each worker owns a blockScanner for its lifetime, so
// buffer reuse needs no per-block pool traffic.
type scanPool struct {
	tasks chan blockTask
	wg    sync.WaitGroup
}

func newScanPool(workers, queue int) *scanPool {
	p := &scanPool{tasks: make(chan blockTask, queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			bs := getBlockScanner()
			defer putBlockScanner(bs)
			for t := range p.tasks {
				// The pooled buffer travels with a successful result; the
				// consumer (or the stream's close) returns it.
				buf := getRecBuf()
				recs, hit, err := bs.scan(t.seg, t.f, t.mm, t.cache, t.bi, t.q, buf[:0])
				if err != nil {
					putRecBuf(recs)
					t.out <- blockResult{err: err}
					continue
				}
				t.out <- blockResult{recs: recs, hit: hit}
			}
		}()
	}
	return p
}

func (p *scanPool) submit(t blockTask) { p.tasks <- t }

// shutdown stops accepting tasks and waits for the workers to exit. Queued
// tasks are still executed; their results land in buffered channels whose
// streams drain them at close. A task whose file was already closed fails
// with os.ErrClosed, which the draining stream discards — ReadAt on a closed
// file is defined behavior, not a race.
func (p *scanPool) shutdown() {
	close(p.tasks)
	p.wg.Wait()
}

// QueryParallel is Query with the segment scan fanned across workers. The
// result order and ScanStats accounting are identical to Query; workers <= 1
// (or a scan with at most one candidate block) falls back to the serial
// reader. The returned Reader must be Closed to release the worker pool.
//
// Failure behavior matches Query: corrupt blocks are quarantined (skipped
// and counted), I/O errors surface as a sticky partial-scan error from Next,
// and an error during setup closes every segment file already opened and
// drains every in-flight worker before returning.
func (s *Store) QueryParallel(q Query, workers int) (*Reader, error) {
	return s.QueryParallelCtx(context.Background(), q, workers)
}

// QueryParallelCtx is QueryParallel carrying a request context; see QueryCtx
// for the tracing contract.
func (s *Store) QueryParallelCtx(ctx context.Context, q Query, workers int) (*Reader, error) {
	return s.query(ctx, q, workers)
}

// parSegStream iterates the candidate blocks of one segment, with the block
// fetch delegated to the reader's scanPool. All methods run on the
// merge consumer goroutine; only the pool workers touch the segment file.
type parSegStream struct {
	segScan
	pool      *scanPool
	nextSub   int                // next index into blocks to submit
	pending   []chan blockResult // FIFO of in-flight block results
	pendingBi []int              // block index of each pending result
	pooled    bool               // recs came from recBufPool and must go back
}

// fill tops the in-flight window up to scanLookahead+1 submitted blocks.
func (sc *parSegStream) fill() {
	for len(sc.pending) <= scanLookahead && sc.nextSub < len(sc.blocks) {
		out := make(chan blockResult, 1)
		sc.pool.submit(blockTask{seg: sc.seg, f: sc.f, mm: sc.mm, q: sc.q, cache: sc.cache,
			bi: sc.blocks[sc.nextSub], out: out})
		sc.pending = append(sc.pending, out)
		sc.pendingBi = append(sc.pendingBi, sc.blocks[sc.nextSub])
		sc.nextSub++
	}
}

func (sc *parSegStream) next() (bool, error) {
	sc.fill() // the first call's submissions; later ones find the window full
	for len(sc.pending) > 0 {
		t0 := time.Now()
		res := <-sc.pending[0]
		obsScanMergeWait.ObserveSince(t0)
		bi := sc.pendingBi[0]
		sc.pending = sc.pending[1:]
		sc.pendingBi = sc.pendingBi[1:]
		sc.fill()
		if res.err != nil {
			if err := sc.skipCorrupt(bi, res.err); err != nil {
				return false, err
			}
			continue
		}
		sc.stats.noteBlock(sc.seg, bi, res.hit, sc.cache != nil, len(res.recs))
		// The previous block's rows are all merged (returned by value), so
		// its buffer goes back to the workers.
		if sc.pooled {
			putRecBuf(sc.recs)
		}
		sc.pooled = true
		if sc.load(res.recs) {
			return true, nil
		}
	}
	return false, nil
}

// close releases the stream's segment references and reclaims every pooled
// buffer it still owns. In-flight results are received, not abandoned: the
// workers are alive until the reader shuts the pool down (which happens only
// after all streams close), and every submitted task delivers exactly one
// result into its single-slot channel, so this drain never blocks
// indefinitely and no buffer is stranded in an unread channel.
func (sc *parSegStream) close() {
	for _, ch := range sc.pending {
		res := <-ch
		// Successful results own a pooled buffer even when zero rows matched
		// the columnar filter; only error results travel bufferless.
		if res.err == nil {
			putRecBuf(res.recs)
		}
	}
	sc.pending, sc.pendingBi = nil, nil
	if sc.pooled {
		putRecBuf(sc.recs)
		sc.recs, sc.pooled = nil, false
	}
	sc.release()
}
