package store

import (
	"cmp"
	"context"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/obs"
)

// benchStore builds a sealed multi-segment store once per benchmark run.
func benchStore(b *testing.B) *Store {
	b.Helper()
	s, err := Open(b.TempDir(), testOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	w := s.Writer()
	for _, rec := range hourlyWorkload(4, 400) {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		b.Fatal(err)
	}
	return s
}

func drainReader(tb testing.TB, r *Reader) int {
	tb.Helper()
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			tb.Fatal(err)
		}
		n++
	}
	return n
}

// BenchmarkStoreQuery measures one full indexed scan, untraced versus inside
// an active trace. With no span in the context every tracing hook in the
// read path (StartChild, segmentSpan, the EXPLAIN annotations on Close) is a
// nil no-op, so Untraced allocs/op is the pre-tracing baseline — the delta
// tracing adds when disabled is zero (pinned by
// TestQueryUntracedTracingAllocsZero).
func BenchmarkStoreQuery(b *testing.B) {
	s := benchStore(b)
	q := Query{}

	b.Run("Untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := s.QueryCtx(context.Background(), q)
			if err != nil {
				b.Fatal(err)
			}
			drainReader(b, r)
			r.Close()
		}
	})

	b.Run("Traced", func(b *testing.B) {
		tracer := &obs.Tracer{}
		tracer.Enable(obs.TraceConfig{SampleRate: 0, SlowThreshold: -1})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx, root := tracer.Start(context.Background(), "bench")
			r, err := s.QueryCtx(ctx, q)
			if err != nil {
				b.Fatal(err)
			}
			drainReader(b, r)
			r.Close()
			root.Finish()
		}
	})
}

// benchCachedStore is benchStore with the shared block cache enabled.
func benchCachedStore(b *testing.B) *Store {
	b.Helper()
	opts := testOptions()
	opts.BlockCacheBytes = 64 << 20
	s, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	w := s.Writer()
	for _, rec := range hourlyWorkload(4, 400) {
		if err := w.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkStoreQueryCache runs one query list — a full scan and a range, an
// origin, a prefix and a peer query, the ledger's shapes — over one day-sized
// store three ways: Off (BlockCacheBytes 0: every block parsed in place out
// of the mapping, nothing kept), Cold (cache purged every iteration, so every
// block is loaded into it) and Warm (every block served from it). queries/s
// Off against Warm is what the parsed-block cache buys a repeated query now
// that a fetch inflates nothing (DESIGN.md §14).
func BenchmarkStoreQueryCache(b *testing.B) {
	recs := hourlyWorkload(24, 4000)
	open := func(cache int64) *Store {
		s, err := Open(b.TempDir(), Options{Window: time.Hour, BlockCacheBytes: cache})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		if err := s.Writer().AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
		if err := s.Writer().Seal(); err != nil {
			b.Fatal(err)
		}
		return s
	}
	origin, _ := originOf(recs[0])
	list := []Query{
		{},
		{From: recs[len(recs)/2].Time, To: recs[len(recs)/2].Time.Add(2 * time.Hour)},
		{OriginAS: []bgp.ASN{origin}},
		{Prefix: recs[len(recs)/3].Prefix},
		{PeerAS: []bgp.ASN{recs[1].PeerAS}, From: recs[len(recs)/4].Time, To: recs[len(recs)/4].Time.Add(3 * time.Hour)},
	}
	pass := func(b *testing.B, s *Store) {
		for _, q := range list {
			r, err := s.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			drainReader(b, r)
			r.Close()
		}
	}
	run := func(name string, s *Store, purge bool) {
		b.Run(name, func(b *testing.B) {
			pass(b, s) // prime
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if purge {
					s.cache.lru.DropIf(func(blockKey) bool { return true })
				}
				pass(b, s)
			}
			b.ReportMetric(float64(b.N*len(list))/b.Elapsed().Seconds(), "queries/s")
		})
	}
	run("Off", open(0), false)
	cached := open(64 << 20)
	run("Cold", cached, true)
	run("Warm", cached, false)
}

// BenchmarkStoreQuerySelective measures a selective predicate (one origin AS
// out of four hours' worth) on a warm cache: the columnar kernels filter the
// cached columns and materialize only the surviving rows.
func BenchmarkStoreQuerySelective(b *testing.B) {
	s := benchCachedStore(b)
	q := Query{OriginAS: []bgp.ASN{7001}}
	r, err := s.Query(q) // prime
	if err != nil {
		b.Fatal(err)
	}
	drainReader(b, r)
	r.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := s.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		drainReader(b, r)
		r.Close()
	}
}

// BenchmarkColumnarFilter is the kernel in isolation: one decoded block,
// predicate applied column-wise, zero matching rows — the per-block floor of
// a selective scan with everything hot.
func BenchmarkColumnarFilter(b *testing.B) {
	s := benchStore(b)
	s.mu.Lock()
	g := s.segs[0]
	s.mu.Unlock()
	f, err := s.fs.Open(g.path)
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	bs := getBlockScanner()
	defer putBlockScanner(bs)
	cb, _, err := bs.fetch(g, f, nil, nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	q := &Query{PeerAS: []bgp.ASN{9999}}
	var lo, hi int
	var sel []int32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, hi, sel, _ = cb.selectRows(q, &bs.ks)
	}
	if hi > lo || len(sel) != 0 {
		b.Fatal("predicate unexpectedly matched")
	}
}

// BenchmarkStoreSeal measures pure seal throughput — memtable to sealed,
// indexed segments. v3 block encoding — dictionary builds and code columns —
// dominates a seal, and runs on the one sealing goroutine.
func BenchmarkStoreSeal(b *testing.B) {
	recs := hourlyWorkload(4, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s, err := Open(b.TempDir(), testOptions())
		if err != nil {
			b.Fatal(err)
		}
		w := s.Writer()
		if err := w.AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := w.Seal(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkIngestToSealed is the end-to-end ingest path under auto-seal:
// batched appends with WAL flushes, background seals overlapping further
// appends, and a final seal. This is what `bgpstore ingest` does, so the
// records/sec here is the wire-to-sealed ceiling of the tool.
func BenchmarkIngestToSealed(b *testing.B) {
	recs := hourlyWorkload(4, 4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := testOptions()
		opts.AutoSealRecords = 2048
		opts.FlushEvery = 256
		s, err := Open(b.TempDir(), opts)
		if err != nil {
			b.Fatal(err)
		}
		w := s.Writer()
		b.StartTimer()
		for off := 0; off < len(recs); off += 256 {
			end := min(off+256, len(recs))
			if err := w.AppendBatch(recs[off:end]); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Seal(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs))*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkSealStall measures the longest window a seal occupies the store
// lock. Opening a query is the lock-bound step — QueryCtx snapshots the
// segment set and memtable under s.mu and the scan itself runs lock-free —
// so the longest single lock occupancy is exactly the worst stall a seal
// imposes on a reader: a query arriving at the start of that window waits it
// out. The seal of a 65536-record memtable is split into its lock-held spans
// — the detach (WAL flush+rotate, snapshot swap) and one publish per window —
// with the sort/encode/compress running off the lock; the occupancies are
// timed directly around those spans, replicating runSeal step by step, so
// the number is deterministic and not polluted by goroutine wakeup latency
// or kernel timeslicing on small hosts. max-stall-ms bounds how long a
// dashboard query can hang during ingest. (Sealing inline under the lock,
// the design this replaced, measured ~97 ms against ~0.16 ms here — DESIGN.md
// §15; the inline path is gone, and the ledger's store.seal_stall_ms_max and
// store.append_ms_max watch the stall on every run.)
func BenchmarkSealStall(b *testing.B) {
	recs := hourlyWorkload(2, 32768)
	var worst time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		opts := testOptions()
		opts.FlushEvery = 256
		s, err := Open(b.TempDir(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Writer().AppendBatch(recs); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		// The lock-held span an append pays when it crosses the
		// auto-seal threshold: flush, WAL rotation, memtable detach.
		s.mu.Lock()
		start := time.Now()
		bat, err := s.detachSealLocked(false)
		d := time.Since(start)
		s.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
		if bat == nil {
			b.Fatal("nothing detached")
		}
		if d > worst {
			worst = d
		}
		// runSeal, step by step: sort/encode/compress run off the lock;
		// only each publish re-acquires it, and that span is the stall.
		for wi := range bat.windows {
			sw := &bat.windows[wi]
			sorted := slices.Clone(sw.recs)
			slices.SortStableFunc(sorted, func(a, b memRec) int { return cmp.Compare(a.ns, b.ns) })
			seg, err := writeSegment(s.fs, s.dir, sw.seq, sw.window, sw.firstSeq, sorted, nil, s.opts)
			if err != nil {
				b.Fatal(err)
			}
			start := time.Now()
			s.publishSealed(bat, wi, seg)
			if d := time.Since(start); d > worst {
				worst = d
			}
		}
		s.finishSeal(bat, nil)
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(worst.Nanoseconds())/1e6, "max-stall-ms")
	b.ReportMetric(0, "ns/op")
}

// readerDrainStore seals 14 batches of one merge layout into 14 segments of
// one window and scans them once, so every block is decoded in the cache.
func readerDrainStore(tb testing.TB, layout string, perBatch int) *Store {
	tb.Helper()
	opts := Options{Window: 24 * time.Hour, BlockCacheBytes: 64 << 20}
	s, err := Open(tb.TempDir(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	w := s.Writer()
	for _, batch := range genMergeBatches(rand.New(rand.NewSource(1)), layout, 14, perBatch) {
		if err := w.AppendBatch(batch); err != nil {
			tb.Fatal(err)
		}
		if err := w.Seal(); err != nil {
			tb.Fatal(err)
		}
	}
	r, err := s.Query(Query{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := r.ReadAll(); err != nil {
		tb.Fatal(err)
	}
	r.Close()
	if st := s.Stats(); st.Segments != 14 {
		tb.Fatalf("want 14 segments, got %+v", st)
	}
	return s
}

// BenchmarkReaderDrain is the merge loop on its own — no inflate, no decode,
// no disk: full scans of a warm 14-segment store under the three layouts the
// run merge treats differently (see mergeLayouts). ns/record and B/record
// are per returned record; the query's set-up and Close are in them.
func BenchmarkReaderDrain(b *testing.B) {
	for _, layout := range mergeLayouts {
		b.Run(layout, func(b *testing.B) {
			s := readerDrainStore(b, layout, 2000)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				r, err := s.Query(Query{})
				if err != nil {
					b.Fatal(err)
				}
				n += drainReader(b, r)
				r.Close()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n), "ns/record")
			b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(n), "B/record")
		})
	}
}

// TestQueryUntracedTracingAllocsZero pins the zero-allocation contract of
// the tracing seam the read path threads through: with no active span, the
// exact obs calls QueryCtx/segStream/Close make must not allocate. Nor may
// Reader.Next, whichever way the merge goes: its cursor builds each row once,
// straight into the return value, from the block the kernels selected it in.
func TestQueryUntracedTracingAllocsZero(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		_, sp := obs.StartChild(ctx, "store_scan") // QueryCtx root hook
		seg := segmentSpan(sp, nil, 0)             // per-segment child hook
		seg.Annotate("quarantined_block", "x")     // quarantine annotation
		seg.Finish()                               // segStream close
		Explain{}.annotate(sp)                     // Reader.Close EXPLAIN attach
		sp.SetError(nil)
		sp.Finish()
	})
	if allocs != 0 {
		t.Fatalf("untraced read path allocates %.1f per query from tracing hooks, want 0", allocs)
	}

	for _, layout := range mergeLayouts {
		s := readerDrainStore(t, layout, 200)
		r, err := s.Query(Query{})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		allocs := testing.AllocsPerRun(2000, func() {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: Reader.Next allocates %.1f per record, want 0", layout, allocs)
		}
	}
}

// TestQueryAllocsIndependentOfRows pins that the read path keeps no per-row
// buffer: a full query, drained and closed, makes as many allocations over
// 14 segments of 2,000 records as over 14 of 200, under every merge layout.
// What a query allocates may grow with its streams, not with its rows.
func TestQueryAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the block scanners come from a sync.Pool, which drops items at random under -race")
	}
	for _, layout := range mergeLayouts {
		var allocs []float64
		for _, perBatch := range []int{200, 2000} {
			s := readerDrainStore(t, layout, perBatch)
			allocs = append(allocs, testing.AllocsPerRun(20, func() {
				r, err := s.Query(Query{})
				if err != nil {
					t.Fatal(err)
				}
				if n := drainReader(t, r); n != 14*perBatch {
					t.Fatalf("%s: drained %d records, want %d", layout, n, 14*perBatch)
				}
				r.Close()
			}))
		}
		if allocs[0] != allocs[1] {
			t.Errorf("%s: a query allocates %.0f times at 200 records a segment, %.0f at 2,000", layout, allocs[0], allocs[1])
		}
	}
}
