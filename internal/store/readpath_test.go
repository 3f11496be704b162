package store

import (
	"errors"
	"sync"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
)

// buildReadpathStore seals the hourly workload into several segments per
// window (two seals per hour of data), so compaction has real work and the
// cache sees a multi-segment store.
func buildReadpathStore(t *testing.T, dir string, opts Options, hours, perHour int) (*Store, []collector.Record) {
	t.Helper()
	recs := hourlyWorkload(hours, perHour)
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if (i+1)%(perHour/2) == 0 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	return s, recs
}

// readpathQueries is the predicate mix the equivalence tests sweep: full
// scan, time slice, peer, origin, type, prefix, and combinations.
func readpathQueries(recs []collector.Record) []Query {
	mid := recs[len(recs)/2].Time
	return []Query{
		{},
		{From: mid.Add(-30 * time.Minute), To: mid.Add(90 * time.Minute)},
		{PeerAS: []bgp.ASN{101}},
		{OriginAS: []bgp.ASN{7001, 7003}},
		{Types: []collector.RecType{collector.Withdraw}},
		{Prefix: recs[7].Prefix},
		{From: mid, PeerAS: []bgp.ASN{102, 103}, Types: []collector.RecType{collector.Announce}},
	}
}

// TestMmapEnabledByDefault asserts that a store on the real disk maps every
// sealed segment, keeps mapping across seals and compactions, and reports it
// in Stats.
func TestMmapEnabledByDefault(t *testing.T) {
	s, recs := buildReadpathStore(t, t.TempDir(), testOptions(), 4, 200)
	defer s.Close()
	st := s.Stats()
	if st.Segments == 0 || st.MmapSegments != st.Segments {
		t.Fatalf("MmapSegments = %d, want %d (all segments mapped)", st.MmapSegments, st.Segments)
	}
	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, recs)
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.MmapSegments != st.Segments {
		t.Fatalf("after compact: MmapSegments = %d, want %d", st.MmapSegments, st.Segments)
	}
	got, _ = queryAll(t, s, Query{})
	assertSameRecords(t, got, recs)
}

// TestNoMmapOption asserts the escape hatch: -no-mmap stores never map and
// return identical results through the ReadAt path.
func TestNoMmapOption(t *testing.T) {
	opts := testOptions()
	opts.NoMmap = true
	s, recs := buildReadpathStore(t, t.TempDir(), opts, 3, 150)
	defer s.Close()
	if st := s.Stats(); st.MmapSegments != 0 {
		t.Fatalf("NoMmap store mapped %d segments", st.MmapSegments)
	}
	for _, q := range readpathQueries(recs) {
		got, _ := queryAll(t, s, q)
		var want []collector.Record
		for _, rec := range recs {
			if q.match(rec) {
				want = append(want, rec)
			}
		}
		assertSameRecords(t, got, want)
	}
}

// TestMmapFailureFallsBack forces every mapping attempt to fail through the
// test hook and asserts the store silently serves everything via ReadAt.
func TestMmapFailureFallsBack(t *testing.T) {
	defer func() { mmapSegment = mmapOpen }()
	mmapSegment = func(path string, size int64) ([]byte, error) {
		return nil, errors.New("forced mmap failure")
	}
	s, recs := buildReadpathStore(t, t.TempDir(), testOptions(), 3, 150)
	defer s.Close()
	if st := s.Stats(); st.MmapSegments != 0 {
		t.Fatalf("MmapSegments = %d after forced mmap failures, want 0", st.MmapSegments)
	}
	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, recs)
}

// TestReadPathEquivalence is the bit-identical contract across every read
// configuration: cache-on/cache-off × mmap/no-mmap must
// produce exactly the same record sequence for a spread of predicates.
func TestReadPathEquivalence(t *testing.T) {
	base := testOptions()
	cached := base
	cached.BlockCacheBytes = 8 << 20
	cachedNoMmap := cached
	cachedNoMmap.NoMmap = true

	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	opts := []Options{base, cached, cachedNoMmap}
	stores := make([]*Store, len(opts))
	var recs []collector.Record
	for i := range opts {
		stores[i], recs = buildReadpathStore(t, dirs[i], opts[i], 4, 200)
		defer stores[i].Close()
	}

	for qi, q := range readpathQueries(recs) {
		var want []collector.Record
		for _, rec := range recs {
			if q.match(rec) {
				want = append(want, rec)
			}
		}
		for si, s := range stores {
			got, _ := queryAll(t, s, q)
			if len(got) != len(want) {
				t.Fatalf("query %d store %d: got %d records, want %d", qi, si, len(got), len(want))
			}
			assertSameRecords(t, got, want)
			// Run the cached stores again so the second pass is served from
			// the cache and must still be identical.
			again, _ := queryAll(t, s, q)
			assertSameRecords(t, again, want)
		}
	}
}

// TestBlockCacheHitAccounting asserts the Explain/ScanStats split: a cold
// query reads from disk and misses; an identical warm query is served from
// the cache byte-for-byte, with zero disk reads and zero decompression.
func TestBlockCacheHitAccounting(t *testing.T) {
	opts := testOptions()
	opts.BlockCacheBytes = 32 << 20
	s, recs := buildReadpathStore(t, t.TempDir(), opts, 3, 200)
	defer s.Close()

	cold, coldSt := queryAll(t, s, Query{})
	assertSameRecords(t, cold, recs)
	if coldSt.BlocksCacheMiss != coldSt.BlocksScanned || coldSt.BlocksCacheHit != 0 {
		t.Fatalf("cold scan: hit=%d miss=%d scanned=%d, want all misses",
			coldSt.BlocksCacheHit, coldSt.BlocksCacheMiss, coldSt.BlocksScanned)
	}
	if coldSt.BytesReadDisk == 0 || coldSt.BytesDecompressed == 0 || coldSt.BytesFromCache != 0 {
		t.Fatalf("cold scan bytes: disk=%d decompressed=%d cache=%d",
			coldSt.BytesReadDisk, coldSt.BytesDecompressed, coldSt.BytesFromCache)
	}

	warm, warmSt := queryAll(t, s, Query{})
	assertSameRecords(t, warm, recs)
	if warmSt.BlocksCacheHit != warmSt.BlocksScanned || warmSt.BlocksCacheMiss != 0 {
		t.Fatalf("warm scan: hit=%d miss=%d scanned=%d, want all hits",
			warmSt.BlocksCacheHit, warmSt.BlocksCacheMiss, warmSt.BlocksScanned)
	}
	if warmSt.BytesReadDisk != 0 || warmSt.BytesDecompressed != 0 || warmSt.BytesFromCache == 0 {
		t.Fatalf("warm scan bytes: disk=%d decompressed=%d cache=%d, want cache only",
			warmSt.BytesReadDisk, warmSt.BytesDecompressed, warmSt.BytesFromCache)
	}
	// RecordsScanned semantics are unchanged by the cache.
	if warmSt.RecordsScanned != coldSt.RecordsScanned {
		t.Fatalf("RecordsScanned warm %d != cold %d", warmSt.RecordsScanned, coldSt.RecordsScanned)
	}

	bc := s.Stats().BlockCache
	if !bc.Enabled || bc.Hits == 0 || bc.Misses == 0 || bc.UsedBytes == 0 {
		t.Fatalf("BlockCacheStats not populated: %+v", bc)
	}
}

// TestBlockCacheEviction pins the byte budget: a cache far smaller than the
// store must evict under pressure, never exceed its budget, and still serve
// correct results.
func TestBlockCacheEviction(t *testing.T) {
	opts := testOptions()
	opts.BlockCacheBytes = 8 << 10 // a handful of decoded blocks at most
	s, recs := buildReadpathStore(t, t.TempDir(), opts, 4, 300)
	defer s.Close()

	for i := 0; i < 3; i++ {
		got, _ := queryAll(t, s, Query{})
		assertSameRecords(t, got, recs)
	}
	bc := s.Stats().BlockCache
	if bc.Evictions == 0 {
		t.Fatalf("no evictions under byte pressure: %+v", bc)
	}
	if bc.UsedBytes > bc.BudgetBytes {
		t.Fatalf("cache over budget: used %d > budget %d", bc.UsedBytes, bc.BudgetBytes)
	}
	usedConsistent(t, s.cache)
}

// TestBlockCacheOversizedBlockNotCached: a single block bigger than the whole
// budget is served but never inserted.
func TestBlockCacheOversizedBlockNotCached(t *testing.T) {
	opts := testOptions()
	opts.BlockCacheBytes = 64 // smaller than any decoded block
	s, recs := buildReadpathStore(t, t.TempDir(), opts, 1, 100)
	defer s.Close()
	got, st := queryAll(t, s, Query{})
	assertSameRecords(t, got, recs)
	if st.BlocksCacheHit != 0 {
		t.Fatalf("hits against a cache nothing fits in: %d", st.BlocksCacheHit)
	}
	if bc := s.Stats().BlockCache; bc.Entries != 0 || bc.UsedBytes != 0 {
		t.Fatalf("oversized blocks were cached: %+v", bc)
	}
}

// TestCompactionDropsCacheEntries asserts structural invalidation: after a
// compaction replaces segments, none of their fingerprints remain in the
// cache, and the merged segment serves fresh, correct results.
func TestCompactionDropsCacheEntries(t *testing.T) {
	opts := testOptions()
	opts.BlockCacheBytes = 32 << 20
	s, recs := buildReadpathStore(t, t.TempDir(), opts, 3, 200)
	defer s.Close()

	if _, _ = queryAll(t, s, Query{}); s.Stats().BlockCache.Entries == 0 {
		t.Fatal("cache empty after full scan")
	}
	genBefore := s.Generation()
	s.mu.Lock()
	oldFPs := make(map[uint64]bool, len(s.segs))
	for _, g := range s.segs {
		oldFPs[g.fp] = true
	}
	s.mu.Unlock()

	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsMerged == 0 {
		t.Fatal("compaction found nothing to merge; test store must have multi-segment windows")
	}
	if s.Generation() == genBefore {
		t.Fatal("compaction did not advance the generation")
	}

	// A predicate that matches nothing visits every resident key.
	var resident []blockKey
	s.cache.lru.DropIf(func(k blockKey) bool { resident = append(resident, k); return false })
	s.mu.Lock()
	live := make(map[uint64]bool, len(s.segs))
	for _, g := range s.segs {
		live[g.fp] = true
	}
	s.mu.Unlock()
	for _, key := range resident {
		if !live[key.seg] {
			t.Fatalf("cache entry %v belongs to a retired segment", key)
		}
	}

	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, recs)
}

// TestReadersShareCacheUnderCompaction is the -race hammer: concurrent
// readers share the cache while compaction repeatedly advances the
// segment-set generation underneath them. Every reader must see at least the
// full base record set.
func TestReadersShareCacheUnderCompaction(t *testing.T) {
	opts := testOptions()
	opts.BlockCacheBytes = 1 << 20 // small enough to keep evicting under load
	s, recs := buildReadpathStore(t, t.TempDir(), opts, 4, 250)
	defer s.Close()

	const readers = 8
	const rounds = 6
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < rounds; j++ {
				r, err := s.Query(Query{})
				if err != nil {
					errc <- err
					return
				}
				got, err := r.ReadAll()
				r.Close()
				if err != nil {
					errc <- err
					return
				}
				// The compactor goroutine also appends and seals new
				// records, so a reader sees at least the base set.
				if len(got) < len(recs) {
					errc <- errors.New("reader saw a partial record set")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Re-seal a few appends between compactions so each pass has work
		// and the generation keeps moving.
		w := s.Writer()
		base := recs[len(recs)-1].Time
		for j := 0; j < rounds; j++ {
			if _, err := s.Compact(); err != nil {
				errc <- err
				return
			}
			rec := mkRecord(base.Add(time.Duration(j+1)*time.Hour), 200, 7999, recs[0].Prefix, true)
			if err := w.Append(rec); err != nil {
				errc <- err
				return
			}
			if err := w.Seal(); err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestColumnarKernelZeroAlloc pins the headline claim of the columnar scan:
// filtering a block whose rows all fail the predicate materializes no
// records and allocates nothing.
func TestColumnarKernelZeroAlloc(t *testing.T) {
	s, _ := buildReadpathStore(t, t.TempDir(), testOptions(), 1, 200)
	defer s.Close()
	s.mu.Lock()
	g := s.segs[0]
	s.mu.Unlock()
	f, err := s.fs.Open(g.path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bs := getBlockScanner()
	defer putBlockScanner(bs)
	cb, _, err := bs.fetch(g, f, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	noMatch := &Query{PeerAS: []bgp.ASN{9999}} // no row carries this peer
	dst := make([]collector.Record, 0, cb.rows())
	if got, err := cb.appendMatching(noMatch, &bs.ks, dst[:0]); len(got) != 0 || err != nil {
		t.Fatalf("predicate matched %d rows (err %v), want 0", len(got), err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst, _ = cb.appendMatching(noMatch, &bs.ks, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("filtered-out scan allocated %.1f allocs/run, want 0", allocs)
	}

	// A partially selective predicate materializes exactly the surviving
	// rows and, with capacity in place, still allocates nothing.
	some := &Query{Types: []collector.RecType{collector.Withdraw}}
	dst, _ = cb.appendMatching(some, &bs.ks, dst[:0])
	want := 0
	for i := 0; i < cb.rows(); i++ {
		if collector.RecType(cb.types[i]) == collector.Withdraw {
			want++
		}
	}
	if len(dst) != want {
		t.Fatalf("withdraw filter materialized %d rows, want %d", len(dst), want)
	}
	allocs = testing.AllocsPerRun(100, func() {
		dst, _ = cb.appendMatching(some, &bs.ks, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("selective scan allocated %.1f allocs/run, want 0", allocs)
	}
}

// TestRecordsMaterializedAccounting: a selective query must report fewer
// materialized records than scanned rows — the gap is the work the columnar
// kernels skipped.
func TestRecordsMaterializedAccounting(t *testing.T) {
	s, recs := buildReadpathStore(t, t.TempDir(), testOptions(), 3, 200)
	defer s.Close()
	q := Query{OriginAS: []bgp.ASN{7001}}
	got, st := queryAll(t, s, q)
	var want []collector.Record
	for _, rec := range recs {
		if q.match(rec) {
			want = append(want, rec)
		}
	}
	assertSameRecords(t, got, want)
	if st.RecordsMaterialized != st.RecordsMatched {
		t.Fatalf("RecordsMaterialized %d != RecordsMatched %d (columnar filter should be exact)",
			st.RecordsMaterialized, st.RecordsMatched)
	}
	if st.RecordsMaterialized >= st.RecordsScanned {
		t.Fatalf("selective query materialized %d of %d scanned rows; columnar filtering had no effect",
			st.RecordsMaterialized, st.RecordsScanned)
	}
}

// TestTrimBlockReaderReleasesOversized pins the pooled-buffer fix: a
// blockScanner that read a pathologically large block must not pin its read
// buffer once returned to the pool.
func TestTrimBlockReaderReleasesOversized(t *testing.T) {
	bs := &blockScanner{buf: make([]byte, maxRetainedBlockBytes+1), scratch: new(colBlock)}
	putBlockScanner(bs)
	if bs.buf != nil {
		t.Fatalf("oversized read buffer retained: cap %d", cap(bs.buf))
	}
	small := &blockScanner{buf: make([]byte, 1024), scratch: new(colBlock)}
	putBlockScanner(small)
	if small.buf == nil {
		t.Fatal("right-sized buffer must be retained for reuse")
	}
}

// TestSingleflightLoadsOnce: concurrent cold scans of the same store must
// not decode the same block twice per cache generation — total misses stay
// bounded by the number of blocks loaded.
func TestSingleflightLoadsOnce(t *testing.T) {
	opts := testOptions()
	opts.BlockCacheBytes = 32 << 20
	s, recs := buildReadpathStore(t, t.TempDir(), opts, 2, 300)
	defer s.Close()

	const readers = 8
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.Query(Query{})
			if err != nil {
				errc <- err
				return
			}
			got, err := r.ReadAll()
			r.Close()
			if err != nil {
				errc <- err
				return
			}
			if len(got) != len(recs) {
				errc <- errors.New("short read under singleflight")
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	bc := s.Stats().BlockCache
	blocks := s.Stats().Blocks
	// Every block is decoded at most once; every other lookup is a hit
	// (resident or flight-wait). Misses == loads == blocks.
	if bc.Misses != uint64(blocks) {
		t.Fatalf("misses = %d, want %d (one load per block)", bc.Misses, blocks)
	}
	if bc.Hits == 0 {
		t.Fatal("no hits across concurrent identical scans")
	}
}
