package benchkit

import (
	"time"

	"instability/internal/store"
)

// queryRun is one client working through a query list against the shared
// read-only store: cold with the block cache off over all days, warm with
// the shipped 32 MiB cache over a hot window that fits it.
type queryRun struct {
	st   *store.Store
	list []benchQuery
	// verified is set once a pass has compared every answer by hash. That
	// pass is the untimed warm-up, which on the warm store is also the fill.
	verified bool
	cache    *store.BlockCacheStats // at the first traced pass
}

func openQueryCold(e *env, _ *run) (workloadRun, error) { return openQuery(e, e.cold, 0) }

func openQueryWarm(e *env, _ *run) (workloadRun, error) { return openQuery(e, e.hot, warmCache) }

func openQuery(e *env, list []benchQuery, blockCache int64) (workloadRun, error) {
	st, err := store.Open(e.storeDir, StoreOptions(blockCache))
	if err != nil {
		return nil, err
	}
	return &queryRun{st: st, list: list}, nil
}

func (w *queryRun) close() error { return w.st.Close() }

// queryTimes is where one query's time went.
type queryTimes struct{ open, drain, close time.Duration }

func (t queryTimes) total() time.Duration { return t.open + t.drain + t.close }

// execQuery runs q the way a caller does — Query, Next to the end, Close —
// with a span on each of the three.
func execQuery(st *store.Store, q store.Query, tr *Tracer, root *ActiveSpan, h *Hasher) (Answer, queryTimes, store.Explain, error) {
	var t queryTimes
	sp := tr.Start(root, "store.query.open")
	t0 := time.Now()
	rd, err := st.Query(q)
	t.open = time.Since(t0)
	sp.End(0)
	if err != nil {
		return Answer{}, t, store.Explain{}, err
	}
	sp = tr.Start(root, "store.query.drain")
	t0 = time.Now()
	a, err := drain(rd, h)
	t.drain = time.Since(t0)
	sp.End(int64(a.Count))
	sp = tr.Start(root, "store.query.close")
	t0 = time.Now()
	rd.Close()
	t.close = time.Since(t0)
	sp.End(0)
	return a, t, rd.Explain(), err
}

// noteQuery files one executed query under its shape.
func noteQuery(s *sampleSet, shape string, a Answer, t queryTimes, ex store.Explain) {
	s.add("store.query."+shape+"_ms", ms(t.total()))
	s.add("store.query.open_us", float64(t.open.Nanoseconds())/1e3)
	s.sum("q.drain_ns", float64(t.drain.Nanoseconds()))
	s.sum("q.returned", float64(a.Count))
	s.sum("q.scanned", float64(ex.RecordsScanned))
	s.sum("q.mem", float64(ex.MemRecords))
	s.sum("q.materialized", float64(ex.RecordsMaterialized))
	s.sum("q.matched", float64(ex.RecordsMatched))
	s.sum("q.inflated", float64(ex.BytesDecompressed))
	s.sum("q.disk", float64(ex.BytesReadDisk))
	s.sum("q."+shape+".blocks_scanned", float64(ex.BlocksScanned))
	s.sum("q."+shape+".blocks_total", float64(ex.BlocksTotal))
}

// checkAnswer compares a result with the oracle's: by count always, by hash
// when the drain hashed.
func checkAnswer(r *run, q benchQuery, got Answer, hashed bool) {
	if !hashed {
		got.Hash = q.Want.Hash
	}
	r.check(got == q.Want, "query %s {%s}: got %+v, reference %+v", q.Shape, q.Spec, got, q.Want)
}

func (w *queryRun) pass(tr *Tracer, root *ActiveSpan, s *sampleSet, r *run) (passOut, error) {
	var h *Hasher
	if !w.verified {
		w.verified, h = true, &Hasher{}
	}
	if tr != nil && w.cache == nil {
		bc := w.st.Stats().BlockCache
		w.cache = &bc
	}
	var out passOut
	a0 := allocBytes()
	for _, q := range w.list {
		got, t, ex, err := execQuery(w.st, q.Q, tr, root, h)
		r.op(1)
		if err != nil {
			r.fail("query %s {%s}: %v", q.Shape, q.Spec, err)
			continue
		}
		checkAnswer(r, q, got, h != nil)
		noteQuery(s, q.Shape, got, t, ex)
		sec := t.total().Seconds()
		out.wall += sec
		if q.selective() {
			s.add("op_ms", ms(t.total()))
			out.ops++
			out.opWall += sec
		} else {
			out.records += int64(got.Count)
			out.rates = append(out.rates, share(float64(got.Count), sec))
		}
	}
	s.sum("alloc_bytes.query", allocBytes()-a0)
	if tr != nil {
		// The pooled scan the ROADMAP wants judged against the serial one:
		// every full scan once more through QueryParallel. Harness time, not
		// the workload's.
		for _, q := range w.list {
			if q.Shape != "full" {
				continue
			}
			sp := tr.Start(root, "bench.parallel_full")
			t0 := time.Now()
			rd, err := w.st.QueryParallel(q.Q, 2)
			if err != nil {
				return out, err
			}
			got, err := drain(rd, nil)
			rd.Close()
			s.add("store.query.parallel_full_ms", ms(time.Since(t0)))
			sp.End(int64(got.Count))
			if err != nil {
				return out, err
			}
			checkAnswer(r, q, got, false)
		}
	}
	return out, nil
}

func (w *queryRun) layers(r *run, s *sampleSet, tot map[string]SpanTotals, outs []passOut) {
	readLayers(r, s)
	pf := s.get("store.query.parallel_full_ms")
	r.set("store.query.parallel_full_ms_p50", pf.Median(), len(pf))
	r.set("store.query.alloc_bytes_per_record", share(s.sums["alloc_bytes.query"], s.sums["q.returned"]), len(outs))
	cacheLayers(r, *w.cache, w.st.Stats().BlockCache)
}

// readLayers fills the read-path metrics every querying workload shares.
func readLayers(r *run, s *sampleSet) {
	open := s.get("store.query.open_us")
	r.set("store.query.open_us_p50", open.Median(), len(open))
	r.set("store.query.drain_ns_per_record", share(s.sums["q.drain_ns"], s.sums["q.returned"]), len(open))
	for _, shape := range []string{"full", "type", "range", "origin", "prefix", "peer"} {
		l := s.get("store.query." + shape + "_ms")
		r.set("store.query."+shape+"_ms_p50", l.Median(), len(l))
	}
	for _, shape := range []string{"origin", "prefix", "peer"} {
		r.set("store.query."+shape+".block_scan_share",
			share(s.sums["q."+shape+".blocks_scanned"], s.sums["q."+shape+".blocks_total"]),
			len(s.get("store.query."+shape+"_ms")))
	}
	scanned := s.sums["q.scanned"]
	r.set("store.query.scanned_per_matched", share(scanned+s.sums["q.mem"], s.sums["q.matched"]), len(open))
	r.set("store.query.materialized_share", share(s.sums["q.materialized"], scanned), len(open))
	r.set("store.query.inflate_bytes_per_record", share(s.sums["q.inflated"], scanned), len(open))
	r.set("store.query.disk_bytes_per_record", share(s.sums["q.disk"], scanned), len(open))
	r.set("store.query.mem_share", share(s.sums["q.mem"], scanned+s.sums["q.mem"]), len(open))
}

// cacheLayers reads the block cache's behaviour between two Stats.
func cacheLayers(r *run, from, to store.BlockCacheStats) {
	hits, misses := float64(to.Hits-from.Hits), float64(to.Misses-from.Misses)
	r.set("store.blockcache.hit_share", share(hits, hits+misses), int(hits+misses))
	r.set("store.blockcache.evictions", float64(to.Evictions-from.Evictions), int(hits+misses))
	r.set("store.blockcache.used_mb", float64(to.UsedBytes)/(1<<20), 1)
}
