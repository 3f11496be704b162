package benchkit

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"instability/internal/store"
)

// hashEvery is how often mixed's reader hashes a result instead of timing
// it: hashing costs about what draining does, so a hashed query is checked
// but gives no latency sample.
const hashEvery = 8

// mixed is writes beside reads on one store: preloaded and sealed with the
// first days, then one appender ingests the rest while one reader loops
// selective queries confined to the preloaded days, whose answers the
// appends must not change.
type mixed struct {
	e       *env
	queries []benchQuery
	// preload is a store sealed with the first days, built once; each pass
	// starts from a copy of its files, so the pass and the series deltas
	// around it hold nothing but the concurrent phase.
	preload string
	asked   int // queries issued so far, across passes
}

func openMixed(e *env, _ *run) (workloadRun, error) {
	w := &mixed{e: e, preload: filepath.Join(e.opts.TmpDir, "mixed-preload")}
	for _, q := range e.mixed {
		if q.selective() {
			w.queries = append(w.queries, q)
		}
	}
	return w, buildStore(w.preload, e.camp.Recs[:e.camp.DayOff[e.preDays]], false)
}

// copyDir copies the regular files of one flat directory into another.
func copyDir(from, to string) error {
	entries, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(from, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(to, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (w *mixed) close() error { return os.RemoveAll(w.preload) }

func (w *mixed) pass(tr *Tracer, root *ActiveSpan, s *sampleSet, r *run) (passOut, error) {
	c := w.e.camp
	split := c.DayOff[w.e.preDays]
	dir, err := os.MkdirTemp(w.e.opts.TmpDir, "mixed")
	if err != nil {
		return passOut{}, err
	}
	defer os.RemoveAll(dir)
	if err := copyDir(w.preload, dir); err != nil {
		return passOut{}, err
	}
	st, err := store.Open(dir, StoreOptions(warmCache))
	if err != nil {
		return passOut{}, err
	}
	defer st.Close()
	cache := st.Stats().BlockCache

	// The reader keeps its own samples and checks; they are merged once it
	// has stopped.
	var stop atomic.Bool
	started, done := make(chan struct{}), make(chan struct{})
	rs, rr := newSampleSet(), newRun()
	var reads int64
	var readWall time.Duration
	go func() {
		defer close(done)
		close(started)
		var h Hasher
		// At least one timed query, even when the appender of a tiny
		// campaign is done before the first one returns.
		for !stop.Load() || reads == 0 {
			q := w.queries[w.asked%len(w.queries)]
			w.asked++
			hashed := w.asked%hashEvery == 0
			var got Answer
			var t queryTimes
			var ex store.Explain
			var err error
			if hashed {
				got, t, ex, err = execQuery(st, q.Q, nil, nil, &h)
			} else {
				got, t, ex, err = execQuery(st, q.Q, tr, root, nil)
			}
			rr.op(1)
			if err != nil {
				rr.fail("mixed query %s {%s}: %v", q.Shape, q.Spec, err)
				continue
			}
			checkAnswer(rr, q, got, hashed)
			if hashed {
				continue
			}
			noteQuery(rs, q.Shape, got, t, ex)
			rs.add("op_ms", ms(t.total()))
			reads++
			readWall += t.total()
		}
	}()

	<-started
	t0 := time.Now()
	batches, err := appendChunks(st.Writer(), c.Recs[split:], tr, root, s, "append_ms")
	if err == nil {
		sp := tr.Start(root, "store.seal_wait")
		tSeal := time.Now()
		err = st.Writer().Seal()
		s.add("store.seal_wait_s", time.Since(tSeal).Seconds())
		sp.End(0)
	}
	wall := time.Since(t0).Seconds()
	stop.Store(true)
	<-done
	if err != nil {
		return passOut{}, err
	}

	r.op(int64(batches) + rr.attempted)
	r.failed += rr.failed
	r.errs = append(r.errs, rr.errs...)
	s.merge(rs)
	final := st.Stats()
	r.check(final.Records == int64(len(c.Recs)) && final.MemRecords == 0,
		"mixed: %d sealed + %d unsealed records after Seal, campaign has %d", final.Records, final.MemRecords, len(c.Recs))
	s.add("store.segments", float64(final.Segments))
	s.add("store.blocks", float64(final.Blocks))
	s.add("bytes_per_record", float64(final.DiskBytes)/float64(len(c.Recs)))
	bc := final.BlockCache
	s.sum("cache.hits", float64(bc.Hits-cache.Hits))
	s.sum("cache.misses", float64(bc.Misses-cache.Misses))
	s.sum("cache.evictions", float64(bc.Evictions-cache.Evictions))
	s.add("cache.used_mb", float64(bc.UsedBytes)/(1<<20))
	return passOut{wall: wall, records: int64(len(c.Recs) - split), ops: reads, opWall: readWall.Seconds()}, nil
}

func (w *mixed) layers(r *run, s *sampleSet, tot map[string]SpanTotals, outs []passOut) {
	passes := len(outs)
	appendLayers(r, s, tot, "append_ms")
	readLayers(r, s)
	r.set("store.seal_wait_s", s.get("store.seal_wait_s").Median(), passes)
	r.set("store.segments", s.get("store.segments").Median(), passes)
	r.set("store.blocks", s.get("store.blocks").Median(), passes)
	r.set("bytes_per_record", s.get("bytes_per_record").Median(), passes)
	hits, misses := s.sums["cache.hits"], s.sums["cache.misses"]
	r.set("store.blockcache.hit_share", share(hits, hits+misses), int(hits+misses))
	r.set("store.blockcache.evictions", s.sums["cache.evictions"], int(hits+misses))
	r.set("store.blockcache.used_mb", s.get("cache.used_mb").Median(), passes)
	internLayers(r, s, passes)
}
