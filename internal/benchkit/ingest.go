package benchkit

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/store"
)

// ingest is the store's write path alone: batches into a fresh store, then
// Seal, Compact, Close. Nothing reads while it writes.
type ingest struct {
	e      *env
	hashed bool // the full-scan hash check ran (once is enough: every pass writes the same bytes)
}

func openIngest(e *env, _ *run) (workloadRun, error) { return &ingest{e: e}, nil }

func (w *ingest) close() error { return nil }

func (w *ingest) pass(tr *Tracer, root *ActiveSpan, s *sampleSet, r *run) (passOut, error) {
	recs := w.e.camp.Recs
	dir, err := os.MkdirTemp(w.e.opts.TmpDir, "ingest")
	if err != nil {
		return passOut{}, err
	}
	defer os.RemoveAll(dir)

	opts := StoreOptions(0)
	var fs *countingFS
	if tr != nil {
		// Counting what reaches the filesystem needs a wrapper, and a
		// non-Disk FS turns mmap off: traced passes only, and ingest never
		// reads through a mapping anyway.
		fs = &countingFS{}
		opts.FS = fs
	}
	st, err := store.Open(dir, opts)
	if err != nil {
		return passOut{}, err
	}
	a0 := allocBytes()
	t0 := time.Now()
	ops, err := appendChunks(st.Writer(), recs, tr, root, s, "op_ms")
	if err != nil {
		st.Close()
		return passOut{}, err
	}
	sp := tr.Start(root, "store.seal_wait")
	tSeal := time.Now()
	err = st.Writer().Seal()
	s.add("store.seal_wait_s", time.Since(tSeal).Seconds())
	sp.End(0)
	if err != nil {
		st.Close()
		return passOut{}, err
	}
	sealed := st.Stats()
	sp = tr.Start(root, "store.compact")
	cs, err := st.Compact()
	sp.End(cs.RecordsRewritten)
	if err != nil {
		st.Close()
		return passOut{}, err
	}
	compacted := st.Stats()
	sp = tr.Start(root, "store.close")
	tClose := time.Now()
	err = st.Close()
	s.add("store.close_ms", ms(time.Since(tClose)))
	sp.End(0)
	if err != nil {
		return passOut{}, err
	}
	wall := time.Since(t0).Seconds()
	s.sum("alloc_bytes.ingest", allocBytes()-a0)

	r.op(int64(ops))
	n := int64(len(recs))
	r.check(sealed.Records == n && sealed.MemRecords == 0,
		"ingest: %d sealed + %d unsealed records after Seal, appended %d", sealed.Records, sealed.MemRecords, n)
	r.check(compacted.Records == n, "ingest: %d records after Compact, appended %d", compacted.Records, n)
	s.add("bytes_per_record", float64(compacted.DiskBytes)/float64(n))
	s.add("store.segments", float64(compacted.Segments))
	s.add("store.blocks", float64(compacted.Blocks))
	s.sum("store.rewritten", float64(cs.RecordsRewritten))
	s.sum("store.appended", float64(n))
	if fs != nil {
		s.sum("fs.wal_bytes", float64(fs.wal.Load()))
		s.sum("fs.seg_bytes", float64(fs.seg.Load()))
	}

	// Untimed: the store must come back whole from its files.
	sp = tr.Start(root, "store.open")
	tOpen := time.Now()
	st, err = store.Open(dir, StoreOptions(0))
	s.add("store.open_ms", ms(time.Since(tOpen)))
	sp.End(0)
	if err != nil {
		return passOut{}, err
	}
	defer st.Close()
	reopened := st.Stats()
	r.check(reopened.Records == n && reopened.MemRecords == 0,
		"ingest: %d records after reopen (+%d replayed), appended %d", reopened.Records, reopened.MemRecords, n)
	// The first pass hashes the full scan; later ones, writing the same
	// bytes, only count it.
	var h *Hasher
	if !w.hashed {
		w.hashed, h = true, &Hasher{}
	}
	rd, err := st.Query(store.Query{})
	if err != nil {
		return passOut{}, err
	}
	got, err := drain(rd, h)
	rd.Close()
	if err != nil {
		return passOut{}, err
	}
	if h == nil {
		got.Hash = w.e.oracle.All.Hash
	}
	r.check(got == w.e.oracle.All, "ingest: full scan returned %+v, campaign is %+v", got, w.e.oracle.All)
	s.sum("store.block_bytes", float64(rd.Explain().BytesDecompressed))
	return passOut{wall: wall, records: n, ops: int64(ops)}, nil
}

// appendChunks ingests recs in batches, timing each AppendBatch into the
// lat histogram and wrapping every chunkRecords in one store.append span. It
// returns the number of batches.
func appendChunks(w *store.Writer, recs []collector.Record, tr *Tracer, root *ActiveSpan, s *sampleSet, lat string) (int, error) {
	ops := 0
	for i := 0; i < len(recs); i += chunkRecords {
		chunk := recs[i:min(i+chunkRecords, len(recs))]
		sp := tr.Start(root, "store.append")
		err := appendAll(w, chunk, func(_ int, d time.Duration) {
			s.add(lat, ms(d))
			ops++
		})
		sp.End(int64(len(chunk)))
		if err != nil {
			return ops, err
		}
	}
	return ops, nil
}

func (w *ingest) layers(r *run, s *sampleSet, tot map[string]SpanTotals, outs []passOut) {
	passes := len(outs)
	appendLayers(r, s, tot, "op_ms")
	r.set("store.seal_wait_s", s.get("store.seal_wait_s").Median(), passes)
	ct := tot["store.compact"]
	r.set("store.compact_ns_per_record", share(float64(ct.Total.Nanoseconds()), float64(ct.Count)), ct.Spans)
	r.set("store.compact_rewrite_share", share(s.sums["store.rewritten"], s.sums["store.appended"]), passes)
	r.set("store.close_ms", s.get("store.close_ms").Median(), passes)
	r.set("store.open_ms", s.get("store.open_ms").Median(), passes)
	r.set("store.segments", s.get("store.segments").Median(), passes)
	r.set("store.blocks", s.get("store.blocks").Median(), passes)
	r.set("bytes_per_record", s.get("bytes_per_record").Median(), passes)
	appended := s.sums["store.appended"]
	wire := float64(w.e.oracle.WireBytes) * float64(passes)
	saved := s.sums["irtl_store_dict_bytes_saved_total"]
	// Compaction rewrites re-encode their records, so the dictionary saved
	// its bytes on appended+rewritten records; the final store's decoded
	// block bytes are scaled up to the same population.
	written := s.sums["store.block_bytes"] * share(appended+s.sums["store.rewritten"], appended)
	r.set("store.dict_saved_share", share(saved, saved+written), passes)
	r.set("store.write_amp", share(s.sums["fs.wal_bytes"]+s.sums["fs.seg_bytes"], wire), passes)
	r.set("store.wal_bytes_per_record", share(s.sums["fs.wal_bytes"], appended), passes)
	r.set("store.alloc_bytes_per_record", share(s.sums["alloc_bytes.ingest"], appended), passes)
	internLayers(r, s, passes)
}

// appendLayers fills the AppendBatch metrics from the latency histogram named
// lat and the store.append spans.
func appendLayers(r *run, s *sampleSet, tot map[string]SpanTotals, lat string) {
	ap := tot["store.append"]
	l := s.get(lat)
	r.set("store.append_ns_per_record", share(float64(ap.Total.Nanoseconds()), float64(ap.Count)), ap.Spans)
	r.set("store.append_ms_p50", l.Median(), len(l))
	r.set("append_ms_p99", l.Quantile(0.99), len(l))
	r.set("store.append_ms_max", l.Max(), len(l))
	writeSeries(r, s, float64(ap.Count))
}

// writeSeries fills the metrics read from the WAL and background-seal series
// the store publishes, for a traced run that appended that many records. The
// two _max metrics are the upper edge of the highest occupied histogram
// bucket, over the whole process.
func writeSeries(r *run, s *sampleSet, appended float64) {
	sealed := s.sums["irtl_store_sealed_records_total"]
	perRecord := func(metric, series string, n float64) {
		r.set(metric, share(s.sums[series+".sum"]*1e9, n), int(s.sums[series+".count"]))
	}
	perRecord("store.wal_append_ns_per_record", "irtl_store_wal_append_seconds", appended)
	perRecord("store.seal_sort_ns_per_record", "irtl_store_seal_sort_seconds", sealed)
	perRecord("store.seal_write_ns_per_record", "irtl_store_seal_write_seconds", sealed)
	for metric, series := range map[string]string{
		"store.seal_publish_ms_max": "irtl_store_seal_publish_seconds",
		"store.seal_stall_ms_max":   "irtl_store_seal_stall_seconds",
	} {
		h := obsHistogram(series)
		r.set(metric, h.Quantile(1)*1e3, int(h.Count()))
	}
}

// countingFS is faults.Disk with a byte counter on every write, split by
// what the file is: the WAL (wal.log, wal-<n>.log) or a segment.
type countingFS struct {
	faults.Disk
	wal, seg atomic.Int64
}

func (c *countingFS) wrap(f faults.File, err error) (faults.File, error) {
	if err != nil {
		return nil, err
	}
	n := &c.seg
	if strings.HasPrefix(filepath.Base(f.Name()), "wal") {
		n = &c.wal
	}
	return &countingFile{File: f, n: n}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (faults.File, error) {
	return c.wrap(c.Disk.OpenFile(name, flag, perm))
}

func (c *countingFS) Create(name string) (faults.File, error) { return c.wrap(c.Disk.Create(name)) }

type countingFile struct {
	faults.File
	n *atomic.Int64
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.n.Add(int64(n))
	return n, err
}
