package store

import (
	"context"
	"fmt"
	"io"
	"log"
	"slices"

	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/obs"
)

// ScanStats reports how much work a query actually did, making predicate
// pushdown measurable: a filtered query over a multi-segment store should
// show BlocksScanned (fetched) well below BlocksTotal.
type ScanStats struct {
	SegmentsTotal     int // sealed segments in the store at query time
	SegmentsScanned   int // segments not skipped by segment-level pruning
	BlocksTotal       int // blocks across all segments
	BlocksSelected    int // blocks the per-block index selected as candidates
	BlocksScanned     int // blocks actually scanned (from disk or cache)
	BlocksCacheHit    int // scanned blocks served from the shared block cache
	BlocksCacheMiss   int // scanned blocks the cache had to load from disk
	BlocksQuarantined int // corrupt blocks skipped instead of failing the scan
	BlocksV1          int // scanned blocks in v1 (inline-attr) format
	BlocksV2          int // scanned blocks in v2 (dictionary) format
	BlocksV3          int // scanned blocks in v3 (column-coded) format
	RecordsScanned    int // records the scanned blocks hold
	// RecordsMaterialized counts record structs actually constructed by the
	// columnar kernels — rows that survived the column filters. The gap to
	// RecordsScanned is work the columnar scan skipped.
	RecordsMaterialized int
	RecordsMatched      int   // records that satisfied the full predicate
	MemRecords          int   // unsealed records considered from the memtable
	BytesReadDisk       int64 // stored bytes read from files or mappings
	// BytesDecompressed is what this query's fetches had to expand before
	// they could scan: the inflated size of a legacy block; of a v3 block
	// only the timestamp column (deltas to 8-byte values) — nothing is
	// inflated, and types and codes are scanned where they were read.
	BytesDecompressed int64
	BytesFromCache    int64 // block bytes served from the block cache
}

// Reader streams the result of a Query in timestamp order. It implements
// collector.RecordReader, so query results plug directly into the
// classifier pipeline and the replay tool.
type Reader struct {
	q      Query
	merge                     // the streams and the scan accounting they feed
	run    []collector.Record // current run, owned by the stream that yielded it
	ri     int                // next row of run to return
	err    error              // sticky terminal scan error
	closed bool
	gen    uint64         // store generation at query time
	span   *obs.TraceSpan // "store_scan" child of the request trace; nil when untraced
}

// Query opens a reader over everything currently in the store — sealed
// segments and the unsealed memtable — that may match q. Results are merged
// in timestamp order (ties broken by segment age, then log order).
func (s *Store) Query(q Query) (*Reader, error) {
	return s.QueryCtx(context.Background(), q)
}

// QueryParallel is Query; workers is ignored. It remains only because the
// benchmark harness (internal/benchkit) still calls it: one serial segment
// scan per query is the read path, and the collapse of the Query entry points
// into one deletes this alias.
func (s *Store) QueryParallel(q Query, workers int) (*Reader, error) {
	return s.Query(q)
}

// QueryCtx is Query carrying a request context: when ctx holds an active
// trace span, the scan appears in the trace as a "store_scan" child (one
// grandchild per scanned segment) annotated with the EXPLAIN profile at
// Close. An untraced ctx costs nothing.
//
// Only the snapshot — candidate blocks, mapping or file references, the
// memtable overlay — is taken under the store lock. The first block of every
// stream is fetched after the lock is released, so a cold query's read and
// parse never hold up appends; a failure there is still this call's error.
func (s *Store) QueryCtx(ctx context.Context, q Query) (*Reader, error) {
	obsQueries.Inc()
	_, span := obs.StartChild(ctx, "store_scan")
	r := &Reader{q: q, span: span}
	mem, err := s.snapshot(r)
	if err == nil {
		if len(mem) > 0 {
			// Stable, so ties keep log order; the stream sorts after every
			// sealed segment on ties (its records are strictly newer appends).
			slices.SortStableFunc(mem, func(a, b collector.Record) int {
				return a.Time.Compare(b.Time)
			})
			ms := &memStream{cursor: cursor{recs: mem, order: ^uint64(0)}}
			r.add(&ms.cursor, ms)
		}
		err = r.prime()
	}
	if err != nil {
		r.err = err
		r.Close()
		return nil, err
	}
	return r, nil
}

// snapshot prunes the segment set for r's query and opens one unprimed stream
// per segment with candidate blocks, all under the store lock. It returns the
// matching unsealed records, unsorted.
func (s *Store) snapshot(r *Reader) ([]collector.Record, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.gen = s.Generation()
	r.stats.SegmentsTotal = len(s.segs)
	for _, g := range s.segs {
		r.stats.BlocksTotal += len(g.index.blocks)
		blocks, scan := g.candidateBlocks(r.q)
		if !scan {
			continue
		}
		r.stats.SegmentsScanned++
		if len(blocks) == 0 {
			continue
		}
		r.stats.BlocksSelected += len(blocks)
		ss, err := s.openScanLocked(g, &r.q, blocks, &r.stats)
		if err != nil {
			return nil, err
		}
		ss.cache, ss.quarantine = s.cache, true
		ss.span = segmentSpan(r.span, g, len(blocks))
		r.add(&ss.cursor, ss)
	}
	return s.memSnapshotLocked(&r.q, &r.stats), nil
}

// Next returns the next matching record, io.EOF at the end of the result.
//
// A non-corruption I/O failure mid-scan (corrupt blocks are quarantined, not
// errored) ends the result: the error is sticky, every later Next returns
// the same partial-scan error, and the records already returned remain a
// valid prefix of the merged sequence. The Reader must still be Closed.
func (r *Reader) Next() (collector.Record, error) {
	for r.err == nil {
		for r.ri < len(r.run) {
			rec := &r.run[r.ri]
			r.ri++
			if r.q.matches(rec) {
				r.stats.RecordsMatched++
				return *rec, nil
			}
		}
		run, err := r.nextRun()
		if err != nil {
			r.err = fmt.Errorf("store: partial scan: %w", err)
			break
		}
		if run == nil {
			return collector.Record{}, io.EOF
		}
		r.run, r.ri = run, 0
	}
	return collector.Record{}, r.err
}

// ReadAll drains the reader.
func (r *Reader) ReadAll() ([]collector.Record, error) {
	var out []collector.Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Stats returns the scan counters accumulated so far; final after the
// reader returns io.EOF.
func (r *Reader) Stats() ScanStats { return r.stats }

// Close releases the reader's segment references, publishes the query's
// pushdown accounting to the process metrics, and — when the query runs
// inside a trace — finishes the "store_scan" span with the EXPLAIN profile
// attached.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.run = nil
	r.closeStreams()
	publishScanStats(r.stats)
	if r.span != nil {
		r.Explain().annotate(r.span)
		r.span.SetError(r.err)
		r.span.Finish()
	}
	return nil
}

// memSnapshotLocked copies the unsealed records matching q, in append order,
// counting every considered record into stats.MemRecords. Unsealed means the
// live memtable plus any windows a background seal has detached but not yet
// published: a record stays query-visible through every stage of the seal
// pipeline, flipping from this overlay to the sealed segment under the same
// lock hold. Detached records precede live ones of the same window, so the
// caller's stable sort reproduces append order on timestamp ties exactly as
// when both halves lived in one memtable slice.
func (s *Store) memSnapshotLocked(q *Query, stats *ScanStats) []collector.Record {
	var mem []collector.Record
	add := func(recs []collector.Record) {
		stats.MemRecords += len(recs)
		for i := range recs {
			if q.matches(&recs[i]) {
				mem = append(mem, recs[i])
			}
		}
	}
	if b := s.sealing; b != nil {
		for _, sw := range b.windows[b.published:] {
			add(sw.recs)
		}
	}
	for _, mw := range s.mem {
		add(mw.recs)
	}
	return mem
}

// candidateBlocks applies segment- and block-level pruning. scan=false means
// the whole segment is skipped without touching its file.
func (g *segment) candidateBlocks(q Query) (blocks []int, scan bool) {
	if !q.timeOverlaps(g.minTime, g.maxTime) {
		return nil, false
	}
	if q.hasPrefix() && !g.index.filter.contains(prefixKey(q.Prefix)) {
		return nil, false
	}
	var peerSet, originSet map[int32]bool
	if len(q.PeerAS) > 0 {
		if peerSet = g.index.peers.blockSet(q.PeerAS); peerSet == nil {
			return nil, false
		}
	}
	if len(q.OriginAS) > 0 {
		if originSet = g.index.origins.blockSet(q.OriginAS); originSet == nil {
			return nil, false
		}
		// An origin predicate can only be satisfied by announcements; if
		// the type filter excludes them the query is empty, handled by the
		// record-level match (blocks still pruned by postings here).
	}
	for i, bm := range g.index.blocks {
		if !q.timeOverlaps(bm.minTime, bm.maxTime) {
			continue
		}
		if peerSet != nil && !peerSet[int32(i)] {
			continue
		}
		if originSet != nil && !originSet[int32(i)] {
			continue
		}
		blocks = append(blocks, i)
	}
	return blocks, true
}

// noteBlock accounts one successfully scanned block. hit reports whether the
// block came out of the shared cache (no disk read, no parse);
// cached whether a cache was in play at all, so hit/miss counters stay zero
// on cache-off scans. n is the number of records the block's columnar filter
// materialized: 0 for a block a dictionary probe rejected, which was still
// fetched and counts as scanned.
func (st *ScanStats) noteBlock(g *segment, bi int, hit, cached bool, n int) {
	bm := g.index.blocks[bi]
	st.BlocksScanned++
	st.RecordsScanned += int(bm.count)
	st.RecordsMaterialized += n
	if hit {
		st.BlocksCacheHit++
		st.BytesFromCache += int64(bm.ulen)
	} else {
		if cached {
			st.BlocksCacheMiss++
		}
		st.BytesReadDisk += int64(bm.clen)
		if g.ver < segVersionV3 {
			st.BytesDecompressed += int64(bm.ulen)
		} else {
			st.BytesDecompressed += 8 * int64(bm.count)
		}
	}
	switch g.ver {
	case segVersionV1:
		st.BlocksV1++
	case segVersionV2:
		st.BlocksV2++
	default:
		st.BlocksV3++
	}
}

// segmentSpan opens the per-segment trace span under the scan span. Nil in,
// nil out: untraced queries pay nothing.
func segmentSpan(parent *obs.TraceSpan, g *segment, blocks int) *obs.TraceSpan {
	if parent == nil {
		return nil
	}
	sp := parent.StartChild("segment")
	sp.Annotate("path", g.path)
	sp.AnnotateInt("blocks_selected", int64(blocks))
	return sp
}

// stream is one sorted source feeding the merge. Every implementation embeds
// the cursor the merge reads its rows through.
type stream interface {
	// next replaces the cursor's rows, all consumed, with the surviving rows
	// of the stream's next block that has any; false at the end of the stream.
	next() (bool, error)
	close()
}

// cursor is a stream's place in the merge: the surviving rows of its current
// block, the head row, and the head's sort key, cached so that ordering
// streams never touches a record.
type cursor struct {
	recs  []collector.Record // time-ordered; recs[pos:] not yet merged
	pos   int
	t     int64  // key of recs[pos]; nextRun refreshes the top stream's
	order uint64 // ties on t go to the lower order: segment seq, memtable last
	src   stream
}

// load points the cursor at a freshly materialized block and reports whether
// it holds any row.
func (c *cursor) load(recs []collector.Record) bool {
	c.recs, c.pos = recs, 0
	if len(recs) == 0 {
		return false
	}
	c.t = recs[0].Time.UnixNano()
	return true
}

func (c *cursor) before(d *cursor) bool {
	return c.t < d.t || c.t == d.t && c.order < d.order
}

// runEnd returns the end of the run at c's head: the index of the first later
// row that sorts after d's head, which is the per-record merge order (ties to
// the lower order) decided for a whole run at once. Galloping before the
// bisection keeps a short run, as between interleaved streams, at a probe or
// two, and a run that spans the block at log n.
func (c *cursor) runEnd(d *cursor) int {
	limit := d.t // rows with a key below limit stay in the run
	if c.order < d.order {
		limit++ // and c wins ties
	}
	lo, hi := c.pos+1, c.pos+1
	for step := 1; hi < len(c.recs) && c.recs[hi].Time.UnixNano() < limit; step *= 2 {
		lo = hi + 1
		hi += step
	}
	hi = min(hi, len(c.recs))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.recs[mid].Time.UnixNano() < limit {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// merge is the k-way merge of sorted streams that readers and compaction
// share. It moves a run at a time: the heap is consulted when the top stream's
// next row would sort after another stream's head or its block runs out, not
// per record, so time-disjoint streams (one segment per window, as after
// compaction) cost one heap operation per block and none per row.
type merge struct {
	streams []*cursor // min-heap by (t, order) once primed
	stats   ScanStats // what the streams scanned, noted as each block is fetched
}

func (m *merge) add(c *cursor, src stream) {
	c.src = src
	m.streams = append(m.streams, c)
}

// prime fetches every stream's first block, drops the streams that turn out
// empty, and orders the rest. On error every stream is still in m.streams
// for closeStreams.
func (m *merge) prime() error {
	live := m.streams[:0]
	for i, c := range m.streams {
		ok, err := c.src.next()
		if err != nil {
			m.streams = append(live, m.streams[i:]...)
			return err
		}
		if ok {
			live = append(live, c)
		} else {
			c.src.close()
		}
	}
	m.streams = live
	for i := len(live)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
	return nil
}

// nextRun returns the next rows of the merged sequence: the longest prefix of
// the top stream's unmerged rows that sorts before every other stream's head.
// The slice belongs to that stream and is valid until the next call. nil
// means the end of the input.
func (m *merge) nextRun() ([]collector.Record, error) {
	for len(m.streams) > 0 {
		// The top stream yielded the previous run; re-key it.
		c := m.streams[0]
		if c.pos < len(c.recs) {
			c.t = c.recs[c.pos].Time.UnixNano()
		} else if ok, err := c.src.next(); err != nil {
			return nil, err
		} else if !ok {
			n := len(m.streams) - 1
			m.streams[0], m.streams[n] = m.streams[n], nil
			m.streams = m.streams[:n]
			c.src.close()
			continue
		}
		m.siftDown(0)
		c = m.streams[0]
		end := len(c.recs)
		if h := m.streams; len(h) > 2 && h[2].before(h[1]) {
			end = c.runEnd(h[2])
		} else if len(h) > 1 {
			end = c.runEnd(h[1])
		}
		run := c.recs[c.pos:end]
		c.pos = end
		return run, nil
	}
	return nil, nil
}

func (m *merge) siftDown(i int) {
	h := m.streams
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		if r := l + 1; r < len(h) && h[r].before(h[l]) {
			l = r
		}
		if !h[l].before(h[i]) {
			return
		}
		h[i], h[l] = h[l], h[i]
		i = l
	}
}

// closeStreams closes every stream still in the merge: all of them after an
// early Close or an error, none after a full drain.
func (m *merge) closeStreams() {
	for _, c := range m.streams {
		c.src.close()
	}
	m.streams = nil
}

// quarantineBlock records one corrupt block skipped by a query: the process
// counter moves immediately (so a live scrape sees damage as it is found)
// and the segment is named in the log, since a quarantined block means bad
// media or a torn seal that an operator should know about.
func quarantineBlock(path string, bi int, err error) {
	obsQuarantinedBlocks.Inc()
	log.Printf("store: quarantined corrupt block %d of %s: %v", bi, path, err)
}

// segStream iterates the candidate blocks of one segment: each block is
// fetched in columnar form (through the shared cache when the store has one),
// filtered column-wise, and only the surviving rows are materialized into the
// stream's record buffer. It holds the reference that keeps the segment
// readable until close.
type segStream struct {
	cursor
	seg    *segment
	f      faults.File // open only when mm is nil: mapped blocks are sliced, not read
	mm     *segMap     // acquired mapping reference, nil on the ReadAt path
	q      *Query      // predicates the columnar kernels filter by
	cache  *blockCache // shared block cache, nil when disabled or bypassed
	blocks []int
	bi     int // next index into blocks
	bs     *blockScanner
	// quarantine skips corrupt blocks instead of failing the scan. Queries
	// set it; compaction merges leave it off, because silently dropping a
	// block while rewriting segments would turn detectable damage into
	// permanent record loss.
	quarantine bool
	stats      *ScanStats
	span       *obs.TraceSpan // per-segment trace span; nil when untraced
}

// openScanLocked opens a stream over the given blocks of g through the
// reference a scan reads by — the mapping when the segment has one, whose
// refcount keeps compaction from unmapping under the scan, else a file of
// its own.
func (s *Store) openScanLocked(g *segment, q *Query, blocks []int, stats *ScanStats) (*segStream, error) {
	ss := &segStream{seg: g, mm: g.mm, q: q, blocks: blocks, stats: stats}
	ss.order = g.seq
	if g.mm == nil {
		f, err := s.fs.Open(g.path)
		if err != nil {
			return nil, err
		}
		ss.f = f
	}
	g.mm.acquire()
	ss.bs = getBlockScanner()
	return ss, nil
}

func (ss *segStream) next() (bool, error) {
	for ss.bi < len(ss.blocks) {
		bi := ss.blocks[ss.bi]
		ss.bi++
		// The previous block's rows are all merged, so its backing array is
		// reused for this one — one record buffer per stream, total.
		recs, hit, err := ss.bs.scan(ss.seg, ss.f, ss.mm, ss.cache, bi, ss.q, ss.recs[:0])
		if err != nil {
			// Corruption under a query is quarantined and the scan goes on;
			// anything else ends the stream with the segment named.
			if !ss.quarantine || !isCorrupt(err) {
				return false, fmt.Errorf("segment %s: %w", ss.seg.path, err)
			}
			quarantineBlock(ss.seg.path, bi, err)
			ss.stats.BlocksQuarantined++
			ss.span.AnnotateInt("quarantined_block", int64(bi))
			continue
		}
		ss.stats.noteBlock(ss.seg, bi, hit, ss.cache != nil, len(recs))
		if ss.load(recs) {
			return true, nil
		}
	}
	return false, nil
}

func (ss *segStream) close() {
	if ss.bs != nil {
		putBlockScanner(ss.bs)
		ss.bs = nil
	}
	ss.span.Finish()
	ss.span = nil
	ss.mm.release()
	ss.mm = nil
	if ss.f != nil {
		ss.f.Close()
		ss.f = nil
	}
}

// memStream iterates the memtable snapshot, which is one block: loaded by
// the first next, exhausted at the second.
type memStream struct{ cursor }

func (ms *memStream) next() (bool, error) {
	return ms.load(ms.recs[ms.pos:]), nil
}

func (ms *memStream) close() {}
