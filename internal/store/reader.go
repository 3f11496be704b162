package store

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"log"
	"slices"

	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/obs"
)

// Reader streams the result of a Query in timestamp order. It implements
// collector.RecordReader, so query results plug directly into the
// classifier pipeline and the replay tool.
type Reader struct {
	q          Query
	merge              // the streams and the scan accounting they feed
	run        *cursor // the stream whose rows [ri, runEnd) are the current run
	ri, runEnd int
	err        error // sticky terminal scan error
	closed     bool
	span       *obs.TraceSpan // "store_scan" child of the request trace; nil when untraced
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
// grandchild per scanned segment, up to maxSegmentSpans) annotated with the
// EXPLAIN profile at Close. An untraced ctx costs nothing.
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
			slices.SortStableFunc(mem, func(a, b memRec) int { return cmp.Compare(a.ns, b.ns) })
			keys := make([]int64, len(mem))
			for i := range mem {
				keys[i] = mem[i].ns
			}
			ms := &memStream{cursor: cursor{ts: keys, mem: mem, order: ^uint64(0)}}
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
// matching unsealed rows, unsorted.
func (s *Store) snapshot(r *Reader) ([]memRec, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r.ex.Generation = s.Generation()
	r.ex.SegmentsTotal = len(s.segs)
	for _, g := range s.segs {
		r.ex.BlocksTotal += len(g.index.blocks)
		blocks, scan := g.candidateBlocks(r.q)
		if !scan {
			continue
		}
		r.ex.SegmentsScanned++
		if len(blocks) == 0 {
			continue
		}
		r.ex.BlocksSelected += len(blocks)
		ss, err := s.openScanLocked(g, &r.q, blocks, &r.ex)
		if err != nil {
			return nil, err
		}
		ss.cache, ss.quarantine = s.cache, true
		if len(r.streams) < maxSegmentSpans {
			ss.span = segmentSpan(r.span, g, len(blocks))
		}
		r.add(&ss.cursor, ss)
	}
	return s.memSnapshotLocked(&r.q, &r.ex), nil
}

// Next returns the next matching record, io.EOF at the end of the result.
// Each row the kernels selected is built once, straight into the result.
//
// A non-corruption I/O failure mid-scan (corrupt blocks are quarantined, not
// errored) ends the result: the error is sticky, every later Next returns
// the same partial-scan error, and the records already returned remain a
// valid prefix of the merged sequence. The Reader must still be Closed.
func (r *Reader) Next() (rec collector.Record, _ error) {
	for r.err == nil {
		if r.ri < r.runEnd {
			r.run.fill(&rec, r.ri)
			r.ri++
			r.ex.RecordsMatched++
			return rec, nil
		}
		c, lo, hi, err := r.nextRun()
		if err != nil {
			r.err = fmt.Errorf("store: partial scan: %w", err)
			break
		}
		if c == nil {
			return rec, io.EOF
		}
		r.run, r.ri, r.runEnd = c, lo, hi
	}
	return rec, r.err
}

// Close releases the reader's segment references, publishes the query's
// pushdown accounting to the process metrics, and — when the query runs
// inside a trace — finishes the "store_scan" span with the EXPLAIN profile
// attached.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.run, r.ri, r.runEnd = nil, 0, 0
	r.closeStreams()
	publishExplain(&r.ex)
	if r.span != nil {
		r.Explain().annotate(r.span)
		r.span.SetError(r.err)
		r.span.Finish()
	}
	return nil
}

// memSnapshotLocked copies out the unsealed rows matching q, in append order,
// counting every considered record into ex.MemRecords. Unsealed means
// the live memtable plus any windows the seal queue has detached but not
// yet published: a record stays query-visible through every stage of the seal
// pipeline, flipping from this overlay to the sealed segment under the same
// lock hold. Detached records come in cut order and precede live ones of the
// same window, so the caller's stable sort reproduces append order on
// timestamp ties exactly as when they all lived in one memtable slice.
func (s *Store) memSnapshotLocked(q *Query, ex *Explain) []memRec {
	var mem []memRec
	add := func(rows []memRec) {
		ex.MemRecords += len(rows)
		for i := range rows {
			if rec := rows[i].record(); q.Matches(&rec) {
				mem = append(mem, rows[i])
			}
		}
	}
	s.unpublishedLocked(func(sw *sealWindow) { add(sw.recs) })
	for _, mw := range s.mem {
		add(mw.recs)
	}
	return mem
}

// candidateBlocks applies segment- and block-level pruning. scan=false means
// the whole segment is skipped without touching its file.
func (g *segment) candidateBlocks(q Query) (blocks []int, scan bool) {
	first, last := q.nsBounds()
	if g.maxTime < first || g.minTime > last {
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
		// Only announcements carry an origin; a type filter that excludes
		// them empties the query in the kernels, not here.
	}
	blocks = make([]int, 0, len(g.index.blocks)) // one allocation, however many are kept
	for i, bm := range g.index.blocks {
		if bm.maxTime < first || bm.minTime > last {
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
// on cache-off scans. n is the number of rows the block's columnar kernels
// selected: 0 for a block a dictionary probe rejected, which was still
// fetched and counts as scanned.
func (e *Explain) noteBlock(g *segment, bi int, hit, cached bool, n int) {
	bm := g.index.blocks[bi]
	e.BlocksScanned++
	e.RecordsScanned += int(bm.count)
	e.RecordsMaterialized += n
	if hit {
		e.BlocksCacheHit++
		e.BytesFromCache += int64(bm.ulen)
	} else {
		if cached {
			e.BlocksCacheMiss++
		}
		e.BytesReadDisk += int64(bm.clen)
		if g.ver < segVersionV3 {
			e.BytesDecompressed += int64(bm.ulen)
		} else {
			e.BytesDecompressed += 8 * int64(bm.count)
		}
	}
	if g.ver == segVersionV2 {
		e.BlocksV2++
	} else {
		e.BlocksV3++
	}
}

// maxSegmentSpans caps the per-segment spans one scan opens, so a scan of
// many segments leaves the trace's span budget to the request's own stages;
// the EXPLAIN on the scan span counts every segment.
const maxSegmentSpans = 64

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
	// next points the cursor, all consumed, at the surviving rows of the
	// stream's next block that has any; false at the end of the stream.
	next() (bool, error)
	close()
}

// cursor is a stream's place in the merge: the keys of its current block's
// surviving rows, the head row, and the head's key, cached so that ordering
// streams never touches a row. A row is built into a collector.Record only
// when the reader or compaction takes it, by fill.
type cursor struct {
	ts    []int64 // time-ordered keys of the surviving rows; ts[pos:] not yet merged
	pos   int
	t     int64  // ts[pos]; nextRun refreshes the top stream's
	order uint64 // ties on t go to the lower order: segment seq, memtable last
	src   stream

	// Where surviving row k lives: the memtable snapshot's mem[k], or in a
	// segment block, cb's row sel[k] when the kernels built a selection, else
	// its row base+k.
	mem  []memRec
	cb   *colBlock
	base int
	sel  []int32
}

// load points the cursor at the keys of a freshly selected block and reports
// whether it holds any row.
func (c *cursor) load(ts []int64) bool {
	c.ts, c.pos = ts, 0
	if len(ts) == 0 {
		return false
	}
	c.t = ts[0]
	return true
}

// fill builds surviving row k into *rec, overwriting every field. It is the
// one place the read path and compaction materialize a record.
func (c *cursor) fill(rec *collector.Record, k int) {
	switch {
	case c.mem != nil:
		*rec = c.mem[k].record()
	case c.sel != nil:
		c.cb.fill(rec, int(c.sel[k]))
	default:
		c.cb.fill(rec, c.base+k)
	}
}

// row returns surviving row k as a memtable row: compaction's move, which
// builds no record.
func (c *cursor) row(k int) memRec {
	switch {
	case c.mem != nil:
		return c.mem[k]
	case c.sel != nil:
		return c.cb.row(int(c.sel[k]))
	default:
		return c.cb.row(c.base + k)
	}
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
	for step := 1; hi < len(c.ts) && c.ts[hi] < limit; step *= 2 {
		lo = hi + 1
		hi += step
	}
	hi = min(hi, len(c.ts))
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.ts[mid] < limit {
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
	ex      Explain   // what the streams scanned, noted as each block is fetched
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
// the top stream's unmerged rows that sorts before every other stream's head,
// as c's rows [lo, hi), which c.fill builds until the next call. A nil c
// means the end of the input.
func (m *merge) nextRun() (c *cursor, lo, hi int, err error) {
	for len(m.streams) > 0 {
		// The top stream yielded the previous run; re-key it.
		c = m.streams[0]
		if c.pos < len(c.ts) {
			c.t = c.ts[c.pos]
		} else if ok, err := c.src.next(); err != nil {
			return nil, 0, 0, err
		} else if !ok {
			n := len(m.streams) - 1
			m.streams[0], m.streams[n] = m.streams[n], nil
			m.streams = m.streams[:n]
			c.src.close()
			continue
		}
		m.siftDown(0)
		c = m.streams[0]
		lo, hi = c.pos, len(c.ts)
		if h := m.streams; len(h) > 2 && h[2].before(h[1]) {
			hi = c.runEnd(h[2])
		} else if len(h) > 1 {
			hi = c.runEnd(h[1])
		}
		c.pos = hi
		return c, lo, hi, nil
	}
	return nil, 0, 0, nil
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
// fetched in columnar form (through the shared cache when the store has one)
// and filtered column-wise, and the cursor is pointed at the surviving rows,
// none of them built yet. It holds the reference that keeps the segment, and
// so the block the cursor reads, readable until close.
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
	keys   []int64 // the selected rows' timestamps, gathered for the cursor
	// quarantine skips corrupt blocks instead of failing the scan. Queries
	// set it; compaction merges leave it off, because silently dropping a
	// block while rewriting segments would turn detectable damage into
	// permanent record loss.
	quarantine bool
	ex         *Explain
	span       *obs.TraceSpan // per-segment trace span; nil when untraced
}

// openScanLocked opens a stream over the given blocks of g through the
// reference a scan reads by — the mapping when the segment has one, whose
// refcount keeps compaction from unmapping under the scan, else a file of
// its own.
func (s *Store) openScanLocked(g *segment, q *Query, blocks []int, ex *Explain) (*segStream, error) {
	ss := &segStream{seg: g, mm: g.mm, q: q, blocks: blocks, ex: ex}
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
		// The previous block's rows are all merged, so the scanner's scratch
		// and the keys buffer are reused for this one.
		cb, hit, err := ss.bs.fetch(ss.seg, ss.f, ss.mm, ss.cache, bi)
		hi := 0
		if err == nil {
			ss.base, hi, ss.sel, err = cb.selectRows(ss.q, &ss.bs.ks)
		}
		if err != nil {
			// Corruption under a query is quarantined and the scan goes on;
			// anything else ends the stream with the segment named.
			if !ss.quarantine || !isCorrupt(err) {
				return false, fmt.Errorf("segment %s: %w", ss.seg.path, err)
			}
			quarantineBlock(ss.seg.path, bi, err)
			ss.ex.BlocksQuarantined++
			ss.span.AnnotateInt("quarantined_block", int64(bi))
			continue
		}
		ts := cb.times[ss.base:hi]
		if ss.sel != nil {
			if cap(ss.keys) < len(ss.sel) {
				ss.keys = make([]int64, cb.rows()) // a block of room: later blocks reuse it
			}
			ts = ss.keys[:len(ss.sel)]
			for k, i := range ss.sel {
				ts[k] = cb.times[i]
			}
		}
		ss.ex.noteBlock(ss.seg, bi, hit, ss.cache != nil, len(ts))
		ss.cb = cb
		if ss.load(ts) {
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
	return ms.load(ms.ts[ms.pos:]), nil
}

func (ms *memStream) close() {}
