package store

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"time"

	"instability/internal/collector"
)

// Writer is the ingest half of a Store: appends are WAL-logged and batched
// in a per-window memtable until a seal turns them into immutable segments.
// Writer is safe for concurrent use; concurrent appends share group commits.
type Writer struct {
	s *Store

	// pending is the open WAL frame: its length slot, then the walEntry of
	// every append since the last group commit, with no checksum yet.
	// flushLocked closes and writes it. pending is empty exactly when
	// pendingN, its entry count, is 0.
	pending  []byte
	pendingN int
	appended int64

	// ownAt and ownFrom mark where, in pending (bytes) and by entry count,
	// the entries of the append call holding the lock begin. Entries before
	// them are earlier calls' acknowledged appends; a failed flush rolls
	// back only the call's own.
	ownAt, ownFrom int
}

// Append logs one record. The record becomes visible to queries immediately
// and durable at the next Flush (or automatically every FlushEvery appends).
func (w *Writer) Append(rec collector.Record) error {
	return w.append([]collector.Record{rec})
}

// AppendBatch logs a batch of records under one lock acquisition. For bulk
// ingest this is the fast path: the per-record cost drops to entry encoding
// plus one memtable append, with lock traffic and flush checks paid once per
// batch. The batch joins the open group commit, which is written as one WAL
// frame once it holds FlushEvery records — a batch of at least FlushEvery
// is one commit — and at each auto-seal cut the batch crosses. An error may
// leave a prefix of the batch appended: the records a group commit or an
// auto-seal cut had already made durable before the error. The rest of the
// batch is not stored, so a retry of it stores each record once.
func (w *Writer) AppendBatch(recs []collector.Record) error {
	if len(recs) > 0 {
		obsBatchRecords.Observe(float64(len(recs)))
	}
	return w.append(recs)
}

// append is the one locked path behind Append and AppendBatch: it appends up
// to the next auto-seal cut, lets maintainLocked cut there, and continues, so
// a cut falls at the same record whatever the batch sizes. On an error it
// takes back every record of the call that no flush has made durable.
func (w *Writer) append(recs []collector.Record) error {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.closing {
		return fmt.Errorf("store: writer used after Close")
	}
	w.claimLocked()
	done := 0
	for {
		n, err := w.appendLocked(recs[done:])
		done += n
		if err == nil {
			err = w.maintainLocked()
		}
		if err != nil {
			w.rollbackLocked(recs[:done])
			return err
		}
		if done == len(recs) {
			return nil
		}
		if s.closed { // a Close finished while this append was parked
			return fmt.Errorf("store: writer used after Close")
		}
	}
}

// claimLocked marks the end of pending as where the calling append's own
// entries begin.
func (w *Writer) claimLocked() {
	w.ownAt, w.ownFrom = len(w.pending), w.pendingN
}

// rollbackLocked undoes the appends of done, the records the failing call
// has appended so far, that are still only pending: each of them is one
// pending entry after ownFrom and, since the lock has been held since the
// last flush or park, the last row of its window. Their entries never
// reached the WAL (frameLog.append is all or nothing), so cutting pending
// back to ownAt — to nothing, frame header included, when the call's were
// the only entries — leaves no trace of them.
func (w *Writer) rollbackLocked(done []collector.Record) {
	s := w.s
	for i := len(done) - 1; i >= len(done)-(w.pendingN-w.ownFrom); i-- {
		window := s.windowStart(done[i].Time)
		mw := s.mem[window]
		if mw.recs = mw.recs[:len(mw.recs)-1]; len(mw.recs) == 0 {
			delete(s.mem, window)
		}
		s.memN--
		w.appended--
	}
	w.pending, w.pendingN = w.pending[:w.ownAt], w.ownFrom
	obsMemRecords.SetInt(int64(s.unsealedLocked()))
}

// appendLocked appends records until the one that brings the memtable to
// AutoSealRecords and returns how many it took. It resolves each record's
// attributes, once, under one hold of the attribute table: the row it appends
// to the memtable carries the ref the WAL entry was written from.
func (w *Writer) appendLocked(recs []collector.Record) (n int, err error) {
	s := w.s
	s.attrs.mu.Lock()
	defer s.attrs.mu.Unlock()
	defer func() { obsAppends.Add(int64(n)) }() // one atomic add a call, not a record
	for i := range recs {
		window := s.windowStart(recs[i].Time)
		mw := s.mem[window]
		if mw == nil {
			mw = &memWindow{firstSeq: s.nextWindowSeqLocked(window)}
			// Start at 5/4 of the window the stream leaves, capped at a
			// threshold. A window sizes at most one successor, so presized
			// capacity stays within 5/4 of the memtable plus the carry.
			if prev := s.mem[s.lastWindow]; prev != nil && !prev.sized {
				prev.sized = true
				mw.recs = make([]memRec, 0, min(len(prev.recs)*5/4, s.opts.AutoSealRecords))
			}
			s.mem[window] = mw
		}
		r, err := s.attrs.rowLocked(&recs[i])
		if err != nil {
			return i, err
		}
		if err := w.logLocked(window, mw.firstSeq+uint64(len(mw.recs)), &r); err != nil {
			return i, err
		}
		if len(mw.recs) == cap(mw.recs) { // double, not append's quarter per copy
			mw.recs = slices.Grow(mw.recs, max(len(mw.recs), 256))
		}
		mw.recs = append(mw.recs, r)
		s.memN++
		w.appended++
		s.lastWindow = window
		if s.memN == s.opts.AutoSealRecords {
			return i + 1, nil
		}
	}
	return len(recs), nil
}

// logLocked adds one row's walEntry to the open WAL frame, opening the frame
// if none is. An entry that would carry the frame past maxFramePayload is
// not added.
func (w *Writer) logLocked(window int64, seq uint64, r *memRec) error {
	at := len(w.pending)
	if at == 0 {
		w.pending, _ = collector.BeginFrame(w.pending)
	}
	w.pending = appendWALPayload(w.pending, window, seq, r)
	if int64(len(w.pending)-4) > maxFramePayload {
		w.pending = w.pending[:at]
		return ErrCommitTooLarge
	}
	w.pendingN++
	return nil
}

// maintainLocked applies the flush and auto-seal policies after appends.
// The memtable is cut when it holds AutoSealRecords, so every auto-seal batch
// is the same run of records whatever the pacing. The batch seals on a
// background goroutine and one more may queue behind it; a cut that would
// queue a third parks the append until the head batch lands (the stall is
// measured, not silent), so memory stays bounded at ~3 thresholds.
func (w *Writer) maintainLocked() error {
	s := w.s
	obsMemRecords.SetInt(int64(s.unsealedLocked()))
	if w.pendingN >= s.opts.FlushEvery {
		if err := w.flushLocked(); err != nil {
			return err
		}
	}
	// A concurrent Close seals everything, this append included: once it
	// has begun, appends neither cut nor park, so its sweep drains.
	for s.opts.AutoSealRecords > 0 && s.memN >= s.opts.AutoSealRecords && !s.closing {
		if len(s.seals) < 2 {
			return s.cutLocked(true)
		}
		b := s.seals[0]
		if err := w.flushLocked(); err != nil {
			return err
		}
		t0 := time.Now()
		s.mu.Unlock()
		<-b.done
		s.mu.Lock()
		w.claimLocked() // other appends may have run while this one was parked
		obsSealStallSeconds.ObserveSince(t0)
		if b.err != nil {
			// The batch we waited out failed and requeued every queued
			// window. Background retries never report to anyone, so a
			// persistent fault would silently cycle cut/requeue while stale
			// WALs pile up; surface the seal error to ingest instead (the
			// records are back in the memtable and WAL-covered).
			return b.err
		}
	}
	return nil
}

// AppendAll appends every record from a stream (e.g. a collector log being
// ingested) and returns the number appended. Records are coalesced into
// AppendBatch-sized groups so the stream gets batched WAL commits for free.
func (w *Writer) AppendAll(r collector.RecordReader) (int, error) {
	n := 0
	batch := make([]collector.Record, 0, appendAllBatch)
	for {
		rec, err := r.Next()
		if err != nil {
			if err == io.EOF {
				if len(batch) > 0 {
					if berr := w.AppendBatch(batch); berr != nil {
						return n, berr
					}
					n += len(batch)
				}
				return n, nil
			}
			return n, err
		}
		batch = append(batch, rec)
		if len(batch) == cap(batch) {
			if err := w.AppendBatch(batch); err != nil {
				return n, err
			}
			n += len(batch)
			batch = batch[:0]
		}
	}
}

// appendAllBatch is the record group size AppendAll hands to AppendBatch —
// aligned with the default segment block size so one ingest batch fills one
// block.
const appendAllBatch = 512

// nextWindowSeqLocked returns the first free sequence number of a window the
// memtable has no entry for: one past whatever is sealed or detached into a
// queued seal. The sealed high-water mark is a map lookup maintained at
// publish time, not a scan over every segment.
func (s *Store) nextWindowSeqLocked(window int64) uint64 {
	next := s.sealedSeq[window] + 1
	s.unpublishedLocked(func(sw *sealWindow) {
		if sw.window == window {
			next = max(next, sw.firstSeq+uint64(len(sw.recs)))
		}
	})
	return next
}

// flushLocked closes the open frame — one length, one checksum — and
// writes it to the WAL as one group commit. On failure the frame reopens
// (its checksum is stripped), its entries stay pending and none of them is
// in the WAL. With nothing pending it still reports a broken WAL, so no cut
// rotates one away as if its frames were whole.
func (w *Writer) flushLocked() error {
	s := w.s
	if w.pendingN == 0 {
		return s.wal.broken
	}
	t0 := time.Now()
	w.pending = collector.EndFrame(w.pending, 0)
	if err := s.wal.append(w.pending, s.opts.Sync); err != nil {
		w.pending = w.pending[:len(w.pending)-4]
		return err
	}
	obsWALAppendSeconds.ObserveSince(t0)
	obsWALBytes.SetInt(s.wal.size())
	w.pending = w.pending[:0]
	w.pendingN = 0
	w.claimLocked()
	return nil
}

// Seal flushes the WAL and turns the entire memtable into sealed segments,
// one per nonempty time window. It cuts the memtable behind any queued
// background seals and returns only when everything appended before the call
// is sealed and no longer depends on any WAL file.
func (w *Writer) Seal() error {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sealSyncLocked()
}

// sealBatch is one cut of the memtable in the seal queue: the windows
// detached from the store, the WAL files that cover exactly their records,
// and the publish cursor. windows[:published] are sealed segments live in
// s.segs; windows[published:] are still only in this snapshot, and queries
// overlay them so visibility never regresses mid-seal.
type sealBatch struct {
	windows   []sealWindow
	published int      // guarded by Store.mu
	wals      []string // rotated WAL files to delete once all windows publish
	err       error    // terminal batch error, readable after done closes
	done      chan struct{}
}

// sealWindow is one detached memtable window awaiting seal. recs is the
// append-ordered snapshot and is immutable from detach on: the sealer reads
// it (or sorts a clone), queries overlay it as-is, and a failed seal requeues
// it verbatim.
type sealWindow struct {
	window   int64
	firstSeq uint64
	seq      uint64 // segment file number reserved at detach
	recs     []memRec
}

// unpublishedLocked calls fn on every detached window not yet live as a
// segment, in cut order: each queued batch's windows[published:], oldest
// batch first. It is the one reader of the seal queue's records.
func (s *Store) unpublishedLocked(fn func(sw *sealWindow)) {
	for _, b := range s.seals {
		for i := b.published; i < len(b.windows); i++ {
			fn(&b.windows[i])
		}
	}
}

// unsealedLocked is the record count queries must overlay from memory: the
// live memtable plus every detached-but-unpublished window.
func (s *Store) unsealedLocked() int {
	n := s.memN
	s.unpublishedLocked(func(sw *sealWindow) { n += len(sw.recs) })
	return n
}

// cutLocked detaches the memtable into a batch at the tail of the seal
// queue; a batch cut into an empty queue starts sealing at once. An
// auto-seal cut (carry) may keep the open window in the memtable.
func (s *Store) cutLocked(carry bool) error {
	b, err := s.detachSealLocked(carry)
	if b != nil && len(s.seals) == 1 {
		s.startSealLocked()
	}
	return err
}

// carriedLocked is the window an auto-seal cut keeps in the memtable: the
// window of the last record appended, the one still filling in an in-order
// stream, when it holds at most AutoSealRecords/2 rows and is not the whole
// memtable. Sealing it now would split it across two segments and leave
// Compact to rewrite it; carried, it seals whole at a later cut. The half
// bound keeps the memtable after a cut at most half a threshold, and each
// batch at least half, so re-logging the carried rows costs at most as many
// WAL bytes as the appends did. It returns nil when no window qualifies.
func (s *Store) carriedLocked() *memWindow {
	mw := s.mem[s.lastWindow]
	if mw == nil || 2*len(mw.recs) > s.opts.AutoSealRecords || len(mw.recs) == s.memN {
		return nil
	}
	return mw
}

// detachSealLocked flushes pending appends, rotates the WAL, and detaches
// every nonempty memtable window into a sealBatch queued at the tail of
// s.seals — every window but the carried one (carriedLocked) when carry is
// set. It returns nil when there is nothing to seal. After it returns, new
// appends land in a fresh WAL, and the batch alone references the detached
// records and the rotated WAL files that make them durable. A carried
// window stays in the memtable and is re-logged into the fresh WAL first, so
// the rotated files back only the batch. If that re-log fails, the rotated
// file and every stale one stay stale instead, since the carried rows still
// need them, and the batch claims no WAL; the cut itself has succeeded, and
// the fault surfaces at the next write to the WAL.
func (s *Store) detachSealLocked(carry bool) (*sealBatch, error) {
	if err := s.writer.flushLocked(); err != nil {
		return nil, err
	}
	if s.memN == 0 {
		return nil, nil
	}
	var kept *memWindow
	if carry {
		kept = s.carriedLocked()
	}
	rotated, err := s.rotateWALLocked()
	if err != nil {
		return nil, err
	}
	b := &sealBatch{done: make(chan struct{})}
	windows := make([]int64, 0, len(s.mem))
	for wd := range s.mem {
		windows = append(windows, wd)
	}
	slices.Sort(windows)
	for _, wd := range windows {
		mw := s.mem[wd]
		if len(mw.recs) == 0 || mw == kept {
			continue
		}
		b.windows = append(b.windows, sealWindow{
			window:   wd,
			firstSeq: mw.firstSeq,
			seq:      s.nextSeg,
			recs:     mw.recs,
		})
		s.nextSeg++
	}
	clear(s.mem)
	s.memN = 0
	if rotated != "" {
		s.staleWALs = append(s.staleWALs, rotated)
	}
	relogged := true
	if kept != nil {
		s.mem[s.lastWindow] = kept
		s.memN = len(kept.recs)
		relogged = s.writer.relogLocked(s.lastWindow, kept) == nil
	}
	if relogged {
		// Stale WALs from earlier failed seals (or recovered at Open, or
		// kept by a failed re-log) cover records that are now in this batch,
		// sealed ahead of it, or re-logged: they become deletable exactly
		// when it fully publishes.
		b.wals, s.staleWALs = s.staleWALs, nil
	}
	s.seals = append(s.seals, b)
	return b, nil
}

// relogLocked writes a carried window's rows into the fresh WAL under their
// own sequence numbers, as one frame: nothing is pending when a cut re-logs.
// On Open, a copy whose row an older WAL already replayed is skipped
// (replayWALEntries). On failure the frame is dropped: the rows stay backed
// by the WAL files they were logged in.
func (w *Writer) relogLocked(window int64, mw *memWindow) error {
	var err error
	for i := 0; i < len(mw.recs) && err == nil; i++ {
		err = w.logLocked(window, mw.firstSeq+uint64(i), &mw.recs[i])
	}
	if err == nil {
		err = w.flushLocked()
	}
	if err != nil {
		w.pending, w.pendingN = w.pending[:0], 0
		w.claimLocked()
	}
	return err
}

// startSealLocked seals the batch at the head of the queue on a background
// goroutine.
func (s *Store) startSealLocked() {
	obsSealActive.SetInt(1)
	go s.runSeal(s.seals[0])
}

// runSeal seals a detached batch: per window, take the snapshot as it is when
// it is in time order (an in-order stream's always is) or else sort a clone,
// write the segment (its blocks encoded in turn on this goroutine), and
// publish it under a short lock. Windows publish incrementally, so a failure
// partway keeps every already-published segment and requeues only the rest.
// It runs off the store lock and takes it per publish.
func (s *Store) runSeal(b *sealBatch) {
	t0 := time.Now()
	var err error
	byTime := func(a, b memRec) int { return cmp.Compare(a.ns, b.ns) }
	for i := range b.windows {
		sw := &b.windows[i]
		t1 := time.Now()
		recs := sw.recs
		if !slices.IsSortedFunc(recs, byTime) {
			recs = slices.Clone(recs)
			slices.SortStableFunc(recs, byTime)
		}
		obsSealSortSeconds.ObserveSince(t1)
		t2 := time.Now()
		var seg *segment
		seg, err = writeSegment(s.fs, s.dir, sw.seq, sw.window, sw.firstSeq, recs, nil, s.opts)
		if err != nil {
			break
		}
		obsSealWriteSeconds.ObserveSince(t2)
		s.publishSealed(b, i, seg)
	}
	if err == nil {
		obsSealSeconds.ObserveSince(t0)
	}
	s.finishSeal(b, err)
}

// publishSealed makes one sealed segment live: it enters the segment list,
// the window's sealed high-water mark advances, and the batch's publish
// cursor moves past it — all under one short lock hold, which is the only
// moment a seal blocks queries.
func (s *Store) publishSealed(b *sealBatch, i int, seg *segment) {
	t0 := time.Now()
	s.mu.Lock()
	seg.tab = s.attrs
	s.segs = append(s.segs, seg)
	sortSegments(s.segs)
	s.mapSegmentLocked(seg)
	if seg.lastSeq > s.sealedSeq[seg.windowStart] {
		s.sealedSeq[seg.windowStart] = seg.lastSeq
	}
	b.published = i + 1
	s.gen.Add(1)
	obsSegments.SetInt(int64(len(s.segs)))
	obsMemRecords.SetInt(int64(s.unsealedLocked()))
	s.mu.Unlock()
	obsSealPublishSeconds.ObserveSince(t0)
	obsSealedRecords.Add(seg.count)
	obsSealedSegments.Inc()
}

// finishSeal retires the batch at the head of the queue. On success the
// rotated WAL files it covers are deleted — every record they held is now in
// a renamed, sealed segment, the ordering the crash-safety argument rests on
// — and the batch queued behind it, if any, starts. On failure its
// unpublished windows and every queued batch are requeued into the memtable
// (their WAL files are kept as stale until a later seal covers them), so no
// acked record is ever dropped. It never cuts: only appends, Seal and Close
// do.
func (s *Store) finishSeal(b *sealBatch, err error) {
	s.mu.Lock()
	if err != nil {
		b.err = err
		// Newest first: each requeue prepends, so the memtable ends up in
		// cut order.
		for i := len(s.seals) - 1; i >= 0; i-- {
			q := s.seals[i]
			for _, sw := range q.windows[q.published:] {
				s.requeueWindowLocked(sw)
			}
			s.staleWALs = append(s.staleWALs, q.wals...)
		}
		s.seals = nil
	} else {
		for _, path := range b.wals {
			s.fs.Remove(path)
		}
		s.seals = slices.Delete(s.seals, 0, 1)
	}
	if len(s.seals) > 0 {
		s.startSealLocked()
	} else {
		obsSealActive.SetInt(0)
	}
	obsMemRecords.SetInt(int64(s.unsealedLocked()))
	s.mu.Unlock()
	close(b.done)
}

// requeueWindowLocked returns one unpublished detached window to the
// memtable after a failed seal. Appends may have opened a fresh memWindow
// for the same time window in the meantime (its firstSeq continues where the
// snapshot ended), so the detached records are prepended to keep the
// window's sequence numbering contiguous and its append order intact.
func (s *Store) requeueWindowLocked(sw sealWindow) {
	if mw := s.mem[sw.window]; mw != nil {
		mw.recs = append(sw.recs[:len(sw.recs):len(sw.recs)], mw.recs...)
		mw.firstSeq = sw.firstSeq
	} else {
		s.mem[sw.window] = &memWindow{firstSeq: sw.firstSeq, recs: sw.recs}
	}
	s.memN += len(sw.recs)
}

// joinSeal blocks until the seal queue is empty. Tests use it to reach a
// quiescent store without the full Seal side effect of flushing the live
// memtable.
func (s *Store) joinSeal() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.joinSealLocked()
}

// joinSealLocked waits out every queued background seal, releasing the lock
// while each runs. Returns the first failed batch's error.
func (s *Store) joinSealLocked() error {
	for len(s.seals) > 0 {
		b := s.seals[0]
		s.mu.Unlock()
		<-b.done
		s.mu.Lock()
		if b.err != nil {
			return b.err
		}
	}
	return nil
}

// sealSyncLocked is the synchronous seal behind Seal and Close: cut the
// memtable behind any queued batches, then wait until the queue drains and
// the memtable is empty (appends racing the wait are swept into follow-up
// cuts).
func (s *Store) sealSyncLocked() error {
	for {
		if err := s.cutLocked(false); err != nil {
			return err
		}
		if err := s.joinSealLocked(); err != nil {
			return err
		}
		if s.memN == 0 {
			return nil
		}
	}
}
