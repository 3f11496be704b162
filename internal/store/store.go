// Package store implements irtlstore, an embedded time-partitioned BGP
// update store. It gives the analysis tools random access into what would
// otherwise be a nine-month flat log: updates are ingested through a
// WAL-backed writer, partitioned into immutable sealed segments (one or more
// per configurable time window), and queried back through an indexed reader
// that pushes predicates down to the segment and block level so most of the
// store is never read.
//
// # On-disk layout
//
// A store is a directory:
//
//	wal.log          append-only write-ahead log of unsealed records
//	wal-<n>.log      rotated WALs backing a seal in flight (deleted once
//	                 every record they hold is in a sealed segment)
//	seg-<seq>.irts   sealed immutable segments
//
// Each WAL group commit is one frame, length-prefixed and CRC-checked, so a
// torn tail from a crash is detected and discarded whole. Entries carry a
// per-window sequence number; a sealed segment records the [FirstSeq,
// LastSeq] range of its window that it covers, which makes crash recovery
// exact: on open, WAL entries whose sequence number is already covered by a
// sealed segment are skipped (no duplicates), and the rest are replayed into
// the memtable (no losses).
//
// A segment file holds blocks of records sorted by timestamp — column-coded
// behind a CRC-32 and scanned as stored (format v3, see colBlock; segments
// written before it hold deflated rows and stay readable) — followed by an
// index section and a fixed footer:
//
//	"IRTS" version            header
//	block*                    record blocks
//	index                     per-block metadata (offset, times, count),
//	                          posting lists (peer AS -> blocks,
//	                          origin AS -> blocks), prefix bloom filter,
//	                          CRC-32
//	footer                    index offset, window, time range, seq range,
//	                          replaced-segment list, record count
//
// # Queries
//
// A Query carries time range, peer AS, origin AS, prefix, and record type
// predicates. The reader skips whole segments by time range, posting lists,
// and the prefix bloom filter, then skips individual blocks the same way;
// only surviving blocks are fetched. Each reader's Explain reports exactly
// how much work was avoided, so pushdown wins are measurable rather than
// asserted.
package store

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"instability/internal/faults"
)

// Options tunes a store. The zero value is usable; fields are defaulted by
// withDefaults.
type Options struct {
	// Window is the time-partition width; records are grouped into windows
	// of this duration (aligned to Unix epoch) and sealed one segment per
	// window per seal. Default 24h.
	Window time.Duration
	// BlockRecords caps the number of records per block. Default 512; at
	// most 65535, what a block's two-byte dictionary codes can number.
	BlockRecords int
	// FlushEvery is the number of appended records the writer batches in
	// memory before writing them to the WAL in one group commit. Default
	// 256. Flush and Seal always drain the batch regardless.
	FlushEvery int
	// AutoSealRecords cuts the memtable into a background seal at the
	// record that brings it to this count, bounding memory during bulk
	// ingest. The cut detaches every window but the cut record's own, which
	// stays in the memtable to seal whole at a later cut when it holds at
	// most half this count and is not the whole memtable; Seal and Close
	// detach everything. The cut is a record count, not a moment, so the
	// same records seal into the same segment files however they are paced.
	// 0 disables auto-sealing (Seal/Close only).
	AutoSealRecords int
	// Sync fsyncs WAL group commits and sealed segments. Off by default:
	// the tests and tools that batter the store do not need metal-level
	// durability, and the crash-recovery contract (no duplicates, no loss
	// of synced data) is unaffected.
	Sync bool
	// BlockCacheBytes is the byte budget of the store-wide cache of parsed
	// segment blocks, shared by every reader of this store. 0 (the zero
	// value) disables the cache: each scan parses its own blocks, in place.
	BlockCacheBytes int64
	// FS is the filesystem the store performs all I/O through. Nil means
	// the real disk; tests and chaos runs install a faults.Injector to
	// exercise write errors, torn writes, fsync failures, crashes, and
	// read bit-flips deterministically. A store on any FS but the real disk
	// maps no segment and reads every block through ReadAt.
	FS faults.FS
}

func (o Options) withDefaults() Options {
	if o.Window <= 0 {
		o.Window = 24 * time.Hour
	}
	if o.BlockRecords <= 0 {
		o.BlockRecords = 512
	}
	o.BlockRecords = min(o.BlockRecords, maxBlockRecords)
	if o.FlushEvery <= 0 {
		o.FlushEvery = 256
	}
	if o.FS == nil {
		o.FS = faults.Disk{}
	}
	return o
}

// Store is an open irtlstore directory. All methods are safe for concurrent
// use.
type Store struct {
	dir  string
	opts Options
	fs   faults.FS

	mu      sync.Mutex
	segs    []*segment // sorted by (windowStart, seq)
	nextSeg uint64     // next segment file number
	wal     *frameLog
	mem     map[int64]*memWindow // windowStart (unixnano) -> unsealed records
	memN    int
	// lastWindow is the window of the last record appended: the window an
	// auto-seal cut may carry (carriedLocked).
	lastWindow int64
	closed     bool
	closing    bool // Close in progress: appends neither cut nor park

	// seals is the seal queue in cut order: seals[0] is sealing in the
	// background and at most one more auto-seal cut waits behind it.
	// Queries overlay their unpublished windows so detached records stay
	// visible.
	seals []*sealBatch
	// sealedSeq is the per-window sealed sequence high-water mark, maintained
	// at publish time so opening a new memtable window is a map probe, not a
	// scan over every segment.
	sealedSeq map[int64]uint64
	// walSeq numbers rotated WAL files; staleWALs are rotated files whose
	// records are back in the memtable (failed seal, or partial coverage
	// found at Open) and must survive until a later seal covers them.
	walSeq    uint64
	staleWALs []string

	// gen is the segment-set generation: it advances whenever the set of
	// sealed segments changes (seal, compaction), and is readable without
	// the store lock. Result caches key on it; see Generation.
	gen atomic.Uint64

	// attrs resolves every tuple the store appends, replays, reads, transcodes
	// or compacts to one shared handle. Lock order: mu, then attrs.mu.
	attrs *lockedTable

	// cache is the shared decompressed-block cache, nil when disabled.
	cache *blockCache
	// mmapOK records whether sealed segments may be memory-mapped: on
	// supported platforms, only against the real disk — an injected
	// filesystem must keep seeing every read, and so reads through ReadAt.
	mmapOK bool
	mapped int // segments currently mapped (guarded by mu)

	writer Writer
}

// mmapSegment is the mapping entry point, indirect so tests can force the
// failure path and assert the ReadAt fallback serves identical results.
var mmapSegment = mmapOpen

// memWindow is the unsealed tail of one time window.
type memWindow struct {
	firstSeq uint64 // sequence number of recs[0] within this window
	recs     []memRec
	sized    bool // a later window was presized to this one (appendLocked)
}

// Open opens (creating if necessary) the store directory at dir and recovers
// any unsealed records from its WAL.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:   dir,
		opts:  opts,
		fs:    fsys,
		mem:   make(map[int64]*memWindow),
		attrs: newLockedTable(),
	}
	s.writer = Writer{s: s}
	if opts.BlockCacheBytes > 0 {
		s.cache = newBlockCache(opts.BlockCacheBytes)
	}
	_, s.mmapOK = fsys.(faults.Disk)

	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			fsys.Remove(filepath.Join(dir, name)) // half-written seal or compact
			continue
		}
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		seg, err := openSegment(fsys, filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: %w", name, err)
		}
		seg.tab = s.attrs
		s.segs = append(s.segs, seg)
	}
	s.dropReplaced()
	sortSegments(s.segs)
	for _, g := range s.segs {
		if g.seq >= s.nextSeg {
			s.nextSeg = g.seq + 1
		}
		s.mapSegmentLocked(g)
	}

	// Replay WALs oldest-first: rotated files left by a crash mid-seal, then
	// the live WAL. Entries already covered by a sealed segment of their
	// window are duplicates from a crash between segment rename and WAL
	// deletion; skip them. The rest become the recovered memtable. A rotated
	// file whose every entry was covered is deleted now; one still backing
	// memtable records is kept as stale until a later seal covers it.
	s.sealedSeq = s.sealedSeqs()
	var rotated []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log") {
			rotated = append(rotated, name)
		}
	}
	slices.Sort(rotated)
	for _, name := range rotated {
		var seq uint64
		if _, err := fmt.Sscanf(name, "wal-%d.log", &seq); err != nil {
			continue
		}
		if seq >= s.walSeq {
			s.walSeq = seq + 1
		}
		path := filepath.Join(dir, name)
		rw, ents, err := openWAL(fsys, path)
		if err != nil {
			return nil, err
		}
		rw.close()
		kept, err := s.replayWALEntries(ents)
		if err != nil {
			return nil, err
		}
		if kept == 0 {
			fsys.Remove(path)
		} else {
			s.staleWALs = append(s.staleWALs, path)
		}
	}
	w, entries2, err := openWAL(fsys, filepath.Join(dir, walName))
	if err != nil {
		return nil, err
	}
	s.wal = w
	if _, err := s.replayWALEntries(entries2); err != nil {
		return nil, err
	}
	s.gen.Store(s.nextSeg)
	obsSegments.SetInt(int64(len(s.segs)))
	obsMemRecords.SetInt(int64(s.memN))
	obsWALBytes.SetInt(s.wal.size())
	return s, nil
}

// Generation returns the store's segment-set generation counter. It is
// monotone for the life of the process and advances exactly when the set of
// sealed segments changes — a seal or a compaction — so any result computed
// from sealed data is valid for as long as the generation it was computed
// under remains current. The serving layer keys its aggregate cache on it.
// Memtable appends do not advance the generation: a read-only serving
// process never observes memtable changes after Open, and a writing process
// seals before its data is queried remotely.
func (s *Store) Generation() uint64 { return s.gen.Load() }

// sealedSeqs returns, per window, the highest sequence number covered by a
// sealed segment. Open uses it once to prime the incrementally-maintained
// sealedSeq map.
func (s *Store) sealedSeqs() map[int64]uint64 {
	m := make(map[int64]uint64)
	for _, g := range s.segs {
		if g.lastSeq > m[g.windowStart] {
			m[g.windowStart] = g.lastSeq
		}
	}
	return m
}

// replayWALEntries folds recovered WAL entries into the memtable, skipping
// entries a sealed segment already covers and entries whose row the memtable
// already holds: the re-logged copy of a window an auto-seal cut carried
// (detachSealLocked), replayed first from the rotated WAL it came from. A
// skipped copy must encode exactly as the held row does, or the WAL is
// corrupt. kept counts the entries that became memtable records.
func (s *Store) replayWALEntries(entries []walEntry) (kept int, err error) {
	s.attrs.mu.Lock()
	defer s.attrs.mu.Unlock()
	var held []byte
	for _, ent := range entries {
		if ent.seq <= s.sealedSeq[ent.window] {
			continue
		}
		mw := s.mem[ent.window]
		if mw != nil && ent.seq >= mw.firstSeq && ent.seq-mw.firstSeq < uint64(len(mw.recs)) {
			held = appendWALPayload(held[:0], ent.window, ent.seq, &mw.recs[ent.seq-mw.firstSeq])
			if !bytes.Equal(held, ent.payload) {
				return kept, fmt.Errorf("%w: WAL entry %d of window %d differs from the row replayed under its sequence number", ErrCorrupt, ent.seq, ent.window)
			}
			continue
		}
		if mw == nil {
			mw = &memWindow{firstSeq: ent.seq}
			s.mem[ent.window] = mw
		}
		if got := mw.firstSeq + uint64(len(mw.recs)); ent.seq != got {
			return kept, fmt.Errorf("store: WAL sequence gap in window %d: have %d, want %d", ent.window, ent.seq, got)
		}
		r, err := s.attrs.rowLocked(&ent.rec)
		if err != nil {
			return kept, err
		}
		mw.recs = append(mw.recs, r)
		s.memN++
		kept++
	}
	return kept, nil
}

// dropReplaced removes segments that a surviving compacted segment claims to
// replace (a crash between compaction's rename and its deletes leaves both
// on disk).
func (s *Store) dropReplaced() {
	replaced := make(map[uint64]bool)
	for _, g := range s.segs {
		for _, seq := range g.replaces {
			replaced[seq] = true
		}
	}
	if len(replaced) == 0 {
		return
	}
	kept := s.segs[:0]
	for _, g := range s.segs {
		if replaced[g.seq] {
			s.fs.Remove(g.path)
			continue
		}
		kept = append(kept, g)
	}
	s.segs = kept
}

// mapSegmentLocked memory-maps one sealed segment when mapping is enabled.
// Mapping is strictly an optimization: on any failure the segment simply
// stays on the ReadAt path, and the failure is counted, not surfaced.
func (s *Store) mapSegmentLocked(g *segment) {
	if !s.mmapOK || g.mm != nil {
		return
	}
	data, err := mmapSegment(g.path, g.size)
	if err != nil {
		obsMmapFailures.Inc()
		return
	}
	g.mm = newSegMap(data)
	s.mapped++
	obsMmapSegments.SetInt(int64(s.mapped))
}

// unmapSegmentLocked releases the store's reference on a segment's mapping.
// Readers that acquired the mapping before this keep it alive until they
// drain; the pages are returned when the last reference drops.
func (s *Store) unmapSegmentLocked(g *segment) {
	if g.mm == nil {
		return
	}
	g.mm.release()
	g.mm = nil
	s.mapped--
	obsMmapSegments.SetInt(int64(s.mapped))
}

// dropSegmentLocked retires one replaced segment from the read path: its
// mapping reference is released and its cached blocks are dropped, so the
// cache budget is never spent on blocks no query can reach again.
func (s *Store) dropSegmentLocked(g *segment) {
	s.unmapSegmentLocked(g)
	if s.cache != nil {
		s.cache.dropSegment(g.fp)
	}
}

func sortSegments(segs []*segment) {
	slices.SortFunc(segs, func(a, b *segment) int {
		if c := cmp.Compare(a.windowStart, b.windowStart); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// Writer returns the ingest half of the store.
func (s *Store) Writer() *Writer { return &s.writer }

// windowStart aligns t down to the store's partition width.
func (s *Store) windowStart(t time.Time) int64 {
	w := int64(s.opts.Window)
	n := t.UnixNano()
	r := n % w
	if r < 0 {
		r += w
	}
	return n - r
}

// Stats describes the current shape of the store.
type Stats struct {
	Segments   int   // sealed segment files
	SegmentsV2 int   // segments in block format v2 (attribute dictionary)
	SegmentsV3 int   // segments in block format v3 (column-coded, checksummed)
	Blocks     int   // blocks across all segments
	Records    int64 // records in sealed segments
	MemRecords int   // unsealed records (memtable + every queued seal batch)
	// SealingRecords is the subset of MemRecords cut into seal batches,
	// sealing or queued, that have not published yet (0 when the queue is
	// empty).
	SealingRecords int
	Windows        int    // distinct time windows with any data
	DiskBytes      int64  // total size of segment files
	WALBytes       int64  // current WAL size
	Generation     uint64 // segment-set generation counter (see Store.Generation)
	Fingerprint    uint64 // content hash of the sealed segment set

	MmapSegments int             // segments currently served from a memory mapping
	BlockCache   BlockCacheStats // shared decompressed-block cache
}

// Stats reports store-level statistics.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var st Stats
	windows := make(map[int64]bool)
	st.Segments = len(s.segs)
	for _, g := range s.segs {
		st.Blocks += len(g.index.blocks)
		st.Records += int64(g.count)
		st.DiskBytes += g.size
		windows[g.windowStart] = true
		if g.ver == segVersionV2 {
			st.SegmentsV2++
		} else {
			st.SegmentsV3++
		}
	}
	for w, mw := range s.mem {
		if len(mw.recs) > 0 {
			windows[w] = true
		}
	}
	s.unpublishedLocked(func(sw *sealWindow) {
		windows[sw.window] = true
		st.SealingRecords += len(sw.recs)
	})
	st.MemRecords = s.memN + st.SealingRecords
	st.Windows = len(windows)
	st.WALBytes = s.wal.size()
	st.Generation = s.gen.Load()
	st.Fingerprint = s.fingerprintLocked()
	st.MmapSegments = s.mapped
	st.BlockCache = s.cache.stats()
	return st
}

// fingerprintLocked hashes the identity of every sealed segment — file
// number, sequence range, record count — into one value. Two stores (or one
// store at two times) with the same fingerprint hold the same sealed segment
// set; unlike the generation counter it survives process restarts, so it is
// the cross-process spelling of "same data".
func (s *Store) fingerprintLocked() uint64 {
	h := fnv.New64a()
	for _, g := range s.segs {
		g.writeIdentity(h)
	}
	return h.Sum64()
}

// Close seals any unsealed records — cutting the memtable behind the queued
// background seals and waiting for all of them — and releases the store.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closing = true
	err := s.sealSyncLocked()
	if cerr := s.wal.close(); err == nil {
		err = cerr
	}
	for _, g := range s.segs {
		s.unmapSegmentLocked(g)
	}
	s.attrs.mu.Lock()
	s.attrs.FlushStats()
	s.attrs.mu.Unlock()
	s.closed = true
	return err
}
