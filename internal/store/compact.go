package store

import (
	"slices"
	"time"

	"instability/internal/collector"
)

// CompactStats reports what a compaction pass did.
type CompactStats struct {
	SegmentsBefore   int
	SegmentsAfter    int
	SegmentsMerged   int // inputs consumed by merges
	RecordsRewritten int64
}

// Compact merges the segments of every time window that has more than one
// (the residue of incremental seals or repeated ingests) into a single
// segment per window. The merge is crash-safe: the merged segment's footer
// names the segments it replaces, the new file is renamed into place first,
// and a crash before the old files are deleted is repaired on the next Open.
func (s *Store) Compact() (CompactStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := time.Now()
	var st CompactStats
	// A background seal publishing mid-pass would add segments behind the
	// group snapshot below; wait it out so the pass sees a stable set.
	if err := s.joinSealLocked(); err != nil {
		return st, err
	}
	st.SegmentsBefore = len(s.segs)

	groups := make(map[int64][]*segment)
	for _, g := range s.segs {
		groups[g.windowStart] = append(groups[g.windowStart], g)
	}
	windows := make([]int64, 0, len(groups))
	for wd, gs := range groups {
		if len(gs) > 1 {
			windows = append(windows, wd)
		}
	}
	slices.Sort(windows)

	for _, wd := range windows {
		gs := groups[wd]
		merged, err := s.mergeWindowLocked(wd, gs)
		if err != nil {
			return st, err
		}
		st.SegmentsMerged += len(gs)
		st.RecordsRewritten += merged.count

		old := make(map[uint64]bool, len(gs))
		for _, g := range gs {
			old[g.seq] = true
		}
		kept := s.segs[:0]
		for _, g := range s.segs {
			if old[g.seq] {
				s.dropSegmentLocked(g)
				s.fs.Remove(g.path)
				continue
			}
			kept = append(kept, g)
		}
		s.segs = append(kept, merged)
		s.mapSegmentLocked(merged)
		sortSegments(s.segs)
		s.gen.Add(1)
	}
	st.SegmentsAfter = len(s.segs)
	obsCompactSeconds.ObserveSince(t0)
	obsCompactRecords.Add(st.RecordsRewritten)
	obsSegments.SetInt(int64(len(s.segs)))
	return st, nil
}

// mergeWindowLocked streams the records of one window's segments in time
// order into a single replacement segment.
func (s *Store) mergeWindowLocked(window int64, gs []*segment) (*segment, error) {
	var m merge
	defer m.closeStreams()
	var total int64
	for _, g := range gs {
		blocks := make([]int, len(g.index.blocks))
		for i := range blocks {
			blocks[i] = i
		}
		// Note: no quarantine here. A compaction that hit a corrupt block
		// and skipped it would rewrite the window without those records,
		// converting detectable damage into silent loss; the merge fails
		// instead and leaves the inputs in place. The merge also bypasses
		// the block cache (cache left nil): a full rewrite would evict the
		// query working set for blocks that are about to be retired anyway.
		ss, err := s.openScanLocked(g, &Query{}, blocks, &m.stats)
		if err != nil {
			return nil, err
		}
		m.add(&ss.cursor, ss)
		total += g.count
	}
	if err := m.prime(); err != nil {
		return nil, err
	}
	out := make([]collector.Record, 0, total)
	for {
		run, err := m.nextRun()
		if err != nil {
			return nil, err
		}
		if run == nil {
			break
		}
		out = append(out, run...)
	}

	var firstSeq, lastSeq uint64
	replaces := make([]uint64, 0, len(gs))
	for i, g := range gs {
		if i == 0 || g.firstSeq < firstSeq {
			firstSeq = g.firstSeq
		}
		if g.lastSeq > lastSeq {
			lastSeq = g.lastSeq
		}
		replaces = append(replaces, g.seq)
	}
	// Seal-assigned sequence ranges within a window are contiguous across
	// its segments, so the merged range is exactly [firstSeq, lastSeq] and
	// writeSegment's firstSeq+len-1 arithmetic reproduces lastSeq. The
	// rewrite's block encoding fans across the seal worker pool, and writes
	// v3 whatever format the inputs were in.
	merged, err := writeSegment(s.fs, s.dir, s.nextSeg, window, firstSeq, out, replaces, s.opts)
	if err != nil {
		return nil, err
	}
	merged.di = s.dec
	s.nextSeg++
	return merged, nil
}
