package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/netaddr"
)

// faultBase is the timestamp of record index 0 in the fault tests. Every
// record's index is encoded in its timestamp (base + index seconds), so a
// recovered store can be checked for loss, duplication, and gaps without any
// side channel.
var faultBase = time.Date(1996, 6, 1, 0, 0, 0, 0, time.UTC)

func faultRecord(i int) collector.Record {
	peer := bgp.ASN(100 + i%4)
	origin := bgp.ASN(7000 + i%8)
	prefix := netaddr.MustPrefix(netaddr.Addr(0xc6000000+uint32(i)<<8), 24)
	return mkRecord(faultBase.Add(time.Duration(i)*time.Second), peer, origin, prefix, i%3 != 0)
}

func faultRecordIndex(t *testing.T, rec collector.Record) int {
	t.Helper()
	d := rec.Time.Sub(faultBase)
	if d < 0 || d%time.Second != 0 {
		t.Fatalf("record timestamp %v is not an index encoding", rec.Time)
	}
	return int(d / time.Second)
}

// faultOptions keeps every fault-test record in one time window so sequence
// numbers are totally ordered and the recovered set must be a contiguous
// index prefix.
func faultOptions() Options {
	return Options{Window: time.Hour, BlockRecords: 16, FlushEvery: 4}
}

// verifyRecoveredPrefix asserts the store's durability contract after a
// fault: the recovered records are exactly {0, 1, ..., k-1} for some k — no
// duplicates, no gaps — and k covers at least every acknowledged record.
func verifyRecoveredPrefix(t *testing.T, got []collector.Record, acked int) {
	t.Helper()
	seen := make(map[int]bool, len(got))
	max := -1
	for _, rec := range got {
		idx := faultRecordIndex(t, rec)
		if seen[idx] {
			t.Fatalf("record %d recovered twice", idx)
		}
		seen[idx] = true
		if idx > max {
			max = idx
		}
	}
	if len(seen) != max+1 {
		t.Fatalf("recovered set has gaps: %d records but max index %d", len(seen), max)
	}
	if len(seen) < acked {
		t.Fatalf("lost acknowledged records: recovered %d, acknowledged %d", len(seen), acked)
	}
}

// TestWALTornTailThenAppend is the regression test for physical torn-tail
// truncation: a WAL whose tail is garbage (or a half-written frame) must be
// truncated back to the last intact frame on open, and appends after the
// recovery must land on a clean frame boundary and survive the next open.
func TestWALTornTailThenAppend(t *testing.T) {
	cases := []struct {
		name string
		// mangle damages the WAL file and returns how many of the 10
		// flushed records should survive recovery.
		mangle func(t *testing.T, path string, sizes []int64) int
	}{
		{
			name: "garbage-tail",
			mangle: func(t *testing.T, path string, sizes []int64) int {
				f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				// A plausible length prefix with no frame behind it.
				if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0xff, 'x', 'y'}); err != nil {
					t.Fatal(err)
				}
				f.Close()
				return 10
			},
		},
		{
			name: "torn-frame",
			mangle: func(t *testing.T, path string, sizes []int64) int {
				// Cut 3 bytes off the last frame: its CRC cannot verify.
				if err := os.Truncate(path, sizes[9]-3); err != nil {
					t.Fatal(err)
				}
				return 9
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := faultOptions()
			opts.FlushEvery = 1 // every append is its own group commit
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			w := s.Writer()
			sizes := make([]int64, 10) // WAL size after each append
			for i := 0; i < 10; i++ {
				if err := w.Append(faultRecord(i)); err != nil {
					t.Fatal(err)
				}
				sizes[i] = s.wal.size()
			}
			// Abandon the store without sealing, as a crash would.
			if err := s.wal.close(); err != nil {
				t.Fatal(err)
			}
			s.closed = true

			walPath := filepath.Join(dir, walName)
			want := tc.mangle(t, walPath, sizes)

			s2, err := Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen over torn tail: %v", err)
			}
			if got := s2.Stats().MemRecords; got != want {
				t.Fatalf("recovered %d records, want %d", got, want)
			}
			// The tear must be physically gone, not just skipped: the file
			// ends at the last intact frame.
			fi, err := os.Stat(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != sizes[want-1] {
				t.Fatalf("WAL not truncated: size %d, want %d", fi.Size(), sizes[want-1])
			}
			// Appends after the truncation must start on the clean boundary.
			w2 := s2.Writer()
			for i := 0; i < 5; i++ {
				if err := w2.Append(faultRecord(20 + i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s2.wal.close(); err != nil {
				t.Fatal(err)
			}
			s2.closed = true

			s3, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			recs, _ := queryAll(t, s3, Query{})
			if len(recs) != want+5 {
				t.Fatalf("after torn-tail recovery and append: %d records, want %d", len(recs), want+5)
			}
		})
	}
}

// buildFaultStore seals n indexed records into a single segment and returns
// the reopened store (so nothing is cached from the write path).
func buildFaultStore(t *testing.T, dir string, n int) *Store {
	t.Helper()
	s, err := Open(dir, faultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	for i := 0; i < n; i++ {
		if err := w.Append(faultRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, faultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// corruptBlock flips bytes in the middle of one block's compressed data on
// disk, leaving the index and every other block intact.
func corruptBlock(t *testing.T, g *segment, bi int) {
	t.Helper()
	bm := g.index.blocks[bi]
	f, err := os.OpenFile(g.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 8)
	at := bm.offset + int64(bm.clen)/3
	if _, err := f.ReadAt(buf, at); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] ^= 0xff
	}
	if _, err := f.WriteAt(buf, at); err != nil {
		t.Fatal(err)
	}
}

// TestQuarantineCorruptBlock is the acceptance test for degraded reads: a
// query over a store with one bit-rotted sealed block must return every
// other block's records, count the skipped block in ScanStats and in the
// irtl_store_quarantined_blocks process counter, and report no error.
func TestQuarantineCorruptBlock(t *testing.T) {
	// The reader scans blocks serially, on one worker; the subtest keeps the
	// name the check has always run under.
	t.Run("workers=1", func(t *testing.T) {
		const n = 200
		s := buildFaultStore(t, t.TempDir(), n)
		defer s.Close()
		if len(s.segs) != 1 {
			t.Fatalf("want 1 segment, got %d", len(s.segs))
		}
		g := s.segs[0]
		if len(g.index.blocks) < 3 {
			t.Fatalf("want >=3 blocks, got %d", len(g.index.blocks))
		}
		const bad = 1
		lost := int(g.index.blocks[bad].count)
		corruptBlock(t, g, bad)

		c0 := obsQuarantinedBlocks.Value()
		r, err := s.Query(Query{})
		if err != nil {
			t.Fatal(err)
		}
		recs, err := r.ReadAll()
		if err != nil {
			t.Fatalf("query over corrupt block must not fail: %v", err)
		}
		st := r.Stats()
		r.Close()
		if len(recs) != n-lost {
			t.Fatalf("got %d records, want %d (all but the corrupt block's %d)", len(recs), n-lost, lost)
		}
		// Every surviving record is intact and none is from the bad block.
		seen := make(map[int]bool)
		for _, rec := range recs {
			seen[faultRecordIndex(t, rec)] = true
		}
		for i := 0; i < n; i++ {
			inBad := i >= bad*int(g.index.blocks[0].count) && i < bad*int(g.index.blocks[0].count)+lost
			if seen[i] == inBad {
				t.Fatalf("record %d: seen=%v, in corrupt block=%v", i, seen[i], inBad)
			}
		}
		if st.BlocksQuarantined != 1 {
			t.Fatalf("BlocksQuarantined = %d, want 1", st.BlocksQuarantined)
		}
		if got := obsQuarantinedBlocks.Value() - c0; got != 1 {
			t.Fatalf("irtl_store_quarantined_blocks moved by %d, want 1", got)
		}
	})
}

// TestCompactRefusesCorruptBlock pins the other half of the quarantine
// policy: compaction must fail on a corrupt input block rather than rewrite
// the window without it, which would turn detectable damage into silent
// record loss.
func TestCompactRefusesCorruptBlock(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, faultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.Writer()
	for i := 0; i < 60; i++ {
		if err := w.Append(faultRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	for i := 60; i < 120; i++ {
		if err := w.Append(faultRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if len(s.segs) != 2 {
		t.Fatalf("want 2 segments in one window, got %d", len(s.segs))
	}
	corruptBlock(t, s.segs[0], 0)
	if _, err := s.Compact(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Compact over corrupt block: err = %v, want ErrCorrupt", err)
	}
	if len(s.segs) != 2 {
		t.Fatalf("failed compaction changed the segment set: %d segments", len(s.segs))
	}
	// The damage stays visible to queries as a quarantined block.
	recs, st := queryAll(t, s, Query{})
	if st.BlocksQuarantined != 1 {
		t.Fatalf("BlocksQuarantined = %d, want 1", st.BlocksQuarantined)
	}
	if len(recs) >= 120 {
		t.Fatalf("query returned %d records over a corrupt block, want fewer than 120", len(recs))
	}
}

// TestPartialScanErrorSticky asserts the non-corruption failure mode: an I/O
// error mid-scan (here, a segment truncated under a live store, so ReadAt
// hits EOF) surfaces as a partial-scan error from Next, repeats on every
// later Next, and still lets the reader close cleanly.
func TestPartialScanErrorSticky(t *testing.T) {
	dir := t.TempDir()
	if err := buildFaultStore(t, dir, 200).Close(); err != nil {
		t.Fatal(err)
	}
	// This test is about the ReadAt failure mode, so mapping must be off: a
	// memory-mapped segment keeps serving the pages captured at map time and
	// never notices the truncation below.
	opts := faultOptions()
	opts.NoMmap = true
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	g := s.segs[0]
	// Cut the file mid-way through the block region: early blocks read fine,
	// a later ReadAt comes up short with plain EOF, which is not corruption.
	last := g.index.blocks[len(g.index.blocks)-1]
	if err := os.Truncate(g.path, last.offset+2); err != nil {
		t.Fatal(err)
	}
	r, err := s.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var scanErr error
	n := 0
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("scan over truncated segment reached EOF without error")
		}
		if err != nil {
			scanErr = err
			break
		}
		n++
	}
	if errors.Is(scanErr, ErrCorrupt) {
		t.Fatalf("EOF mid-block classified as corruption: %v", scanErr)
	}
	if n == 0 {
		t.Fatal("no records returned before the partial-scan error")
	}
	if _, err := r.Next(); err == nil || err.Error() != scanErr.Error() {
		t.Fatalf("partial-scan error not sticky: first %v, then %v", scanErr, err)
	}
}

// TestScanNoLeaksUnderFaults asserts the leak invariant of the scan path
// under injected failures: every file opened through the injector is closed —
// including on setup errors, early closes, and corrupt-block scans.
func TestScanNoLeaksUnderFaults(t *testing.T) {
	dir := t.TempDir()
	buildFaultStore(t, dir, 300).Close()

	check := func(t *testing.T, inj *faults.Injector) {
		t.Helper()
		if st := inj.Stats(); st.OpenFiles != 0 {
			t.Fatalf("%d files left open", st.OpenFiles)
		}
	}

	t.Run("clean-full-scan", func(t *testing.T) {
		inj := faults.NewInjector(faults.Disk{}, faults.Plan{})
		opts := faultOptions()
		opts.FS = inj
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := queryAll(t, s, Query{})
		if len(recs) != 300 {
			t.Fatalf("got %d records, want 300", len(recs))
		}
		s.Close()
		check(t, inj)
	})

	t.Run("early-close", func(t *testing.T) {
		inj := faults.NewInjector(faults.Disk{}, faults.Plan{})
		opts := faultOptions()
		opts.FS = inj
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Query(Query{})
		if err != nil {
			t.Fatal(err)
		}
		// Consume a few records, then abandon the scan with segments still
		// open; Close must release every one of them.
		for i := 0; i < 3; i++ {
			if _, err := r.Next(); err != nil {
				t.Fatal(err)
			}
		}
		r.Close()
		s.Close()
		check(t, inj)
	})

	t.Run("corrupt-block-scan", func(t *testing.T) {
		cdir := t.TempDir()
		s := buildFaultStore(t, cdir, 300)
		corruptBlock(t, s.segs[0], 2)
		s.Close()
		inj := faults.NewInjector(faults.Disk{}, faults.Plan{})
		opts := faultOptions()
		opts.FS = inj
		s, err := Open(cdir, opts)
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := queryAll(t, s, Query{})
		if len(recs) >= 300 {
			t.Fatalf("corrupt block not skipped: %d records", len(recs))
		}
		s.Close()
		check(t, inj)
	})

	// Sweep the Nth-open failure through every open the query path performs,
	// hitting each setup error branch in Query in turn.
	t.Run("open-fault-sweep", func(t *testing.T) {
		for failN := 1; failN <= 12; failN++ {
			inj := faults.NewInjector(faults.Disk{}, faults.Plan{FailOpenN: failN})
			opts := faultOptions()
			opts.FS = inj
			s, err := Open(dir, opts)
			if err != nil {
				if !errors.Is(err, faults.ErrInjected) {
					t.Fatalf("failN=%d: open: %v", failN, err)
				}
				check(t, inj)
				continue
			}
			r, err := s.Query(Query{})
			if err == nil {
				if _, err := r.ReadAll(); err != nil && !errors.Is(err, faults.ErrInjected) {
					t.Fatalf("failN=%d: scan: %v", failN, err)
				}
				r.Close()
			} else if !errors.Is(err, faults.ErrInjected) {
				t.Fatalf("failN=%d: query: %v", failN, err)
			}
			s.Close()
			check(t, inj)
		}
	})
}

// TestFaultMatrix drives the full ingest -> seal -> compact -> query
// pipeline under a table of injected write faults — torn writes, failed
// writes, and fsync failures at varying ordinals — and asserts that after
// every run the store reopens cleanly on an undamaged filesystem with a
// duplicate-free contiguous prefix covering all acknowledged records.
func TestFaultMatrix(t *testing.T) {
	type tc struct {
		name string
		plan faults.Plan
	}
	var cases []tc
	for _, n := range []int{1, 2, 3, 5, 8, 13, 21, 34} {
		cases = append(cases,
			tc{fmt.Sprintf("tornwrite-%d", n), faults.Plan{Seed: int64(n), TornWriteN: n}},
			tc{fmt.Sprintf("failwrite-%d", n), faults.Plan{Seed: int64(n), FailWriteN: n}},
			tc{fmt.Sprintf("failsync-%d", n), faults.Plan{Seed: int64(n), FailSyncN: n}},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := faults.NewInjector(faults.Disk{}, tc.plan)
			opts := faultOptions()
			opts.Sync = true
			opts.FS = inj

			acked := 0
			appended := 0
			// The pipeline stops at the first error, as a crashing process
			// would; everything before the fault must still be recoverable.
			func() {
				s, err := Open(dir, opts)
				if err != nil {
					return
				}
				defer func() {
					s.wal.close()
					s.closed = true
				}()
				w := s.Writer()
				step := func(err error) bool { return err == nil }
				for appended < 90 {
					if !step(w.Append(faultRecord(appended))) {
						return
					}
					appended++
					if appended%10 == 0 {
						if !step(w.Flush()) {
							return
						}
						acked = appended
					}
					if appended == 40 || appended == 80 {
						if !step(w.Seal()) {
							return
						}
						acked = appended
					}
				}
				if _, err := s.Compact(); err != nil {
					return
				}
				if r, err := s.Query(Query{}); err == nil {
					r.ReadAll()
					r.Close()
				}
			}()

			// Reopen on the undamaged filesystem, as a restart would.
			s, err := Open(dir, faultOptions())
			if err != nil {
				t.Fatalf("reopen after %s: %v", tc.name, err)
			}
			defer s.Close()
			recs, _ := queryAll(t, s, Query{})
			verifyRecoveredPrefix(t, recs, acked)
			if inj.Stats().Injected == 0 && len(recs) != appended {
				t.Fatalf("no fault fired but recovered %d of %d records", len(recs), appended)
			}
		})
	}
}
