package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// walV1FixtureName is a WAL written one entry per frame, as builds before
// group-commit frames wrote every WAL: walFixtureRecords appended one at a
// time under testOptions, flushed, and the store abandoned unsealed. It is
// frozen: nothing in this tree writes one-entry frames any more.
const walV1FixtureName = "wal-v1.log"

// walFixtureRecords is the record set inside testdata/wal-v1.log:
// announcements and withdrawals over two one-hour windows.
func walFixtureRecords() []collector.Record {
	start := time.Date(1996, 5, 2, 11, 30, 0, 0, time.UTC)
	var recs []collector.Record
	for i := 0; i < 60; i++ {
		ts := start.Add(time.Duration(i) * time.Minute)
		peer := bgp.ASN(100 + i%3)
		origin := bgp.ASN(7000 + i%5)
		prefix := netaddr.MustPrefix(netaddr.Addr(0xc6000000+uint32(i%20)<<8), 24)
		recs = append(recs, mkRecord(ts, peer, origin, prefix, i%4 != 0))
	}
	return recs
}

// walFrame frames recs as one group commit in window, numbered from seq,
// through the record codec rather than the writer. cut bytes are taken off
// the last entry before the checksum is computed, leaving a frame that is
// intact as a frame and does not decode as a WAL.
func walFrame(tb testing.TB, window int64, seq uint64, cut int, recs ...collector.Record) []byte {
	tb.Helper()
	b, lenAt := collector.BeginFrame(nil)
	for i, rec := range recs {
		b = binary.BigEndian.AppendUint64(b, uint64(window))
		b = binary.BigEndian.AppendUint64(b, seq+uint64(i))
		var err error
		if b, err = collector.AppendRecord(b, rec); err != nil {
			tb.Fatal(err)
		}
	}
	return collector.EndFrame(b[:len(b)-cut], lenAt)
}

// abandon releases a store's files without sealing or flushing, as a crash
// would leave it.
func abandon(t *testing.T, s *Store) {
	t.Helper()
	if err := s.wal.close(); err != nil {
		t.Fatal(err)
	}
	s.closed = true
}

// TestLegacyWALReplays: a WAL of one-entry frames replays into exactly the
// records its writer appended, is kept whole, and takes group-commit frames
// behind it that replay too.
func TestLegacyWALReplays(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	if err := copyFile(filepath.Join("testdata", walV1FixtureName), path); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := walFixtureRecords()
	if st := s.Stats(); st.MemRecords != len(want) || st.Segments != 0 {
		t.Fatalf("replayed %+v, want %d memtable records", st, len(want))
	}
	if after, err := os.Stat(path); err != nil || after.Size() != before.Size() {
		t.Fatalf("open cut the legacy WAL: %d bytes, had %d (%v)", after.Size(), before.Size(), err)
	}
	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, want)

	more := make([]collector.Record, 5)
	for i := range more {
		more[i] = mkRecord(want[len(want)-1].Time.Add(time.Duration(i+1)*time.Second), 100, 7000, want[i].Prefix, i%2 == 0)
	}
	if err := s.Writer().AppendBatch(more); err != nil {
		t.Fatal(err)
	}
	if err := s.Writer().Flush(); err != nil {
		t.Fatal(err)
	}
	abandon(t, s)
	s2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ = queryAll(t, s2, Query{})
	assertSameRecords(t, got, append(want, more...))
}

// TestWALFrameRejectedWhole: a frame whose checksum holds but whose last
// entry does not decode replays none of its entries. The WAL is cut at the
// frame's start, taking the intact frame behind it too, and only the frame
// before it replays.
func TestWALFrameRejectedWhole(t *testing.T) {
	window := faultBase.UnixNano() // faultOptions' one-hour windows start on the hour
	good := walFrame(t, window, 1, 0, faultRecord(0), faultRecord(1))
	bad := walFrame(t, window, 3, 3, faultRecord(2), faultRecord(3), faultRecord(4))
	after := walFrame(t, window, 6, 0, faultRecord(5))
	if _, n, _ := collector.ScanFrames(append(append(append([]byte(nil), good...), bad...), after...), nil); n != 3 {
		t.Fatalf("%d intact frames, want 3", n)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, walName)
	if err := os.WriteFile(path, append(append(append([]byte(nil), good...), bad...), after...), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, faultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, []collector.Record{faultRecord(0), faultRecord(1)})
	if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(good)) {
		t.Fatalf("WAL is %d bytes after open, want it cut to the bad frame's start at %d (%v)", fi.Size(), len(good), err)
	}
}

// TestCommitTooLarge: an append that would carry its group commit past what
// one frame's length prefix can state fails with ErrCommitTooLarge and
// stores none of its records; a commit at the bound goes through.
func TestCommitTooLarge(t *testing.T) {
	defer func(n int64) { maxFramePayload = n }(maxFramePayload)
	two := walFrame(t, 0, 1, 0, faultRecord(0), faultRecord(1))
	maxFramePayload = int64(len(two) - 8) // entries 0 and 1, exactly
	dir := t.TempDir()
	s, err := Open(dir, faultOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	if err := w.Append(faultRecord(0)); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]collector.Record{faultRecord(1), faultRecord(2)}); !errors.Is(err, ErrCommitTooLarge) {
		t.Fatalf("oversized commit: %v, want ErrCommitTooLarge", err)
	}
	if err := w.Append(faultRecord(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	abandon(t, s)
	s2, err := Open(dir, faultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := queryAll(t, s2, Query{})
	assertSameRecords(t, got, []collector.Record{faultRecord(0), faultRecord(1)})
}
