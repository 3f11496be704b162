package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
	"unsafe"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/intern"
	"instability/internal/netaddr"
)

// mkRecord builds a valid announce or withdraw record. Announces carry a
// path terminating at origin, so origin-AS indexing is exercised.
func mkRecord(ts time.Time, peer, origin bgp.ASN, prefix netaddr.Prefix, announce bool) collector.Record {
	rec := collector.Record{
		Time:     ts.UTC(),
		PeerAS:   peer,
		PeerAddr: netaddr.Addr(0xc0000000 | uint32(peer)),
		Prefix:   prefix,
	}
	if announce {
		rec.Type = collector.Announce
		rec.Attrs = bgp.Attrs{
			Origin:  bgp.OriginIGP,
			Path:    bgp.PathFromASNs(peer, 3000, origin),
			NextHop: netaddr.Addr(0x0a000000 | uint32(peer)),
		}
	} else {
		rec.Type = collector.Withdraw
	}
	return rec
}

// originOf extracts the origin AS of an announcement (the last AS of its
// path). Non-announcements, and announcements with empty or SET-terminated
// paths, have no origin; ok is false.
func originOf(rec collector.Record) (bgp.ASN, bool) {
	if rec.Type != collector.Announce {
		return 0, false
	}
	return rec.Attrs.Path.Origin()
}

// hourlyWorkload builds `hours` hours of records where each origin AS is
// active in exactly one hour, so origin queries have something to skip.
func hourlyWorkload(hours, perHour int) []collector.Record {
	start := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	var recs []collector.Record
	for h := 0; h < hours; h++ {
		origin := bgp.ASN(7000 + h)
		for i := 0; i < perHour; i++ {
			ts := start.Add(time.Duration(h)*time.Hour + time.Duration(i)*time.Second)
			peer := bgp.ASN(100 + i%4)
			prefix := netaddr.MustPrefix(netaddr.Addr(0xc6000000+uint32(h)<<16+uint32(i)<<8), 24)
			recs = append(recs, mkRecord(ts, peer, origin, prefix, i%3 != 0))
		}
	}
	return recs
}

func recordsEqual(a, b collector.Record) bool {
	return a.Time.Equal(b.Time) && a.Type == b.Type && a.PeerAS == b.PeerAS &&
		a.PeerAddr == b.PeerAddr && a.Prefix == b.Prefix && a.Attrs.PolicyEqual(&b.Attrs)
}

func assertSameRecords(t *testing.T, got, want []collector.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("record %d mismatch:\n got  %v\n want %v", i, got[i], want[i])
		}
	}
}

func queryAll(t *testing.T, s *Store, q Query) ([]collector.Record, Explain) {
	t.Helper()
	r, err := s.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return recs, r.Explain()
}

// ReadAll drains the reader. Only tests collect a whole result in memory.
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

func testOptions() Options {
	return Options{Window: time.Hour, BlockRecords: 64, FlushEvery: 32}
}

// TestPushdownSkipsBlocks is the acceptance check for indexed queries: a
// single-origin query over a multi-segment store must decompress strictly
// fewer blocks than a full scan, while returning exactly the right records.
func TestPushdownSkipsBlocks(t *testing.T) {
	recs := hourlyWorkload(6, 300)
	s, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.Writer()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("want a multi-segment store, got %d segments", st.Segments)
	}

	full, fullStats := queryAll(t, s, Query{})
	assertSameRecords(t, full, recs)
	if fullStats.BlocksScanned != fullStats.BlocksTotal || fullStats.BlocksTotal == 0 {
		t.Fatalf("full scan should read every block: %+v", fullStats)
	}

	origin := bgp.ASN(7002)
	var want []collector.Record
	for _, rec := range recs {
		if o, ok := originOf(rec); ok && o == origin {
			want = append(want, rec)
		}
	}
	got, stats := queryAll(t, s, Query{OriginAS: []bgp.ASN{origin}})
	assertSameRecords(t, got, want)
	if stats.BlocksScanned >= fullStats.BlocksScanned {
		t.Fatalf("pushdown did not skip blocks: filtered %d vs full %d", stats.BlocksScanned, fullStats.BlocksScanned)
	}
	if stats.SegmentsScanned >= fullStats.SegmentsScanned {
		t.Fatalf("pushdown did not skip segments: filtered %d vs full %d", stats.SegmentsScanned, fullStats.SegmentsScanned)
	}

	// Peer and prefix pushdown also prune (peer postings cover all blocks
	// here, so assert only correctness; the bloom filter must skip whole
	// segments for an absent prefix).
	missing := netaddr.MustParsePrefix("10.99.0.0/16")
	got, stats = queryAll(t, s, Query{Prefix: missing})
	if len(got) != 0 {
		t.Fatalf("absent prefix returned %d records", len(got))
	}
	if stats.BlocksScanned == fullStats.BlocksTotal {
		t.Fatalf("bloom filter skipped nothing: %+v", stats)
	}
}

// TestQueryFilters cross-checks every predicate against an in-memory
// reference filter, including queries over the unsealed memtable.
func TestQueryFilters(t *testing.T) {
	recs := hourlyWorkload(4, 200)
	s, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.Writer()
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == len(recs)/2 {
			if err := w.Seal(); err != nil { // half sealed, half memtable
				t.Fatal(err)
			}
		}
	}

	start := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	queries := []Query{
		{},
		{PeerAS: []bgp.ASN{101}},
		{OriginAS: []bgp.ASN{7001, 7003}},
		{Types: []collector.RecType{collector.Withdraw}},
		{From: start.Add(90 * time.Minute), To: start.Add(3 * time.Hour)},
		{Prefix: recs[17].Prefix},
		{PeerAS: []bgp.ASN{102}, Types: []collector.RecType{collector.Announce}, From: start.Add(time.Hour)},
		{OriginAS: []bgp.ASN{7000}, Types: []collector.RecType{collector.Withdraw}}, // contradiction: empty
	}
	for qi, q := range queries {
		var want []collector.Record
		for _, rec := range recs {
			if q.match(rec) {
				want = append(want, rec)
			}
		}
		got, _ := queryAll(t, s, q)
		if len(got) != len(want) {
			t.Fatalf("query %d: got %d records, want %d", qi, len(got), len(want))
		}
		for i := range got {
			if !recordsEqual(got[i], want[i]) {
				t.Fatalf("query %d record %d mismatch", qi, i)
			}
		}
	}
}

// TestQueryBoundsOutsideNanosecondRange holds sealed and unsealed records to
// the same answer when a bound lies outside the years 1678–2262, where
// time.Time.UnixNano wraps: segment and block pruning and the kernels must
// saturate such a bound, not compare its wrapped value.
func TestQueryBoundsOutsideNanosecondRange(t *testing.T) {
	recs := hourlyWorkload(4, 200)
	s, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.Writer()
	if err := w.AppendBatch(recs[:401]); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil { // half sealed, half memtable
		t.Fatal(err)
	}
	if err := w.AppendBatch(recs[401:]); err != nil {
		t.Fatal(err)
	}
	early := time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC)
	late := time.Date(2300, 1, 1, 0, 0, 0, 0, time.UTC)
	withdrawals := []collector.RecType{collector.Withdraw}
	for qi, q := range []Query{
		{To: late},
		{From: early},
		{From: early, To: late},
		{From: early, To: late, Types: withdrawals},
		{From: recs[100].Time, To: late, PeerAS: []bgp.ASN{101}},
		{From: late},
		{To: early},
		{From: late, Types: withdrawals},
	} {
		var want []collector.Record
		for _, rec := range recs {
			if q.match(rec) {
				want = append(want, rec)
			}
		}
		got, _ := queryAll(t, s, q)
		if len(got) != len(want) {
			t.Fatalf("query %d %+v: got %d records, want %d", qi, q, len(got), len(want))
		}
		for i := range got {
			if !recordsEqual(got[i], want[i]) {
				t.Fatalf("query %d record %d mismatch", qi, i)
			}
		}
	}
}

// TestCrashRecovery kills a writer mid-batch (handle dropped without Close)
// and verifies the reopened store has every flushed record exactly once:
// sealed data plus the WAL tail, no losses, no duplicates.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	recs := hourlyWorkload(2, 250)
	sealedN := 300

	s, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	for _, rec := range recs[:sealedN] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[sealedN:] {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: the handle is abandoned; nothing is sealed or closed.

	s2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Stats()
	if st.MemRecords != len(recs)-sealedN {
		t.Fatalf("recovered %d WAL records, want %d", st.MemRecords, len(recs)-sealedN)
	}
	got, _ := queryAll(t, s2, Query{})
	assertSameRecords(t, got, recs)
}

// TestCrashBeforeWALTruncate simulates the worst crash point: the seal wrote
// its segments but died before truncating the WAL, so every sealed record is
// still in the log. Sequence-range dedupe must discard all of them.
func TestCrashBeforeWALTruncate(t *testing.T) {
	dir := t.TempDir()
	recs := hourlyWorkload(2, 200)

	s, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	walCopy, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the pre-seal WAL, as if the truncate never happened.
	if err := os.WriteFile(filepath.Join(dir, walName), walCopy, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.MemRecords != 0 {
		t.Fatalf("stale WAL entries resurrected: %d memtable records", st.MemRecords)
	}
	got, _ := queryAll(t, s2, Query{})
	assertSameRecords(t, got, recs)
}

// TestWALTornTail verifies that garbage after the last intact WAL entry (a
// crash mid-write) is discarded without losing the entries before it.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	recs := hourlyWorkload(1, 100)

	s, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-write: a partial frame lands at the tail.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x40, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := queryAll(t, s2, Query{})
	assertSameRecords(t, got, recs)

	// And the store keeps working: more appends and a seal after recovery.
	w2 := s2.Writer()
	extra := mkRecord(recs[len(recs)-1].Time.Add(time.Second), 300, 7100, netaddr.MustParsePrefix("192.42.113.0/24"), true)
	if err := w2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := w2.Seal(); err != nil {
		t.Fatal(err)
	}
	got, _ = queryAll(t, s2, Query{})
	assertSameRecords(t, got, append(append([]collector.Record(nil), recs...), extra))
}

// TestCompact merges the residue of incremental seals into one segment per
// window and leaves query results identical.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	recs := hourlyWorkload(2, 240)
	s, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := s.Writer()
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if (i+1)%100 == 0 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.Segments <= before.Windows {
		t.Fatalf("want fragmented store, got %d segments over %d windows", before.Segments, before.Windows)
	}
	wantRecs, _ := queryAll(t, s, Query{})

	cst, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Segments != after.Windows {
		t.Fatalf("compaction left %d segments over %d windows", after.Segments, after.Windows)
	}
	if cst.SegmentsAfter != after.Segments || cst.RecordsRewritten != int64(len(recs)) {
		t.Fatalf("compact stats %+v inconsistent with store %+v", cst, after)
	}
	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, wantRecs)

	// The compacted store must survive a reopen (footers, indexes, naming).
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ = queryAll(t, s2, Query{})
	assertSameRecords(t, got, wantRecs)
}

// TestCompactCrashRepair verifies the replaces-list repair path: if a crash
// leaves both a compacted segment and a segment it replaced on disk, Open
// deletes the stale one instead of double-counting its records.
func TestCompactCrashRepair(t *testing.T) {
	dir := t.TempDir()
	recs := hourlyWorkload(1, 200)
	s, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == len(recs)/2 {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	// Preserve the pre-compaction segments, then compact and re-plant one.
	var stale []string
	entries, _ := os.ReadDir(dir)
	backup := make(map[string][]byte)
	for _, e := range entries {
		if filepath.Ext(e.Name()) == segSuffix {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			backup[e.Name()] = b
			stale = append(stale, e.Name())
		}
	}
	if len(stale) != 2 {
		t.Fatalf("expected 2 pre-compaction segments, got %d", len(stale))
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, stale[0]), backup[stale[0]], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, _ := queryAll(t, s2, Query{})
	assertSameRecords(t, got, recs)
	if _, err := os.Stat(filepath.Join(dir, stale[0])); !os.IsNotExist(err) {
		t.Fatalf("stale replaced segment not deleted on open: %v", err)
	}
}

// TestAutoSeal bounds memtable growth during bulk ingest.
func TestAutoSeal(t *testing.T) {
	opts := testOptions()
	opts.AutoSealRecords = 128
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := hourlyWorkload(1, 500)
	w := s.Writer()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Auto-seals run in the background; join them so the bound below is the
	// steady-state memtable, not a batch caught mid-flight.
	if err := s.joinSeal(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.MemRecords >= opts.AutoSealRecords {
		t.Fatalf("memtable grew to %d despite auto-seal at %d", st.MemRecords, opts.AutoSealRecords)
	}
	if st.Segments == 0 {
		t.Fatal("auto-seal produced no segments")
	}
	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, recs)
}

// TestParseQuery exercises the shared CLI query parser.
func TestParseQuery(t *testing.T) {
	q, err := ParseQuery("1996-03-01", "1996-03-02 06:00:00", "690,701", "7000", "198.32.0.0/16", "A,W")
	if err != nil {
		t.Fatal(err)
	}
	if q.From.IsZero() || q.To.IsZero() || len(q.PeerAS) != 2 || len(q.OriginAS) != 1 ||
		!q.hasPrefix() || len(q.Types) != 2 {
		t.Fatalf("parsed query incomplete: %+v", q)
	}
	// bgpdump's old minute-resolution spelling still parses.
	if q, err := ParseQuery("1996-05-25 00:02", "", "", "", "", ""); err != nil || !q.From.Equal(time.Date(1996, 5, 25, 0, 2, 0, 0, time.UTC)) {
		t.Fatalf("minute-resolution time: %v, %v", q.From, err)
	}
	if _, err := ParseQuery("yesterday", "", "", "", "", ""); err == nil {
		t.Fatal("bad time accepted")
	}
	if _, err := ParseQuery("", "", "notanas", "", "", ""); err == nil {
		t.Fatal("bad AS accepted")
	}
	if _, err := ParseQuery("", "", "", "", "", "X"); err == nil {
		t.Fatal("bad type accepted")
	}
	// Spellings that parse to a predicate's unset value would silently match
	// every record; each is an error naming its flag.
	for _, c := range []struct{ from, to, prefix, flag string }{
		{"", "", "0.0.0.0/0", "-prefix"},
		{"", "", "0/0", "-prefix"},
		{"0001-01-01", "", "", "-from"},
		{"", "3000-01-01", "", "-to"},
	} {
		_, err := ParseQuery(c.from, c.to, "", "", c.prefix, "")
		if err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("ParseQuery(from %q, to %q, prefix %q): err %v, want an error naming %s", c.from, c.to, c.prefix, err, c.flag)
		}
	}
}

// TestConcurrentAppend hammers one writer from several goroutines while a
// reader queries mid-ingest; run under -race this is the concurrency check.
func TestConcurrentAppend(t *testing.T) {
	s, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := hourlyWorkload(2, 400)
	w := s.Writer()
	const workers = 4
	errc := make(chan error, workers)
	for g := 0; g < workers; g++ {
		go func(g int) {
			for i := g; i < len(recs); i += workers {
				if err := w.Append(recs[i]); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(g)
	}
	// Concurrent queries must never see torn state.
	for i := 0; i < 10; i++ {
		r, err := s.Query(Query{PeerAS: []bgp.ASN{101}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadAll(); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	for g := 0; g < workers; g++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	got, _ := queryAll(t, s, Query{})
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	if n := w.Count(); n != int64(len(recs)) {
		t.Fatalf("writer count %d, want %d", n, len(recs))
	}
}

func TestStatsShape(t *testing.T) {
	s, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := hourlyWorkload(3, 100)
	w := s.Writer()
	for _, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Segments != 3 || st.Windows != 3 || st.Records != int64(len(recs)) ||
		st.MemRecords != 0 || st.DiskBytes == 0 || st.WALBytes != 0 {
		t.Fatalf("unexpected stats %+v", st)
	}
	if got := s.windowStart(recs[0].Time); got != time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC).UnixNano() {
		t.Fatalf("windowStart = %v", time.Unix(0, got).UTC())
	}
	_ = fmt.Sprintf("%+v", st)
}

// TestAppendDoesNotRetainCallerAttrs pins that an append keeps its own copy
// of what it was given: a caller that reuses its path and community buffers
// after Append must not change the acked record, whether it is read back
// unsealed, sealed, or replayed from the WAL after a crash. The record is
// appended in a non-UTC zone and must read back in UTC every way, as the
// sealed and replayed forms always did.
func TestAppendDoesNotRetainCallerAttrs(t *testing.T) {
	asns := []bgp.ASN{10, 20, 30}
	comms := []bgp.Community{0x00010002}
	rec := collector.Record{
		Time:     time.Date(1996, 3, 1, 12, 0, 0, 0, time.FixedZone("EST", -5*3600)),
		Type:     collector.Announce,
		PeerAS:   10,
		PeerAddr: 0x0a000001,
		Prefix:   netaddr.MustPrefix(0xc6000000, 24),
		Attrs: bgp.Attrs{
			Origin:      bgp.OriginIGP,
			Path:        bgp.ASPath{Segments: []bgp.PathSegment{{Type: bgp.ASSequence, ASNs: asns}}},
			NextHop:     0x0a000001,
			Communities: comms,
		},
	}
	// Every field, the time's zone included: Record's String shows neither.
	type fields collector.Record
	acked := rec
	acked.Time = rec.Time.UTC()
	want := fmt.Sprintf("%+v", fields(acked))
	read := func(what string, s *Store) {
		t.Helper()
		got, _ := queryAll(t, s, Query{})
		if len(got) != 1 {
			t.Fatalf("%s read: %d records, want 1", what, len(got))
		}
		if g := fmt.Sprintf("%+v", fields(got[0])); g != want {
			t.Errorf("%s read:\n got  %s\n want %s", what, g, want)
		}
	}

	dir := t.TempDir()
	s, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	asns[2], comms[0] = 99, 0 // the caller reuses its buffers

	// The crash image: the directory as it stands, WAL and all.
	crashed := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	read("unsealed", s)
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	read("sealed", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(crashed, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.MemRecords != 1 {
		t.Fatalf("replayed %d WAL records, want 1", st.MemRecords)
	}
	read("replayed", s2)
}

// TestMemRecSize pins the memtable row at 32 bytes, a quarter of the
// collector.Record it replaces.
func TestMemRecSize(t *testing.T) {
	if n := unsafe.Sizeof(memRec{}); n != 32 {
		t.Fatalf("memRec is %d bytes, want 32", n)
	}
}

// TestOneAttrRefPerTuple pins the store's one attribute table: a tuple reads
// back with the same shared Path storage whether its record comes from the
// memtable, a sealed segment through the block cache or around it, or a
// compacted segment, and once every tuple is in the table, neither a repeat
// scan nor a compaction adds an entry to it.
func TestOneAttrRefPerTuple(t *testing.T) {
	opts := testOptions()
	opts.BlockCacheBytes = 1 << 20
	s, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	recs := hourlyWorkload(2, 200)
	half := len(recs) * 3 / 4 // the second window is sealed in two parts
	w := s.Writer()
	if err := w.AppendBatch(recs[:half]); err != nil {
		t.Fatal(err)
	}

	// paths maps each tuple, by its wire bytes, to the first path segment
	// the store handed back for it.
	paths := make(map[string]*bgp.PathSegment)
	check := func(from string, cache *blockCache) {
		t.Helper()
		s.mu.Lock()
		saved := s.cache
		s.cache = cache
		s.mu.Unlock()
		got, _ := queryAll(t, s, Query{})
		s.mu.Lock()
		s.cache = saved
		s.mu.Unlock()
		n := 0
		for _, rec := range got {
			if rec.Type != collector.Announce {
				continue
			}
			wire, err := bgp.MarshalAttrs(rec.Attrs)
			if err != nil {
				t.Fatal(err)
			}
			seg := &rec.Attrs.Path.Segments[0]
			if want, ok := paths[string(wire)]; !ok {
				paths[string(wire)] = seg
			} else if seg != want {
				t.Fatalf("%s: tuple %v reads back with its own path storage", from, rec.Attrs)
			}
			n++
		}
		if n == 0 {
			t.Fatalf("%s: no announcements read", from)
		}
	}
	entries := func() (tuples, wires int) {
		s.attrs.mu.Lock()
		defer s.attrs.mu.Unlock()
		return tableSize(s.attrs.Table)
	}

	check("memtable", s.cache)
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	check("sealed, cache off", nil)
	check("sealed, cache on", s.cache)
	if err := w.AppendBatch(recs[half:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	check("second seal, cache off", nil)
	check("second seal, cache on", s.cache)
	tuples, wires := entries()
	if tuples != len(paths) {
		t.Fatalf("table holds %d tuples, the records carry %d", tuples, len(paths))
	}

	check("repeat scan, cache off", nil)
	st, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.SegmentsMerged == 0 {
		t.Fatal("nothing compacted")
	}
	check("compacted, cache off", nil)
	check("compacted, cache on", s.cache)
	if t2, w2 := entries(); t2 != tuples || w2 != wires {
		t.Fatalf("scans and a compaction grew the table from %d tuples (%d wire keys) to %d (%d)", tuples, wires, t2, w2)
	}
	if len(paths) != tuples {
		t.Fatalf("%d distinct tuples read back, table holds %d", len(paths), tuples)
	}
}

// tableSize counts the distinct handles an intern.Table holds and the wire
// keys that reach them, reading its unexported map by reflection: the store's
// tests pin its growth without intern exporting a counter no program reads.
func tableSize(tab *intern.Table) (tuples, wires int) {
	m := reflect.ValueOf(tab).Elem().FieldByName("byWire")
	handles := make(map[uintptr]bool)
	for it := m.MapRange(); it.Next(); {
		handles[it.Value().Pointer()] = true
	}
	return len(handles), m.Len()
}

// Count returns the number of records appended through this writer.
func (w *Writer) Count() int64 {
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	return w.appended
}

// Flush group-commits any buffered appends to the WAL.
func (w *Writer) Flush() error {
	s := w.s
	s.mu.Lock()
	defer s.mu.Unlock()
	return w.flushLocked()
}
