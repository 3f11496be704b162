package store

import (
	"io"
	"testing"
	"time"

	"instability/internal/collector"
)

// buildScanStore seals a multi-segment store with some records left
// unsealed in the memtable, so a scan covers every stream kind.
func buildScanStore(t *testing.T) (*Store, []collector.Record) {
	t.Helper()
	recs := hourlyWorkload(6, 300)
	s, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	w := s.Writer()
	sealAt := len(recs) - 200 // tail stays in the memtable
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == sealAt {
			if err := w.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := s.Stats(); st.Segments < 2 || st.MemRecords == 0 {
		t.Fatalf("want multi-segment store with unsealed tail, got %+v", st)
	}
	return s, recs
}

// TestQueryPrunedToNothing: a query whose pruning leaves nothing must return
// a clean empty result without fetching a block.
func TestQueryPrunedToNothing(t *testing.T) {
	s, recs := buildScanStore(t)
	empty, st := queryAll(t, s, Query{From: recs[len(recs)-1].Time.Add(48 * time.Hour)})
	if len(empty) != 0 || st.BlocksScanned != 0 {
		t.Fatalf("future-window query returned %d records, stats %+v", len(empty), st)
	}
}

// TestQueryEarlyClose closes a reader mid-stream: its segment references
// are released, and the store must remain fully queryable afterwards.
func TestQueryEarlyClose(t *testing.T) {
	s, recs := buildScanStore(t)
	r, err := s.Query(Query{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := r.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		// A closed reader has no streams left; Next must report EOF.
		t.Fatalf("Next after Close: %v", err)
	}
	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, recs)
}

// TestAppendBatch checks that batched ingest is byte-equivalent to
// record-at-a-time ingest: same query results before sealing (memtable +
// WAL path) and after (segment path), same writer accounting.
func TestAppendBatch(t *testing.T) {
	recs := hourlyWorkload(3, 250)

	single, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sw := single.Writer()
	for _, rec := range recs {
		if err := sw.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	batched, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer batched.Close()
	bw := batched.Writer()
	for i := 0; i < len(recs); i += 97 { // deliberately unaligned batches
		end := i + 97
		if end > len(recs) {
			end = len(recs)
		}
		if err := bw.AppendBatch(recs[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if sw.Count() != bw.Count() {
		t.Fatalf("appended %d batched vs %d single", bw.Count(), sw.Count())
	}

	// Unsealed: everything visible from the memtable.
	gotMem, _ := queryAll(t, batched, Query{})
	wantMem, _ := queryAll(t, single, Query{})
	assertSameRecords(t, gotMem, wantMem)

	// Sealed: identical segment contents.
	if err := sw.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Seal(); err != nil {
		t.Fatal(err)
	}
	got, _ := queryAll(t, batched, Query{})
	want, _ := queryAll(t, single, Query{})
	assertSameRecords(t, got, want)
}

// TestAppendBatchDurability: a batch followed by Flush must survive a crash
// (reopen without Seal or Close) through WAL replay.
func TestAppendBatchDurability(t *testing.T) {
	recs := hourlyWorkload(1, 120)
	dir := t.TempDir()
	s, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	w := s.Writer()
	if err := w.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Crash: the handle is abandoned; nothing is sealed or closed.
	_ = s

	re, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _ := queryAll(t, re, Query{})
	assertSameRecords(t, got, recs)
}
