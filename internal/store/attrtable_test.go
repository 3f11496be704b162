package store

import (
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/netaddr"
)

// TestRowReadsBackSameAcrossReopen appends announcements whose MED,
// LocalPref and aggregator fields are set without their presence flags:
// values the wire form does not carry. Each must read back the same from the
// memtable, from a fresh segment and after a reopen, and what it reads is
// what its wire bytes say.
func TestRowReadsBackSameAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	opts := testOptions()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	t0 := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	var recs []collector.Record
	for i, extra := range []bgp.Attrs{
		{MED: 5},
		{LocalPref: 100},
		{AggregatorAS: 690, AggregatorAddr: 0x0a0a0a0a},
		{MED: 7, HasMED: true, LocalPref: 9, AggregatorAS: 1},
	} {
		rec := mkRecord(t0.Add(time.Duration(i)*time.Second), 701, 3561, netaddr.MustParsePrefix("192.0.2.0/24"), true)
		rec.Attrs.MED, rec.Attrs.HasMED = extra.MED, extra.HasMED
		rec.Attrs.LocalPref = extra.LocalPref
		rec.Attrs.AggregatorAS, rec.Attrs.AggregatorAddr = extra.AggregatorAS, extra.AggregatorAddr
		recs = append(recs, rec)
	}
	if err := s.Writer().AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	check := func(from string) {
		t.Helper()
		got, _ := queryAll(t, s, Query{})
		if len(got) != len(recs) {
			t.Fatalf("%s: read %d records, want %d", from, len(got), len(recs))
		}
		for i, rec := range recs {
			wire, err := bgp.MarshalAttrs(rec.Attrs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := bgp.UnmarshalAttrs(wire)
			if err != nil {
				t.Fatal(err)
			}
			if !got[i].Attrs.PolicyEqual(&want) {
				t.Errorf("%s: record %d reads attributes %+v, its wire bytes say %+v", from, i, got[i].Attrs, want)
			}
		}
	}
	check("memtable")
	if err := s.Writer().Seal(); err != nil {
		t.Fatal(err)
	}
	check("fresh segment")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	check("reopened")
}

// TestAppendKnownTupleAllocatesNothing pins the append fast path: a row
// whose tuple the table already holds costs an encode into the table's
// scratch buffer and one map probe, and allocates nothing.
func TestAppendKnownTupleAllocatesNothing(t *testing.T) {
	tab := newLockedTable()
	rec := mkRecord(time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC), 701, 3561, netaddr.MustParsePrefix("192.0.2.0/24"), true)
	rec.Attrs.MED, rec.Attrs.HasMED = 10, true
	rec.Attrs.HasAggregator, rec.Attrs.AggregatorAS = true, 690
	rec.Attrs.Communities = []bgp.Community{0x02bd0001, 0x02bd0002}
	tab.mu.Lock()
	defer tab.mu.Unlock()
	first, err := tab.rowLocked(&rec)
	if err != nil {
		t.Fatal(err)
	}
	var again memRec
	allocs := testing.AllocsPerRun(100, func() {
		if again, err = tab.rowLocked(&rec); err != nil {
			t.Fatal(err)
		}
	})
	if again.attrs != first.attrs {
		t.Fatal("a repeated tuple resolved to a second ref")
	}
	if allocs != 0 {
		t.Fatalf("appending a known tuple allocates %.1f times, want 0", allocs)
	}
}

// TestUnflaggedValueIsOneTupleAcrossLayers classifies an announcement whose
// MED is set without its presence flag right after its canonical twin, then
// appends both to a store. The MED is not on the wire, so the two are one
// tuple in every layer: the classifier calls the second a plain AADup, not a
// policy shift, and the store resolves both rows to one handle.
func TestUnflaggedValueIsOneTupleAcrossLayers(t *testing.T) {
	t0 := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	twin := mkRecord(t0, 701, 3561, netaddr.MustParsePrefix("192.0.2.0/24"), true)
	stray := twin
	stray.Time = t0.Add(time.Second)
	stray.Attrs.MED = 50

	c := core.NewClassifier()
	c.Classify(twin)
	if ev := c.Classify(stray); ev.Class != core.AADup || ev.PolicyShift {
		t.Fatalf("unflagged MED after its twin: class %v, policy shift %v; want AADup without a shift", ev.Class, ev.PolicyShift)
	}

	s, err := Open(t.TempDir(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Writer().AppendBatch([]collector.Record{twin, stray}); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	rows := s.mem[s.windowStart(t0)].recs
	s.mu.Unlock()
	if len(rows) != 2 || rows[0].attrs == nil || rows[0].attrs != rows[1].attrs {
		t.Fatalf("the store holds %d rows; the twins resolve to distinct handles", len(rows))
	}
}
