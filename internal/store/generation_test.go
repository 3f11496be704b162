package store

import (
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

func genTestRecord(t time.Time, peer bgp.ASN, pfx string) collector.Record {
	p, err := netaddr.ParsePrefix(pfx)
	if err != nil {
		panic(err)
	}
	return collector.Record{
		Time:   t,
		Type:   collector.Announce,
		PeerAS: peer,
		Prefix: p,
		Attrs: bgp.Attrs{
			Origin:  bgp.OriginIGP,
			Path:    bgp.PathFromASNs(peer, 3561),
			NextHop: netaddr.Addr(0x0a000001),
		},
	}
}

// TestGeneration pins the cache-invalidation contract: the generation is
// stable across reads and memtable appends, advances on every seal and on a
// merging compaction, and never moves backwards.
func TestGeneration(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Window: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	g0 := s.Generation()
	base := time.Date(1996, 5, 1, 0, 0, 0, 0, time.UTC)
	w := s.Writer()
	if err := w.Append(genTestRecord(base, 690, "192.0.2.0/24")); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != g0 {
		t.Fatalf("generation moved on memtable append: %d -> %d", g0, got)
	}
	if _, err := s.Query(Query{}); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != g0 {
		t.Fatalf("generation moved on query: %d -> %d", g0, got)
	}

	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	g1 := s.Generation()
	if g1 <= g0 {
		t.Fatalf("generation did not advance on seal: %d -> %d", g0, g1)
	}
	if st := s.Stats(); st.Generation != g1 {
		t.Fatalf("Stats.Generation = %d, want %d", st.Generation, g1)
	}

	// A second seal of the same window adds a segment: new generation, new
	// fingerprint.
	fp1 := s.Stats().Fingerprint
	if err := w.Append(genTestRecord(base.Add(time.Minute), 701, "198.51.100.0/24")); err != nil {
		t.Fatal(err)
	}
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	g2 := s.Generation()
	if g2 <= g1 {
		t.Fatalf("generation did not advance on second seal: %d -> %d", g1, g2)
	}
	if fp2 := s.Stats().Fingerprint; fp2 == fp1 {
		t.Fatalf("fingerprint unchanged across segment-set change: %#x", fp2)
	}

	// Compaction merges the window's two segments: the set changes again.
	cs, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if cs.SegmentsMerged != 2 {
		t.Fatalf("compaction merged %d segments, want 2", cs.SegmentsMerged)
	}
	if g3 := s.Generation(); g3 <= g2 {
		t.Fatalf("generation did not advance on compaction: %d -> %d", g2, g3)
	}

	// An empty seal and a no-op compaction leave the segment set — and so
	// the generation — alone.
	g3 := s.Generation()
	if err := w.Seal(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := s.Generation(); got != g3 {
		t.Fatalf("generation moved on no-op seal/compact: %d -> %d", g3, got)
	}
}

// TestQueryKeyCanonical verifies that spelled-differently-but-equal queries
// share a key and that every predicate participates in it.
func TestQueryKeyCanonical(t *testing.T) {
	pfx, _ := netaddr.ParsePrefix("192.0.2.0/24")
	from := time.Date(1996, 5, 1, 0, 0, 0, 0, time.UTC)
	a := Query{From: from, PeerAS: []bgp.ASN{701, 690, 690}, Types: []collector.RecType{collector.Withdraw, collector.Announce}}
	b := Query{From: from, PeerAS: []bgp.ASN{690, 701}, Types: []collector.RecType{collector.Announce, collector.Withdraw, collector.Withdraw}}
	if a.Key() != b.Key() {
		t.Fatalf("equivalent queries have different keys:\n%q\n%q", a.Key(), b.Key())
	}
	distinct := []Query{
		{},
		{From: from},
		{To: from},
		{PeerAS: []bgp.ASN{690}},
		{OriginAS: []bgp.ASN{690}},
		{Prefix: pfx},
		{Types: []collector.RecType{collector.Announce}},
	}
	seen := make(map[string]int)
	for i, q := range distinct {
		k := q.Key()
		if j, dup := seen[k]; dup {
			t.Fatalf("queries %d and %d share key %q", i, j, k)
		}
		seen[k] = i
	}
}

// TestRecordWireRoundTrip pins the exported codec used by the serve binary
// protocol to the store's own record encoding.
func TestRecordWireRoundTrip(t *testing.T) {
	recs := []collector.Record{
		genTestRecord(time.Date(1996, 5, 1, 12, 0, 0, 0, time.UTC), 690, "192.0.2.0/24"),
		{Time: time.Unix(1000, 42).UTC(), Type: collector.Withdraw, PeerAS: 701, Prefix: mustParsePrefix("10.0.0.0/8")},
		{Time: time.Unix(2000, 0).UTC(), Type: collector.SessionDown, PeerAS: 1239},
	}
	var b []byte
	var err error
	for _, rec := range recs {
		if b, err = AppendRecordWire(b, rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range recs {
		var got collector.Record
		got, b, err = collector.DecodeRecord(b)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.String() != want.String() || !got.Time.Equal(want.Time) {
			t.Fatalf("record %d: got %v, want %v", i, got, want)
		}
	}
	if len(b) != 0 {
		t.Fatalf("%d trailing bytes after decode", len(b))
	}
	if _, _, err := collector.DecodeRecord([]byte{1, 2, 3}); err == nil {
		t.Fatal("truncated record decoded without error")
	}
}

func mustParsePrefix(s string) netaddr.Prefix {
	p, err := netaddr.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}
