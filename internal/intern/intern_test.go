package intern

import (
	"math/rand"
	"testing"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

func attrs(nextHop string, path bgp.ASPath, comms ...bgp.Community) bgp.Attrs {
	return bgp.Attrs{
		Origin:      bgp.OriginIGP,
		Path:        path,
		NextHop:     netaddr.MustParseAddr(nextHop),
		Communities: comms,
	}
}

func TestInternDedupes(t *testing.T) {
	tab := New()
	p := bgp.PathFromASNs(701, 1239, 690)
	h1 := tab.Attrs(attrs("10.0.0.1", p))
	h2 := tab.Attrs(attrs("10.0.0.1", bgp.PathFromASNs(701, 1239, 690)))
	if h1 != h2 {
		t.Fatalf("equal tuples interned to distinct handles")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tab.Len())
	}
	h3 := tab.Attrs(attrs("10.0.0.2", p))
	if h3 == h1 {
		t.Fatalf("distinct next hops shared a handle")
	}
	if h3.ID == h1.ID {
		t.Fatalf("distinct tuples shared an ID")
	}
	if h3.PathID != h1.PathID {
		t.Fatalf("same path got distinct PathIDs: %d vs %d", h3.PathID, h1.PathID)
	}
}

func TestInternPolicyDistinguishes(t *testing.T) {
	tab := New()
	p := bgp.PathFromASNs(701, 690)
	plain := tab.Attrs(attrs("10.0.0.1", p))
	tagged := tab.Attrs(attrs("10.0.0.1", p, bgp.Community(0x02BD0001)))
	if plain == tagged {
		t.Fatalf("community change interned to the same handle")
	}
	if !ForwardingEqual(plain, tagged) {
		t.Fatalf("ForwardingEqual false for policy-only difference")
	}
	med := attrs("10.0.0.1", p)
	med.HasMED, med.MED = true, 50
	hm := tab.Attrs(med)
	if hm == plain {
		t.Fatalf("MED change interned to the same handle")
	}
	if !ForwardingEqual(hm, plain) {
		t.Fatalf("ForwardingEqual must ignore MED")
	}
}

func TestForwardingEqual(t *testing.T) {
	tab := New()
	a := tab.Attrs(attrs("10.0.0.1", bgp.PathFromASNs(701, 690)))
	b := tab.Attrs(attrs("10.0.0.1", bgp.PathFromASNs(701, 1239, 690)))
	if ForwardingEqual(a, b) {
		t.Fatalf("distinct paths reported forwarding-equal")
	}
	if ForwardingEqual(a, nil) || ForwardingEqual(nil, a) || ForwardingEqual(nil, nil) {
		t.Fatalf("nil handles must never be forwarding-equal")
	}
	if !ForwardingEqual(a, a) {
		t.Fatalf("handle not forwarding-equal to itself")
	}
	if a.FwdHash != tab.Attrs(attrs("10.0.0.1", bgp.PathFromASNs(701, 690), bgp.Community(7))).FwdHash {
		t.Fatalf("forwarding hash must ignore policy attributes")
	}
}

func TestInternDeepCopies(t *testing.T) {
	tab := New()
	comms := []bgp.Community{bgp.Community(1)}
	path := bgp.PathFromASNs(701, 690)
	h := tab.Attrs(attrs("10.0.0.1", path, comms...))
	comms[0] = bgp.Community(999)
	path.Segments[0].ASNs[0] = 4242
	got := h.Attrs()
	if got.Communities[0] != bgp.Community(1) {
		t.Fatalf("interned communities alias the caller's slice")
	}
	if got.Path.Segments[0].ASNs[0] != 701 {
		t.Fatalf("interned path aliases the caller's segments")
	}
	// The mutated originals now describe a different tuple.
	if h2 := tab.Attrs(attrs("10.0.0.1", path, comms...)); h2 == h {
		t.Fatalf("mutated tuple resolved to the stale handle")
	}
}

func TestPathIntern(t *testing.T) {
	tab := New()
	id1 := tab.Path(bgp.PathFromASNs(701, 690))
	id2 := tab.Path(bgp.PathFromASNs(701, 690))
	id3 := tab.Path(bgp.PathFromASNs(690))
	if id1 != id2 {
		t.Fatalf("equal paths got distinct IDs")
	}
	if id1 == id3 {
		t.Fatalf("distinct paths shared an ID")
	}
	if tab.PathLen() != 2 {
		t.Fatalf("PathLen = %d, want 2", tab.PathLen())
	}
	if !tab.paths.Lookup(id3).Equal(bgp.PathFromASNs(690)) {
		t.Fatalf("Lookup returned the wrong path")
	}
	// A handle interned after the bare path reuses its PathID.
	h := tab.Attrs(attrs("10.0.0.1", bgp.PathFromASNs(690)))
	if h.PathID != id3 {
		t.Fatalf("handle PathID %d, want %d", h.PathID, id3)
	}
}

func TestStatsFlush(t *testing.T) {
	h0, m0, p0 := Stats()
	tab := New()
	a := attrs("10.0.0.1", bgp.PathFromASNs(701, 690))
	tab.Attrs(a)
	tab.Attrs(a)
	tab.Attrs(a)
	tab.FlushStats()
	h1, m1, p1 := Stats()
	if m1-m0 != 1 || p1-p0 != 1 {
		t.Fatalf("misses/paths delta = %d/%d, want 1/1", m1-m0, p1-p0)
	}
	if h1-h0 != 2 {
		t.Fatalf("hits delta = %d, want 2", h1-h0)
	}
	tab.FlushStats() // second flush with nothing pending must not move totals
	h2, m2, _ := Stats()
	if h2 != h1 || m2 != m1 {
		t.Fatalf("empty flush moved totals")
	}
}

// TestAttrsAfterPrevMatchesAttrs feeds one seeded stream of per-route
// announcements into two tables, one through AttrsAfter with each route's
// previous handle and one through plain Attrs. The stream mixes first
// sightings (a nil prev), exact repeats, policy shifts (same next hop and
// path, another MED or community set) and forwarding changes; every
// repeat is a fresh copy, so no slice is shared with the interned tuple.
// Both tables must hand out the same handle IDs and count the same hits,
// misses and paths.
func TestAttrsAfterPrevMatchesAttrs(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	paths := []bgp.ASPath{
		bgp.PathFromASNs(701, 690), bgp.PathFromASNs(701, 1239, 690),
		bgp.PathFromASNs(1239, 237), bgp.PathFromASNs(3561, 701, 237),
	}
	hops := []string{"10.0.0.1", "10.0.0.2", "10.0.0.3"}
	fresh := func() bgp.Attrs {
		p := paths[rng.Intn(len(paths))]
		return attrs(hops[rng.Intn(len(hops))], bgp.PathFromASNs(asns(p)...))
	}
	const routes, n = 64, 20000
	last := make([]bgp.Attrs, routes)
	seen := make([]bool, routes)
	type step struct {
		route int
		a     bgp.Attrs
	}
	stream := make([]step, n)
	kinds := make(map[string]int)
	for i := range stream {
		r := rng.Intn(routes)
		a, kind := fresh(), "forwarding change"
		switch k := rng.Intn(10); {
		case !seen[r]:
			kind = "nil prev"
		case k < 6: // an exact repeat, on freshly allocated slices
			a = last[r]
			a.Path = bgp.PathFromASNs(asns(a.Path)...)
			a.Communities = append([]bgp.Community(nil), a.Communities...)
			kind = "repeat"
		case k < 8: // a policy shift: same forwarding tuple
			a = last[r]
			a.Path = bgp.PathFromASNs(asns(a.Path)...)
			if rng.Intn(2) == 0 {
				a.HasMED, a.MED = true, uint32(rng.Intn(3))
			} else {
				a.Communities = []bgp.Community{bgp.Community(rng.Intn(3))}
			}
			kind = "policy shift"
		}
		kinds[kind]++
		last[r], seen[r] = a, true
		stream[i] = step{r, a}
	}
	for _, kind := range []string{"nil prev", "repeat", "policy shift", "forwarding change"} {
		if kinds[kind] == 0 {
			t.Fatalf("stream has no %s: %v", kind, kinds)
		}
	}

	run := func(lookup func(tab *Table, prev *Handle, a *bgp.Attrs) *Handle) (ids []uint32, hits, misses, paths uint64) {
		tab, prev := New(), make([]*Handle, routes)
		h0, m0, p0 := Stats()
		for _, s := range stream {
			a := s.a
			h := lookup(tab, prev[s.route], &a)
			prev[s.route] = h
			ids = append(ids, h.ID)
		}
		tab.FlushStats()
		h1, m1, p1 := Stats()
		return ids, h1 - h0, m1 - m0, p1 - p0
	}
	afterIDs, afterHits, afterMisses, afterPaths := run((*Table).AttrsAfter)
	plainIDs, plainHits, plainMisses, plainPaths := run(func(tab *Table, _ *Handle, a *bgp.Attrs) *Handle { return tab.Attrs(*a) })
	for i := range plainIDs {
		if afterIDs[i] != plainIDs[i] {
			t.Fatalf("record %d (route %d): AttrsAfter handle %d, Attrs handle %d", i, stream[i].route, afterIDs[i], plainIDs[i])
		}
	}
	if afterHits != plainHits || afterMisses != plainMisses || afterPaths != plainPaths {
		t.Fatalf("hits/misses/paths: AttrsAfter %d/%d/%d, Attrs %d/%d/%d",
			afterHits, afterMisses, afterPaths, plainHits, plainMisses, plainPaths)
	}
	if afterHits+afterMisses != n {
		t.Fatalf("hits %d + misses %d != %d lookups", afterHits, afterMisses, n)
	}
}

// asns lists a path's AS numbers in order.
func asns(p bgp.ASPath) []bgp.ASN {
	var out []bgp.ASN
	for _, seg := range p.Segments {
		out = append(out, seg.ASNs...)
	}
	return out
}

func BenchmarkInternHit(b *testing.B) {
	tab := New()
	a := attrs("10.0.0.1", bgp.PathFromASNs(701, 1239, 690), bgp.Community(0x02BD0001))
	tab.Attrs(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Attrs(a)
	}
}

// Path interns a bare AS path and returns its dense per-table ID.
func (t *Table) Path(p bgp.ASPath) bgp.PathID {
	before := t.paths.Len()
	id := t.paths.ID(p)
	if t.paths.Len() != before {
		t.pathMisses++
	}
	return id
}

// PathLen returns the number of distinct AS paths interned.
func (t *Table) PathLen() int { return t.paths.Len() }

// Len returns the number of distinct attribute tuples interned.
func (t *Table) Len() int { return int(t.n) }
