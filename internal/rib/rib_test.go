package rib

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

func peer(as bgp.ASN, id uint32) PeerID {
	return PeerID{AS: as, ID: netaddr.Addr(id)}
}

func attrs(nextHop uint32, path ...bgp.ASN) bgp.Attrs {
	return bgp.Attrs{
		Origin:  bgp.OriginIGP,
		Path:    bgp.PathFromASNs(path...),
		NextHop: netaddr.Addr(nextHop),
	}
}

func TestRIBFirstAnnounce(t *testing.T) {
	r := New(690)
	d := r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 237))
	if !d.Changed() || d.HadBest || !d.HasBest {
		t.Fatalf("decision %+v", d)
	}
	a, p, ok := r.Best(pfx("35.0.0.0/8"))
	if !ok || p != peer(701, 1) || a.NextHop != 1 {
		t.Fatalf("best %+v %v %v", a, p, ok)
	}
	if r.Len() != 1 {
		t.Fatalf("len %d", r.Len())
	}
}

func TestRIBPrefersShorterPath(t *testing.T) {
	r := New(690)
	r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 1239, 237))
	d := r.Update(peer(174, 2), pfx("35.0.0.0/8"), attrs(2, 174, 237))
	if !d.Changed() {
		t.Fatal("shorter path should win")
	}
	_, p, _ := r.Best(pfx("35.0.0.0/8"))
	if p != peer(174, 2) {
		t.Fatalf("best peer %v", p)
	}
	// A longer path from a third peer must not change the best.
	d = r.Update(peer(3561, 3), pfx("35.0.0.0/8"), attrs(3, 3561, 701, 1239, 237))
	if d.Changed() {
		t.Fatal("longer path must not displace best")
	}
	if r.Candidates(pfx("35.0.0.0/8")) != 3 {
		t.Fatalf("candidates %d", r.Candidates(pfx("35.0.0.0/8")))
	}
}

func TestRIBLocalPrefDominates(t *testing.T) {
	r := New(690)
	a1 := attrs(1, 701, 1239, 9, 237) // long path, high localpref
	a1.HasLocalPref, a1.LocalPref = true, 200
	r.Update(peer(701, 1), pfx("35.0.0.0/8"), a1)
	d := r.Update(peer(174, 2), pfx("35.0.0.0/8"), attrs(2, 174, 237))
	if d.Changed() {
		t.Fatal("higher localpref should beat shorter path")
	}
}

func TestRIBOriginAndMEDAndTieBreak(t *testing.T) {
	r := New(690)
	aIGP := attrs(1, 701, 237)
	aEGP := attrs(2, 174, 237)
	aEGP.Origin = bgp.OriginEGP
	r.Update(peer(174, 2), pfx("35.0.0.0/8"), aEGP)
	d := r.Update(peer(701, 1), pfx("35.0.0.0/8"), aIGP)
	if !d.Changed() {
		t.Fatal("lower origin should win at equal path length")
	}

	// MED: lower wins at equal localpref/length/origin.
	r2 := New(690)
	hi := attrs(1, 701, 237)
	hi.HasMED, hi.MED = true, 50
	lo := attrs(2, 1239, 237)
	lo.HasMED, lo.MED = true, 10
	r2.Update(peer(701, 1), pfx("10.0.0.0/8"), hi)
	d = r2.Update(peer(1239, 2), pfx("10.0.0.0/8"), lo)
	if !d.Changed() {
		t.Fatal("lower MED should win")
	}

	// Final tie-break: lower peer BGP ID.
	r3 := New(690)
	r3.Update(peer(701, 9), pfx("10.0.0.0/8"), attrs(1, 701, 237))
	d = r3.Update(peer(1239, 2), pfx("10.0.0.0/8"), attrs(2, 1239, 237))
	if !d.Changed() {
		t.Fatal("lower router ID should win the final tie-break")
	}
}

func TestRIBWithdraw(t *testing.T) {
	r := New(690)
	r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 237))
	r.Update(peer(174, 2), pfx("35.0.0.0/8"), attrs(2, 174, 1239, 237))
	// Withdraw the best; the alternate takes over (the paper's WADiff at the
	// receiving router).
	d := r.Withdraw(peer(701, 1), pfx("35.0.0.0/8"))
	if !d.Changed() || !d.HasBest || d.NewPeer != peer(174, 2) {
		t.Fatalf("decision %+v", d)
	}
	// Withdraw the last candidate; the prefix disappears.
	d = r.Withdraw(peer(174, 2), pfx("35.0.0.0/8"))
	if !d.Changed() || d.HasBest {
		t.Fatalf("decision %+v", d)
	}
	if r.Len() != 0 {
		t.Fatalf("len %d", r.Len())
	}
}

func TestRIBSpuriousWithdrawIsNoChange(t *testing.T) {
	r := New(690)
	r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 237))
	// A peer that never announced the prefix withdraws it — the WWDup
	// pathology. The RIB must not change.
	d := r.Withdraw(peer(9999, 7), pfx("35.0.0.0/8"))
	if d.Changed() {
		t.Fatal("spurious withdraw changed the RIB")
	}
	d = r.Withdraw(peer(9999, 7), pfx("203.0.113.0/24"))
	if d.Changed() {
		t.Fatal("withdraw of unknown prefix changed the RIB")
	}
}

func TestRIBLoopRejected(t *testing.T) {
	r := New(690)
	d := r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 690, 237))
	if d.Changed() {
		t.Fatal("looped path must be rejected")
	}
	if r.Len() != 0 {
		t.Fatal("looped path was installed")
	}
	// And a loop must not displace an existing best.
	r.Update(peer(174, 2), pfx("35.0.0.0/8"), attrs(2, 174, 237))
	d = r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 690, 237))
	if d.Changed() {
		t.Fatal("looped path displaced best")
	}
}

func TestRIBImplicitReplace(t *testing.T) {
	r := New(690)
	r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 237))
	// Same peer re-announces with a different path: implicit withdrawal.
	d := r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 1239, 237))
	if !d.Changed() {
		t.Fatal("path change should be visible")
	}
	if r.Candidates(pfx("35.0.0.0/8")) != 1 {
		t.Fatal("replace must not grow candidates")
	}
	// Exact duplicate: no change (receiving a duplicate is the AADup case).
	d = r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 1239, 237))
	if d.Changed() || d.PolicyChanged() {
		t.Fatal("duplicate should be a no-op")
	}
}

func TestDecisionPolicyChanged(t *testing.T) {
	r := New(690)
	a := attrs(1, 701, 237)
	r.Update(peer(701, 1), pfx("35.0.0.0/8"), a)
	a2 := attrs(1, 701, 237)
	a2.Communities = []bgp.Community{42}
	d := r.Update(peer(701, 1), pfx("35.0.0.0/8"), a2)
	if d.Changed() {
		t.Fatal("community change is not forwarding change")
	}
	if !d.PolicyChanged() {
		t.Fatal("community change is a policy change")
	}
}

func TestWithdrawPeer(t *testing.T) {
	r := New(690)
	for i := uint32(0); i < 10; i++ {
		p := netaddr.MustPrefix(netaddr.Addr(0x0a000000|i<<16), 16)
		r.Update(peer(701, 1), p, attrs(1, 701, bgp.ASN(1000+i)))
		if i%2 == 0 {
			r.Update(peer(174, 2), p, attrs(2, 174, 9, bgp.ASN(1000+i)))
		}
	}
	ds := r.WithdrawPeer(peer(701, 1))
	if len(ds) != 10 {
		t.Fatalf("%d decisions", len(ds))
	}
	lost, switched := 0, 0
	for _, d := range ds {
		if d.HasBest {
			switched++
		} else {
			lost++
		}
	}
	if switched != 5 || lost != 5 {
		t.Fatalf("switched %d lost %d", switched, lost)
	}
	if r.Len() != 5 {
		t.Fatalf("len %d", r.Len())
	}
}

func TestTakeCensusMultihoming(t *testing.T) {
	r := New(690)
	// Prefix A: single-homed behind 701.
	r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 237))
	// Prefix B: multihomed via 701 and 174, same origin.
	r.Update(peer(701, 1), pfx("198.108.0.0/16"), attrs(1, 701, 237))
	r.Update(peer(174, 2), pfx("198.108.0.0/16"), attrs(2, 174, 237))
	// Prefix C: two candidates through the same first AS: not multihomed.
	r.Update(peer(701, 1), pfx("192.168.0.0/16"), attrs(1, 701, 100))
	c := r.TakeCensus()
	if c.Prefixes != 3 {
		t.Fatalf("prefixes %d", c.Prefixes)
	}
	if c.Multihomed != 1 {
		t.Fatalf("multihomed %d", c.Multihomed)
	}
	if got := c.MultihomedShare(); got < 0.33 || got > 0.34 {
		t.Fatalf("share %v", got)
	}
	if c.OriginASes != 2 { // 237 and 100
		t.Fatalf("origins %d", c.OriginASes)
	}
	if c.UniquePaths != 3 {
		t.Fatalf("paths %d", c.UniquePaths)
	}
	if (Census{}).MultihomedShare() != 0 {
		t.Fatal("empty census share should be 0")
	}
}

func TestWalkBest(t *testing.T) {
	r := New(690)
	r.Update(peer(701, 1), pfx("10.0.0.0/8"), attrs(1, 701, 237))
	r.Update(peer(701, 1), pfx("35.0.0.0/8"), attrs(1, 701, 42))
	n := 0
	r.WalkBest(func(netaddr.Prefix, bgp.Attrs, PeerID) bool { n++; return true })
	if n != 2 {
		t.Fatalf("visited %d", n)
	}
}

// bestPrefixes returns the prefixes WalkBest visits, in visit order.
func bestPrefixes(r *RIB) []netaddr.Prefix {
	var out []netaddr.Prefix
	r.WalkBest(func(p netaddr.Prefix, _ bgp.Attrs, _ PeerID) bool {
		out = append(out, p)
		return true
	})
	return out
}

// decisionPrefixes returns the prefixes of ds, in order.
func decisionPrefixes(ds []Decision) []netaddr.Prefix {
	out := make([]netaddr.Prefix, len(ds))
	for i, d := range ds {
		out[i] = d.Prefix
	}
	return out
}

// TestRIBWalkOrder announces a nested prefix set in shuffled order, with a
// tombstone among them, and checks that WalkBest and WithdrawPeer visit it
// in Compare order (address, then mask length) and that WalkBest stops
// early when asked.
func TestRIBWalkOrder(t *testing.T) {
	want := []netaddr.Prefix{
		pfx("0.0.0.0/0"),
		pfx("10.0.0.0/8"),
		pfx("10.0.0.0/16"),
		pfx("10.1.0.0/16"),
		pfx("192.168.0.0/16"),
		pfx("192.168.1.0/24"),
	}
	r := New(690)
	rng := rand.New(rand.NewSource(5))
	for _, i := range rng.Perm(len(want)) {
		r.Update(peer(701, 1), want[i], attrs(1, 701, bgp.ASN(1000+i)))
	}
	gone := pfx("10.0.0.0/12")
	r.Update(peer(701, 1), gone, attrs(1, 701, 999))
	r.Withdraw(peer(701, 1), gone)
	if got := bestPrefixes(r); !slices.Equal(got, want) {
		t.Fatalf("WalkBest order %v, want %v", got, want)
	}
	n := 0
	r.WalkBest(func(netaddr.Prefix, bgp.Attrs, PeerID) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("WalkBest visited %d after early stop", n)
	}
	if got := decisionPrefixes(r.WithdrawPeer(peer(701, 1))); !slices.Equal(got, want) {
		t.Fatalf("WithdrawPeer order %v, want %v", got, want)
	}
}

// TestRIBWalkSortedMatchesReference seeds a table with random prefixes
// from two peers, withdrawing some, and checks WalkBest and WithdrawPeer
// against a reference map sorted by Compare.
func TestRIBWalkSortedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	r := New(690)
	a, b := peer(701, 1), peer(174, 2)
	best := map[netaddr.Prefix]bool{}  // prefixes with a route
	fromA := map[netaddr.Prefix]bool{} // prefixes holding a's route
	var seen []netaddr.Prefix
	for i := 0; i < 500; i++ {
		p := netaddr.MustPrefix(netaddr.Addr(rng.Uint32()), 8+rng.Intn(25))
		seen = append(seen, p)
		switch rng.Intn(4) {
		case 0:
			r.Update(b, p, attrs(2, 174, 9, 1000))
			best[p] = true
		case 1: // withdraw a's route for a prefix seen before, if any
			p = seen[rng.Intn(len(seen))]
			r.Withdraw(a, p)
			delete(fromA, p)
			best[p] = r.Candidates(p) > 0
		default:
			r.Update(a, p, attrs(1, 701, 1000))
			best[p], fromA[p] = true, true
		}
	}
	sorted := func(set map[netaddr.Prefix]bool) []netaddr.Prefix {
		var out []netaddr.Prefix
		for p, ok := range set {
			if ok {
				out = append(out, p)
			}
		}
		slices.SortFunc(out, netaddr.Prefix.Compare)
		return out
	}
	if got, want := bestPrefixes(r), sorted(best); !slices.Equal(got, want) {
		t.Fatalf("WalkBest visited %d prefixes, reference %d, or out of order:\n%v\n%v", len(got), len(want), got, want)
	}
	// a's routes are all preferred (shorter path), so withdrawing a changes
	// the best route of every prefix holding one.
	if got, want := decisionPrefixes(r.WithdrawPeer(a)), sorted(fromA); !slices.Equal(got, want) {
		t.Fatalf("WithdrawPeer decided %d prefixes, reference %d, or out of order", len(got), len(want))
	}
}

func TestAggregateSiblings(t *testing.T) {
	got := Aggregate([]netaddr.Prefix{
		pfx("10.0.0.0/24"), pfx("10.0.1.0/24"), pfx("10.0.2.0/24"), pfx("10.0.3.0/24"),
	})
	if len(got) != 1 || got[0] != pfx("10.0.0.0/22") {
		t.Fatalf("got %v", got)
	}
}

func TestAggregateDropsNested(t *testing.T) {
	got := Aggregate([]netaddr.Prefix{pfx("10.0.0.0/8"), pfx("10.1.0.0/16"), pfx("10.0.0.0/8")})
	if len(got) != 1 || got[0] != pfx("10.0.0.0/8") {
		t.Fatalf("got %v", got)
	}
}

func TestAggregateNonAdjacent(t *testing.T) {
	in := []netaddr.Prefix{pfx("10.0.0.0/24"), pfx("10.0.2.0/24")}
	got := Aggregate(in)
	if len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	// Not siblings: 10.0.1.0/24 and 10.0.2.0/24 differ at bit 22 vs 23.
	got = Aggregate([]netaddr.Prefix{pfx("10.0.1.0/24"), pfx("10.0.2.0/24")})
	if len(got) != 2 {
		t.Fatalf("false merge: %v", got)
	}
}

func TestAggregateEmpty(t *testing.T) {
	if Aggregate(nil) != nil {
		t.Fatal("nil input should aggregate to nil")
	}
}

func TestAggregateCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(30) + 1
		in := make([]netaddr.Prefix, n)
		for i := range in {
			// Confine to 10/8 to force overlap and merging.
			a := 0x0a000000 | rng.Uint32()&0x00ffffff
			in[i] = netaddr.MustPrefix(netaddr.Addr(a), 9+rng.Intn(16))
		}
		out := Aggregate(in)
		if !coverageEqual(in, out) {
			t.Fatalf("coverage changed: in=%v out=%v", in, out)
		}
		if len(out) > len(in) {
			t.Fatalf("aggregation grew the set")
		}
		// Idempotence.
		again := Aggregate(out)
		if len(again) != len(out) {
			t.Fatalf("not idempotent: %v vs %v", out, again)
		}
		// Output prefixes must be disjoint.
		for i := range out {
			for j := i + 1; j < len(out); j++ {
				if out[i].ContainsPrefix(out[j]) || out[j].ContainsPrefix(out[i]) {
					t.Fatalf("output overlaps: %v %v", out[i], out[j])
				}
			}
		}
	}
}

func TestCoverageEqual(t *testing.T) {
	a := []netaddr.Prefix{pfx("10.0.0.0/23")}
	b := []netaddr.Prefix{pfx("10.0.0.0/24"), pfx("10.0.1.0/24")}
	if !coverageEqual(a, b) {
		t.Fatal("equal coverage not detected")
	}
	c := []netaddr.Prefix{pfx("10.0.0.0/24")}
	if coverageEqual(a, c) {
		t.Fatal("unequal coverage accepted")
	}
}

func TestDecisionChangedQuick(t *testing.T) {
	// Changed() must be false whenever before and after are identical.
	f := func(nh uint32, has bool) bool {
		a := attrs(nh, 701)
		d := Decision{HadBest: has, HasBest: has, Old: a, New: a, OldPeer: peer(1, 1), NewPeer: peer(1, 1)}
		return !d.Changed() && !d.PolicyChanged()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkRIBUpdateWithdraw(b *testing.B) {
	r := New(690)
	a := attrs(1, 701, 237)
	p := pfx("35.0.0.0/8")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Update(peer(701, 1), p, a)
		r.Withdraw(peer(701, 1), p)
	}
}

// coverageEqual reports whether two prefix sets cover exactly the same
// address space. Used to verify aggregation soundness.
func coverageEqual(a, b []netaddr.Prefix) bool {
	return coverageWithin(a, b) && coverageWithin(b, a)
}

func coverageWithin(a, b []netaddr.Prefix) bool {
	for _, p := range a {
		if !covered(p, b) {
			return false
		}
	}
	return true
}

// covered reports whether every address in p is inside some prefix of set.
func covered(p netaddr.Prefix, set []netaddr.Prefix) bool {
	for _, q := range set {
		if q.ContainsPrefix(p) {
			return true
		}
	}
	if p.Bits() >= 32 {
		return false
	}
	// Split and recurse: p may be covered by multiple smaller prefixes.
	for _, q := range set {
		if p.ContainsPrefix(q) {
			lo, hi := p.Halves()
			return covered(lo, set) && covered(hi, set)
		}
	}
	return false
}
