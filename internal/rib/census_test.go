package rib

import (
	"math/rand"
	"testing"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

// TestAddPrefix pins the census definition every route table shares: dead
// routes are skipped, a prefix with no live route is not counted, and two
// distinct neighbor ASes or two distinct origin ASes make a prefix
// multihomed.
func TestAddPrefix(t *testing.T) {
	type route struct {
		path bgp.ASPath
		live bool
	}
	tab := bgp.NewPathTable()
	read := func(r *route) (bgp.ASPath, bgp.PathID, bool) { return r.path, tab.ID(r.path), r.live }
	p := bgp.PathFromASNs
	pc := PartialCensus{PathTab: tab}
	for _, routes := range [][]route{
		{{p(701, 237), false}},                           // withdrawn only: not counted
		{{p(701, 237), true}, {p(174, 145), false}},      // one live route
		{{p(701, 237), true}, {p(701, 145), true}},       // one neighbor, two origins: multihomed
		{{p(701, 237), true}, {p(174, 237), true}},       // two neighbors, one origin: multihomed
		{{p(701, 237), true}, {p(701, 1239, 237), true}}, // one neighbor, one origin
		{{bgp.ASPath{}, true}},                           // empty path: counted, names no AS
	} {
		AddPrefix(&pc, routes, read)
	}
	if got, want := MergeCensuses(pc), (Census{Prefixes: 5, Multihomed: 2, OriginASes: 2, UniquePaths: 5}); got != want {
		t.Fatalf("census %+v, want %+v", got, want)
	}
}

// TestPartialCensusMerge checks the prefix-partitioned census contract used
// by the parallel pipeline: splitting one logical table's prefixes across
// several RIBs and merging their partial censuses must equal the undivided
// table's census. Origin-AS and unique-path counts are global distinct
// counts, so they specifically need the set-union merge, not a sum.
func TestPartialCensusMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	peers := []PeerID{
		{AS: 690, ID: 1}, {AS: 701, ID: 2}, {AS: 1239, ID: 3},
	}
	paths := []bgp.ASPath{
		bgp.PathFromASNs(690, 237),
		bgp.PathFromASNs(701, 237), // same origin via another peer
		bgp.PathFromASNs(701, 145),
		bgp.PathFromASNs(1239, 145),
	}

	whole := New(0)
	const parts = 4
	shards := make([]*RIB, parts)
	for i := range shards {
		shards[i] = New(0)
	}
	for i := 0; i < 300; i++ {
		pfx := netaddr.MustPrefix(netaddr.Addr(0xc0000000+uint32(i)<<8), 24)
		// Each prefix gets 1-3 candidate routes; all of them must land in
		// the same partition for the multihoming count to be right.
		n := 1 + rng.Intn(3)
		shard := int(uint32(i*2654435761) % parts)
		for j := 0; j < n; j++ {
			peer := peers[(i+j)%len(peers)]
			attrs := bgp.Attrs{Origin: bgp.OriginIGP, Path: paths[rng.Intn(len(paths))], NextHop: 1}
			whole.Update(peer, pfx, attrs)
			shards[shard].Update(peer, pfx, attrs)
		}
	}

	want := whole.TakeCensus()
	pcs := make([]PartialCensus, parts)
	for i, r := range shards {
		pcs[i] = r.TakePartialCensus()
	}
	if got := MergeCensuses(pcs...); got != want {
		t.Fatalf("merged census %+v, undivided table %+v", got, want)
	}
	if want.OriginASes == 0 || want.UniquePaths == 0 || want.Multihomed == 0 {
		t.Fatalf("degenerate reference census %+v", want)
	}
	// TakeCensus itself routes through the partial form; a census of one
	// partition alone must also be self-consistent.
	if one := MergeCensuses(shards[0].TakePartialCensus()); one != shards[0].TakeCensus() {
		t.Fatalf("single-partition merge %+v != TakeCensus %+v", one, shards[0].TakeCensus())
	}
}
