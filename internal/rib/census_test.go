package rib

import (
	"testing"

	"instability/internal/bgp"
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
	var tally CensusTally
	for _, routes := range [][]route{
		{{p(701, 237), false}},                           // withdrawn only: not counted
		{{p(701, 237), true}, {p(174, 145), false}},      // one live route
		{{p(701, 237), true}, {p(701, 145), true}},       // one neighbor, two origins: multihomed
		{{p(701, 237), true}, {p(174, 237), true}},       // two neighbors, one origin: multihomed
		{{p(701, 237), true}, {p(701, 1239, 237), true}}, // one neighbor, one origin
		{{bgp.ASPath{}, true}},                           // empty path: counted, names no AS
	} {
		AddPrefix(&tally, routes, read)
	}
	if got, want := tally.Census(), (Census{Prefixes: 5, Multihomed: 2, OriginASes: 2, UniquePaths: 5}); got != want {
		t.Fatalf("census %+v, want %+v", got, want)
	}
}
