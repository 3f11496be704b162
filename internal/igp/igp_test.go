package igp

import (
	"testing"
	"time"

	"instability/internal/events"
	"instability/internal/netaddr"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

// Unlink removes an adjacency: the link failure the SPF tests inject.
func (n *Network) Unlink(a, b NodeID) {
	na, nb := n.nodes[a], n.nodes[b]
	delete(na.lsa.Links, b)
	delete(nb.lsa.Links, a)
	na.reoriginate()
	nb.reoriginate()
}

// Reachable reports whether the node currently has a path to other.
func (nd *Node) Reachable(other NodeID) bool {
	_, ok := nd.reach[other]
	return ok
}

// square builds a four-node ring: 1-2, 2-3, 3-4, 4-1.
func square(sim *events.Sim) (*Network, []*Node) {
	net := NewNetwork(sim)
	nodes := make([]*Node, 4)
	for i := range nodes {
		nodes[i] = net.AddNode(NodeID(i + 1))
	}
	net.Link(1, 2, 10)
	net.Link(2, 3, 10)
	net.Link(3, 4, 10)
	net.Link(4, 1, 10)
	sim.RunFor(5 * time.Second)
	return net, nodes
}

func TestSPFConvergence(t *testing.T) {
	sim := events.New(1)
	_, nodes := square(sim)
	for _, nd := range nodes {
		for other := NodeID(1); other <= 4; other++ {
			if !nd.Reachable(other) {
				t.Fatalf("node %d cannot reach %d", nd.ID(), other)
			}
		}
	}
	// Shortest path 1->3 goes around either side at cost 20.
	if d := nodes[0].reach[3]; d != 20 {
		t.Fatalf("dist(1,3) = %d", d)
	}
}

func TestExternalPropagation(t *testing.T) {
	sim := events.New(2)
	_, nodes := square(sim)
	nodes[0].AnnounceExternal(pfx("35.0.0.0/8"), External{Metric: 5})
	sim.RunFor(5 * time.Second)
	r, ok := nodes[2].Route(pfx("35.0.0.0/8"))
	if !ok {
		t.Fatal("external did not propagate")
	}
	if r.Origin != 1 || r.Metric != 25 { // 20 path + 5 external
		t.Fatalf("route %+v", r)
	}
	nodes[0].WithdrawExternal(pfx("35.0.0.0/8"))
	sim.RunFor(5 * time.Second)
	if _, ok := nodes[2].Route(pfx("35.0.0.0/8")); ok {
		t.Fatal("withdrawal did not propagate")
	}
}

func TestBestExternalByMetricThenOrigin(t *testing.T) {
	sim := events.New(3)
	_, nodes := square(sim)
	nodes[1].AnnounceExternal(pfx("10.0.0.0/8"), External{Metric: 50})
	nodes[3].AnnounceExternal(pfx("10.0.0.0/8"), External{Metric: 5})
	sim.RunFor(5 * time.Second)
	r, ok := nodes[0].Route(pfx("10.0.0.0/8"))
	if !ok || r.Origin != 4 { // node 4 offers 10+5 vs node 2's 10+50
		t.Fatalf("route %+v", r)
	}
	// Equal metrics tie-break on origin id.
	nodes[1].AnnounceExternal(pfx("10.0.0.0/8"), External{Metric: 5})
	sim.RunFor(5 * time.Second)
	r, _ = nodes[0].Route(pfx("10.0.0.0/8"))
	if r.Origin != 2 {
		t.Fatalf("tie-break: %+v", r)
	}
}

func TestLinkFailureReroutesAndPartitions(t *testing.T) {
	sim := events.New(4)
	net, nodes := square(sim)
	nodes[2].AnnounceExternal(pfx("141.213.0.0/16"), External{Metric: 1})
	sim.RunFor(5 * time.Second)
	if r, ok := nodes[0].Route(pfx("141.213.0.0/16")); !ok || r.Metric != 21 {
		t.Fatalf("initial route %+v ok=%v", r, ok)
	}
	// Cut 2-3: 1 now reaches 3 only via 4 (cost still 20); cut 3-4 too and
	// node 3 partitions away.
	net.Unlink(2, 3)
	sim.RunFor(5 * time.Second)
	if !nodes[0].Reachable(3) {
		t.Fatal("ring should survive one cut")
	}
	net.Unlink(3, 4)
	sim.RunFor(5 * time.Second)
	if nodes[0].Reachable(3) {
		t.Fatal("node 3 should be partitioned")
	}
	if _, ok := nodes[0].Route(pfx("141.213.0.0/16")); ok {
		t.Fatal("external from partitioned node should vanish")
	}
	// Healing restores it.
	net.Link(2, 3, 10)
	sim.RunFor(5 * time.Second)
	if _, ok := nodes[0].Route(pfx("141.213.0.0/16")); !ok {
		t.Fatal("route did not return after healing")
	}
}

func TestOnChangeCallback(t *testing.T) {
	sim := events.New(5)
	_, nodes := square(sim)
	var added, removed int
	nodes[3].OnChange = func(a []Route, r []netaddr.Prefix) {
		added += len(a)
		removed += len(r)
	}
	nodes[0].AnnounceExternal(pfx("35.0.0.0/8"), External{Metric: 5})
	sim.RunFor(5 * time.Second)
	if added != 1 {
		t.Fatalf("added %d", added)
	}
	nodes[0].WithdrawExternal(pfx("35.0.0.0/8"))
	sim.RunFor(5 * time.Second)
	if removed != 1 {
		t.Fatalf("removed %d", removed)
	}
}

func TestRefreshFloodsPeriodically(t *testing.T) {
	sim := events.New(6)
	net, _ := square(sim)
	before := net.Floods
	sim.RunFor(2 * time.Minute)
	// 4 nodes refresh every 30s, each flood delivers to 3 others: at least
	// 4 refreshes * 4 nodes * 3 deliveries.
	if net.Floods-before < 48 {
		t.Fatalf("refresh floods %d", net.Floods-before)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	sim := events.New(7)
	net := NewNetwork(sim)
	net.AddNode(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.AddNode(1)
}

func TestStaleLSAIgnored(t *testing.T) {
	sim := events.New(8)
	_, nodes := square(sim)
	// Install an old-sequence LSA directly; it must not regress the DB.
	stale := &LSA{Origin: 1, Seq: 0, Links: map[NodeID]uint32{}, Externals: map[netaddr.Prefix]External{}}
	nodes[1].install(stale)
	sim.RunFor(time.Second)
	if !nodes[1].Reachable(1) {
		t.Fatal("stale LSA clobbered the database")
	}
}
