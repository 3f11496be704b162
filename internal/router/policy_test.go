package router

import (
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/events"
	"instability/internal/netaddr"
	"instability/internal/policy"
	"instability/internal/rib"
	"instability/internal/session"
)

// SetImportPolicy installs the import policy for a neighbor: every route
// learned from the peer passes through it before entering the RIB.
func (r *Router) SetImportPolicy(peerAS bgp.ASN, peerID netaddr.Addr, p *policy.Policy) {
	if n := r.peers[rib.PeerID{AS: peerAS, ID: peerID}]; n != nil {
		n.imp = p
	}
}

// longerThan rejects every announcement more specific than maxLen: the
// draconian prefix-length filter of the paper's §3.
func longerThan(maxLen int) *policy.Policy {
	return &policy.Policy{Rules: []policy.Rule{{
		Match:  policy.Match{MinLen: maxLen + 1},
		Action: policy.Action{Reject: true},
	}}}
}

func TestImportPolicyFiltersRoutes(t *testing.T) {
	sim := events.New(31)
	recv := newRouter(sim, 200, 2)
	feeder := newRouter(sim, 100, 1)
	l := Connect(sim, feeder, recv, time.Millisecond)
	// Reject anything longer than /24 on import (the paper's draconian
	// prefix-length filter).
	recv.SetImportPolicy(100, 1, longerThan(24))
	sim.RunFor(5 * time.Second)
	if !l.Established() {
		t.Fatal("no establishment")
	}
	feeder.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	feeder.Originate(pfx("192.42.113.128/25"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)
	if _, _, ok := recv.RIB().Best(pfx("35.0.0.0/8")); !ok {
		t.Fatal("/8 should be accepted")
	}
	if _, _, ok := recv.RIB().Best(pfx("192.42.113.128/25")); ok {
		t.Fatal("/25 should be filtered on import")
	}
}

func TestImportPolicySetsLocalPref(t *testing.T) {
	sim := events.New(32)
	recv := newRouter(sim, 200, 2)
	// Two upstreams; the longer path is preferred via import localpref.
	cheap := newRouter(sim, 100, 1)
	pricey := newRouter(sim, 110, 11)
	origin := newRouter(sim, 300, 3)
	Connect(sim, origin, cheap, time.Millisecond)
	Connect(sim, origin, pricey, time.Millisecond)
	Connect(sim, cheap, recv, time.Millisecond)
	Connect(sim, pricey, recv, time.Millisecond)
	lp := uint32(200)
	recv.SetImportPolicy(100, 1, &policy.Policy{Rules: []policy.Rule{{
		Match:  policy.Match{PathContains: 300},
		Action: policy.Action{SetLocalPref: &lp, AddCommunity: bgp.Community(200<<16 | 100)},
	}}})
	sim.RunFor(10 * time.Second)
	origin.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	sim.RunFor(30 * time.Second)
	attrs, peer, ok := recv.RIB().Best(pfx("35.0.0.0/8"))
	if !ok {
		t.Fatal("route missing")
	}
	if peer.AS != 100 {
		t.Fatalf("best via %v, want the customer-preferred path", peer)
	}
	if !attrs.HasLocalPref || attrs.LocalPref != 200 {
		t.Fatalf("localpref not applied: %+v", attrs)
	}
}

func TestExportPolicyWithholdsRoutes(t *testing.T) {
	sim := events.New(33)
	mid := newRouter(sim, 200, 2)
	feeder := newRouter(sim, 100, 1)
	sink := newRouter(sim, 300, 3)
	Connect(sim, feeder, mid, time.Millisecond)
	ms := Connect(sim, mid, sink, time.Millisecond)
	// mid refuses to export anything longer than /16 to the sink.
	mid.SetExportPolicy(300, 3, longerThan(16))
	sim.RunFor(5 * time.Second)
	feeder.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	feeder.Originate(pfx("192.42.113.0/24"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)
	// mid holds both; sink only the short one.
	if mid.RIB().Len() != 2 {
		t.Fatalf("mid table %d", mid.RIB().Len())
	}
	if _, _, ok := sink.RIB().Best(pfx("35.0.0.0/8")); !ok {
		t.Fatal("sink missing /8")
	}
	if _, _, ok := sink.RIB().Best(pfx("192.42.113.0/24")); ok {
		t.Fatal("sink received export-filtered /24")
	}
	_ = ms
}

func TestExportPolicyAppliesOnTableDump(t *testing.T) {
	// The export filter must also govern the initial dump to a session that
	// establishes after the routes are learned.
	sim := events.New(34)
	mid := newRouter(sim, 200, 2)
	feeder := newRouter(sim, 100, 1)
	Connect(sim, feeder, mid, time.Millisecond)
	sim.RunFor(5 * time.Second)
	feeder.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	feeder.Originate(pfx("192.42.113.0/24"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)

	sink := newRouter(sim, 300, 3)
	Connect(sim, mid, sink, time.Millisecond)
	mid.SetExportPolicy(300, 3, longerThan(16))
	sim.RunFor(10 * time.Second)
	if _, _, ok := sink.RIB().Best(pfx("35.0.0.0/8")); !ok {
		t.Fatal("sink missing /8 from dump")
	}
	if _, _, ok := sink.RIB().Best(pfx("192.42.113.0/24")); ok {
		t.Fatal("dump leaked the filtered /24")
	}
}

func TestPolicyEvaluationCostCounted(t *testing.T) {
	sim := events.New(35)
	recv := newRouter(sim, 200, 2)
	feeder := newRouter(sim, 100, 1)
	Connect(sim, feeder, recv, time.Millisecond)
	pol := longerThan(24)
	recv.SetImportPolicy(100, 1, pol)
	sim.RunFor(5 * time.Second)
	for i := 0; i < 10; i++ {
		feeder.Originate(netaddr.MustPrefix(netaddr.Addr(0x23000000+uint32(i)<<16), 16), bgp.OriginIGP)
	}
	sim.RunFor(10 * time.Second)
	if pol.Evaluations < 10 {
		t.Fatalf("policy evaluated %d times", pol.Evaluations)
	}
}

func TestSetPolicyUnknownPeerIsNoop(t *testing.T) {
	sim := events.New(36)
	r := newRouter(sim, 200, 2)
	r.SetImportPolicy(999, 9, longerThan(24)) // must not panic
	r.SetExportPolicy(999, 9, longerThan(24))
	_ = session.Config{}
}
