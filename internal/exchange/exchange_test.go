package exchange

import (
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/events"
	"instability/internal/netaddr"
	"instability/internal/router"
	"instability/internal/session"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

func client(sim *events.Sim, as bgp.ASN, id uint32, stateless bool) *router.Router {
	return router.New(sim, router.Config{
		AS: as, ID: netaddr.Addr(id),
		Session: session.Config{MRAI: time.Second, Stateless: stateless, CompareLastSent: !stateless},
	})
}

func TestCollectorLogsAnnouncesAndWithdraws(t *testing.T) {
	sim := events.New(1)
	var recs []collector.Record
	pt := New(sim, Config{Name: "Mae-East", Sink: func(r collector.Record) { recs = append(recs, r) }})
	a := client(sim, 690, 1, false)
	pt.AttachClient(a, 5*time.Millisecond)
	sim.RunFor(10 * time.Second)
	if !pt.Established() {
		t.Fatal("client session did not establish")
	}
	a.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	sim.RunFor(5 * time.Second)
	a.WithdrawOrigin(pfx("35.0.0.0/8"))
	sim.RunFor(5 * time.Second)

	var up, ann, wd int
	for _, r := range recs {
		switch r.Type {
		case collector.SessionUp:
			up++
		case collector.Announce:
			ann++
			if r.PeerAS != 690 || r.Prefix != pfx("35.0.0.0/8") {
				t.Fatalf("bad announce record %+v", r)
			}
			if got, _ := r.Attrs.Path.First(); got != 690 {
				t.Fatalf("announce path %v", r.Attrs.Path)
			}
		case collector.Withdraw:
			wd++
		}
	}
	if up != 1 || ann != 1 || wd != 1 {
		t.Fatalf("records up=%d ann=%d wd=%d", up, ann, wd)
	}
	if pt.Records != len(recs) {
		t.Fatalf("record count mismatch")
	}
}

func TestRouteServerSeesMultipleClients(t *testing.T) {
	sim := events.New(2)
	var recs []collector.Record
	pt := New(sim, Config{Name: "AADS", Sink: func(r collector.Record) { recs = append(recs, r) }})
	a := client(sim, 690, 1, false)
	b := client(sim, 701, 2, false)
	pt.AttachClient(a, 5*time.Millisecond)
	pt.AttachClient(b, 5*time.Millisecond)
	sim.RunFor(10 * time.Second)
	a.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	b.Originate(pfx("141.213.0.0/16"), bgp.OriginIGP)
	sim.RunFor(5 * time.Second)
	rs := pt.RouteServer().RIB()
	if rs.Len() != 2 {
		t.Fatalf("route server table has %d prefixes", rs.Len())
	}
	if pt.Link(690) == nil || pt.Link(9999) != nil {
		t.Fatal("link lookup wrong")
	}
}

func TestStatelessClientFloodsWWDups(t *testing.T) {
	// The Table-1 scenario in miniature: a stateless client's spurious
	// withdrawals reach the route server and classify as WWDup.
	sim := events.New(3)
	cls := core.NewClassifier()
	var counts [core.NumClasses]int
	pt := New(sim, Config{Name: "AADS", Sink: func(r collector.Record) {
		counts[cls.Classify(r).Class]++
	}})
	// ISP-X ("good") is the only AS announcing the prefix; ISP-Y ("bad")
	// runs stateless routers and merely learns the route through the route
	// server. When the route is withdrawn, ISP-Y's stateless implementation
	// relays withdrawals to every peer — including back to the route server,
	// which never heard an announcement from ISP-Y at all.
	bad := client(sim, 701, 2, true)
	good := client(sim, 690, 1, false)
	pt.AttachClient(bad, 5*time.Millisecond)
	pt.AttachClient(good, 5*time.Millisecond)
	sim.RunFor(10 * time.Second)
	// Half-cycles must exceed the route server's own 30 s advertisement
	// interval so each state change actually reaches ISP-Y.
	for i := 0; i < 6; i++ {
		good.Originate(pfx("192.42.113.0/24"), bgp.OriginIGP)
		sim.RunFor(time.Minute)
		good.WithdrawOrigin(pfx("192.42.113.0/24"))
		sim.RunFor(time.Minute)
	}
	if counts[core.WWDup] < 3 {
		t.Fatalf("expected WWDup flood from the stateless client, got %v", counts)
	}
}

func TestSessionLossLogged(t *testing.T) {
	sim := events.New(4)
	var downs int
	pt := New(sim, Config{Name: "PacBell", Sink: func(r collector.Record) {
		if r.Type == collector.SessionDown {
			downs++
		}
	}})
	a := client(sim, 690, 1, false)
	l := pt.AttachClient(a, 5*time.Millisecond)
	sim.RunFor(10 * time.Second)
	l.Fail()
	sim.RunFor(time.Second)
	if downs != 1 {
		t.Fatalf("downs %d", downs)
	}
}

func TestPeeringSessionComplexity(t *testing.T) {
	if BilateralSessions(60) != 1770 {
		t.Fatalf("bilateral(60) = %d", BilateralSessions(60))
	}
	if RouteServerSessions(60) != 60 {
		t.Fatal("route server sessions wrong")
	}
	// The paper's O(N^2) vs O(N) claim.
	for n := 2; n < 100; n++ {
		if BilateralSessions(n) <= RouteServerSessions(n) && n > 3 {
			t.Fatalf("bilateral should exceed RS sessions at n=%d", n)
		}
	}
}

func TestCollectorOnlyModeDoesNotReadvertise(t *testing.T) {
	sim := events.New(5)
	pt := New(sim, Config{Name: "Sprint", CollectorOnly: true, Sink: func(collector.Record) {}})
	a := client(sim, 690, 1, false)
	b := client(sim, 701, 2, false)
	pt.AttachClient(a, 5*time.Millisecond)
	pt.AttachClient(b, 5*time.Millisecond)
	sim.RunFor(10 * time.Second)
	a.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	sim.RunFor(2 * time.Minute)
	// The route server logs and holds the route but never relays it.
	if pt.RouteServer().RIB().Len() != 1 {
		t.Fatal("route server should hold the route")
	}
	if _, _, ok := b.RIB().Best(pfx("35.0.0.0/8")); ok {
		t.Fatal("collector-only server relayed a route")
	}
}

func TestDefaultModeReadvertisesTransparently(t *testing.T) {
	sim := events.New(6)
	pt := New(sim, Config{Name: "Sprint", Sink: func(collector.Record) {}})
	a := client(sim, 690, 1, false)
	b := client(sim, 701, 2, false)
	pt.AttachClient(a, 5*time.Millisecond)
	pt.AttachClient(b, 5*time.Millisecond)
	sim.RunFor(10 * time.Second)
	a.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	sim.RunFor(2 * time.Minute)
	attrs, _, ok := b.RIB().Best(pfx("35.0.0.0/8"))
	if !ok {
		t.Fatal("route not relayed")
	}
	// Transparent: the route server's AS does not appear in the path.
	if attrs.Path.Contains(RouteServerAS) {
		t.Fatalf("route server prepended itself: %v", attrs.Path)
	}
}

// Link returns the link for a client AS, or nil.
func (p *Point) Link(as bgp.ASN) *router.Link { return p.links[as] }

// Established reports whether all client sessions are up.
func (p *Point) Established() bool {
	for _, l := range p.links {
		if !l.Established() {
			return false
		}
	}
	return true
}
