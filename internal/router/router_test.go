package router

import (
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/damping"
	"instability/internal/events"
	"instability/internal/netaddr"
	"instability/internal/session"
)

func pfx(s string) netaddr.Prefix { return netaddr.MustParsePrefix(s) }

func newRouter(sim *events.Sim, as bgp.ASN, id uint32) *Router {
	return New(sim, Config{
		AS:      as,
		ID:      netaddr.Addr(id),
		Session: session.Config{MRAI: time.Second, CompareLastSent: true},
	})
}

// triangle builds three routers in a line A—B—C and settles the sessions.
func triangle(t *testing.T, sim *events.Sim) (a, b, c *Router, ab, bc *Link) {
	t.Helper()
	a = newRouter(sim, 100, 1)
	b = newRouter(sim, 200, 2)
	c = newRouter(sim, 300, 3)
	ab = Connect(sim, a, b, 5*time.Millisecond)
	bc = Connect(sim, b, c, 5*time.Millisecond)
	sim.RunFor(5 * time.Second)
	if !ab.Established() || !bc.Established() {
		t.Fatal("sessions did not establish")
	}
	return a, b, c, ab, bc
}

func TestOriginationPropagates(t *testing.T) {
	sim := events.New(1)
	a, b, c, _, _ := triangle(t, sim)
	a.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)

	// B learned it directly with path [100].
	attrs, _, ok := b.RIB().Best(pfx("35.0.0.0/8"))
	if !ok {
		t.Fatal("B missing route")
	}
	if attrs.Path.Key() != "100" {
		t.Fatalf("B path %v", attrs.Path)
	}
	// C learned it via B with path [200 100].
	attrs, _, ok = c.RIB().Best(pfx("35.0.0.0/8"))
	if !ok {
		t.Fatal("C missing route")
	}
	if attrs.Path.Key() != "200 100" {
		t.Fatalf("C path %v", attrs.Path)
	}
	if attrs.NextHop != b.ID() {
		t.Fatalf("C nexthop %v, want %v (next-hop-self)", attrs.NextHop, b.ID())
	}
	_ = a
}

func TestWithdrawPropagates(t *testing.T) {
	sim := events.New(2)
	a, _, c, _, _ := triangle(t, sim)
	a.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)
	a.WithdrawOrigin(pfx("35.0.0.0/8"))
	sim.RunFor(10 * time.Second)
	if _, _, ok := c.RIB().Best(pfx("35.0.0.0/8")); ok {
		t.Fatal("C still holds withdrawn route")
	}
}

func TestLoopPreventionByASPath(t *testing.T) {
	sim := events.New(3)
	// Ring: A—B, B—C, C—A. A's route must not loop back into A.
	a := newRouter(sim, 100, 1)
	b := newRouter(sim, 200, 2)
	c := newRouter(sim, 300, 3)
	links := []*Link{
		Connect(sim, a, b, 5*time.Millisecond),
		Connect(sim, b, c, 5*time.Millisecond),
		Connect(sim, c, a, 5*time.Millisecond),
	}
	sim.RunFor(10 * time.Second)
	a.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	sim.RunFor(time.Minute)
	// Everything converges; A's own RIB keeps its local route as best.
	attrs, peer, ok := a.RIB().Best(pfx("35.0.0.0/8"))
	if !ok || peer.AS != 100 {
		t.Fatalf("A best %v from %v", attrs, peer)
	}
	// No oscillation: no further route updates flow once converged.
	updatesSent := func() int {
		n := 0
		for _, l := range links {
			sa, sb := l.Sessions()
			n += sa.Stats().UpdatesSent + sb.Stats().UpdatesSent
		}
		return n
	}
	before := updatesSent()
	sim.RunFor(10 * time.Minute)
	if after := updatesSent(); after != before {
		t.Fatalf("network did not converge: %d route updates in 10 idle minutes", after-before)
	}
}

func TestSessionLossWithdrawsLearnedRoutes(t *testing.T) {
	sim := events.New(4)
	a, b, c, ab, _ := triangle(t, sim)
	a.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)
	if _, _, ok := c.RIB().Best(pfx("35.0.0.0/8")); !ok {
		t.Fatal("setup: C missing route")
	}
	ab.Fail()
	sim.RunFor(time.Minute)
	if _, _, ok := b.RIB().Best(pfx("35.0.0.0/8")); ok {
		t.Fatal("B should have withdrawn A's routes on session loss")
	}
	if _, _, ok := c.RIB().Best(pfx("35.0.0.0/8")); ok {
		t.Fatal("withdrawal should cascade to C")
	}
	if b.Metrics().SessionDrops == 0 {
		t.Fatal("B session drop not counted")
	}
}

func TestLinkFlapAndRecovery(t *testing.T) {
	sim := events.New(5)
	a, _, c, ab, _ := triangle(t, sim)
	a.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)
	ab.Flap(30 * time.Second)
	// Within the ConnectRetry window plus margin everything restores.
	sim.RunFor(5 * time.Minute)
	if !ab.Established() {
		t.Fatal("link did not re-establish")
	}
	if _, _, ok := c.RIB().Best(pfx("35.0.0.0/8")); !ok {
		t.Fatal("route did not return after flap")
	}
}

func TestMultihomedFailover(t *testing.T) {
	sim := events.New(6)
	// Customer D originates a prefix and homes to both A and B; A and B both
	// peer with exchange router E.
	d := newRouter(sim, 400, 4)
	a := newRouter(sim, 100, 1)
	b := newRouter(sim, 200, 2)
	e := newRouter(sim, 500, 5)
	da := Connect(sim, d, a, 5*time.Millisecond)
	Connect(sim, d, b, 5*time.Millisecond)
	Connect(sim, a, e, 5*time.Millisecond)
	Connect(sim, b, e, 5*time.Millisecond)
	sim.RunFor(10 * time.Second)
	d.Originate(pfx("192.42.113.0/24"), bgp.OriginIGP)
	sim.RunFor(30 * time.Second)
	attrs, _, ok := e.RIB().Best(pfx("192.42.113.0/24"))
	if !ok {
		t.Fatal("E missing customer route")
	}
	if e.RIB().Candidates(pfx("192.42.113.0/24")) != 2 {
		t.Fatalf("E should hold both paths, has %d", e.RIB().Candidates(pfx("192.42.113.0/24")))
	}
	firstPath := attrs.Path.Key()
	// Cut the D—A link: E must fail over to the other path (a WADiff/AADiff
	// from E's viewpoint).
	da.Fail()
	sim.RunFor(time.Minute)
	attrs, _, ok = e.RIB().Best(pfx("192.42.113.0/24"))
	if !ok {
		t.Fatal("E lost the route entirely despite multihoming")
	}
	if attrs.Path.Key() == firstPath {
		t.Fatalf("E best path did not change after failover: %v", attrs.Path)
	}
	census := e.RIB().TakeCensus()
	if census.Multihomed != 0 { // only one path remains now
		t.Fatalf("census multihomed %d", census.Multihomed)
	}
}

func TestCrashUnderUpdateLoad(t *testing.T) {
	sim := events.New(7)
	victim := New(sim, Config{
		AS: 200, ID: 2, Arch: RouteCache,
		Session: session.Config{MRAI: 0},
	})
	feeder := New(sim, Config{
		AS: 100, ID: 1,
		Session: session.Config{MRAI: 0, Stateless: true},
	})
	l := Connect(sim, feeder, victim, time.Millisecond)
	sim.RunFor(5 * time.Second)
	if !l.Established() {
		t.Fatal("no establishment")
	}
	// Blast announcements well above the ~300/s capacity.
	var i int
	blaster := sim.Every(2*time.Millisecond, func() { // 500 prefix updates/s
		p := netaddr.MustPrefix(netaddr.Addr(0x0a000000+uint32(i%5000)*256), 24)
		feeder.Originate(p, bgp.OriginIGP)
		i++
	})
	sim.RunFor(2 * time.Minute)
	blaster.Stop()
	if victim.Metrics().Crashes == 0 {
		t.Fatalf("victim survived %d updates at 500/s (backlog %v)", victim.Metrics().UpdatesProcessed, victim.Backlog())
	}
	if !victim.Crashed() && victim.Metrics().Crashes < 1 {
		t.Fatal("crash state inconsistent")
	}
}

func TestSustainableLoadDoesNotCrash(t *testing.T) {
	sim := events.New(8)
	victim := New(sim, Config{AS: 200, ID: 2, Session: session.Config{MRAI: 0}})
	feeder := New(sim, Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0}})
	l := Connect(sim, feeder, victim, time.Millisecond)
	sim.RunFor(5 * time.Second)
	if !l.Established() {
		t.Fatal("no establishment")
	}
	var i int
	feed := sim.Every(50*time.Millisecond, func() { // 20 updates/s
		p := netaddr.MustPrefix(netaddr.Addr(0x0a000000+uint32(i%100)*256), 24)
		feeder.Originate(p, bgp.OriginIGP)
		i++
	})
	sim.RunFor(2 * time.Minute)
	feed.Stop()
	if victim.Metrics().Crashes != 0 {
		t.Fatal("victim crashed under sustainable load")
	}
	if victim.Metrics().UpdatesProcessed == 0 {
		t.Fatal("no updates processed")
	}
}

func TestCacheArchitectureCountsInvalidations(t *testing.T) {
	sim := events.New(9)
	cacheRouter := New(sim, Config{AS: 200, ID: 2, Arch: RouteCache, Session: session.Config{MRAI: 0}})
	fullRouter := New(sim, Config{AS: 300, ID: 3, Arch: FullTable, Session: session.Config{MRAI: 0}})
	feeder := New(sim, Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0}})
	Connect(sim, feeder, cacheRouter, time.Millisecond)
	Connect(sim, feeder, fullRouter, time.Millisecond)
	sim.RunFor(5 * time.Second)
	for i := 0; i < 50; i++ {
		feeder.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
		sim.RunFor(time.Second)
		feeder.WithdrawOrigin(pfx("35.0.0.0/8"))
		sim.RunFor(time.Second)
	}
	if cacheRouter.Metrics().CacheInvalidations == 0 {
		t.Fatal("route-cache router recorded no invalidations")
	}
	if fullRouter.Metrics().CacheInvalidations != 0 {
		t.Fatal("full-table router should not record invalidations")
	}
}

func TestFlapStormIgnition(t *testing.T) {
	// A hub router carrying many routes is overloaded by a flapping feeder;
	// its keepalives starve and an *unrelated* peer drops the session —
	// the paper's route flap storm mechanism.
	sim := events.New(10)
	hub := New(sim, Config{
		AS: 200, ID: 2, Arch: RouteCache,
		CPU: CPUModel{
			PerUpdate:    8 * time.Millisecond, // weak 68000-class CPU
			PerCacheMiss: time.Millisecond,
			CrashBacklog: time.Hour, // keep it alive; we want starvation, not crash
			RebootTime:   time.Minute,
		},
		Session: session.Config{MRAI: 0, HoldTime: 30 * time.Second},
	})
	feeder := New(sim, Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0, Stateless: true}})
	bystander := New(sim, Config{AS: 300, ID: 3, Session: session.Config{MRAI: 0, HoldTime: 30 * time.Second}})
	Connect(sim, feeder, hub, time.Millisecond)
	hb := Connect(sim, hub, bystander, time.Millisecond)
	sim.RunFor(5 * time.Second)
	if !hb.Established() {
		t.Fatal("setup failed")
	}
	var i int
	blaster := sim.Every(4*time.Millisecond, func() { // 250/s at 8ms each: 2x overload
		p := netaddr.MustPrefix(netaddr.Addr(0x0a000000+uint32(i/2%2000)*256), 24)
		if i%2 == 0 {
			feeder.Originate(p, bgp.OriginIGP)
		} else {
			feeder.WithdrawOrigin(p)
		}
		i++
	})
	sim.RunFor(3 * time.Minute)
	blaster.Stop()
	bys, _ := hb.Sessions()
	_ = bys
	if bystander.Metrics().SessionDrops == 0 {
		t.Fatalf("bystander never dropped the session (hub backlog %v)", hub.Backlog())
	}
}

func TestDampingSuppressesFlappingRoute(t *testing.T) {
	sim := events.New(11)
	cfg := damping.DefaultConfig()
	damped := New(sim, Config{AS: 200, ID: 2, Damping: &cfg, Session: session.Config{MRAI: 0}})
	feeder := New(sim, Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0}})
	Connect(sim, feeder, damped, time.Millisecond)
	sim.RunFor(5 * time.Second)
	for i := 0; i < 10; i++ {
		feeder.Originate(pfx("192.42.113.0/24"), bgp.OriginIGP)
		sim.RunFor(30 * time.Second)
		feeder.WithdrawOrigin(pfx("192.42.113.0/24"))
		sim.RunFor(30 * time.Second)
	}
	if damped.Metrics().DampedUpdates == 0 {
		t.Fatal("no updates were damped")
	}
	// The flapping route ends suppressed: the final announce is held down...
	feeder.Originate(pfx("192.42.113.0/24"), bgp.OriginIGP)
	sim.RunFor(5 * time.Second)
	if _, _, ok := damped.RIB().Best(pfx("192.42.113.0/24")); ok {
		t.Fatal("suppressed route was installed")
	}
	// ...but sits on the reuse list and installs once the penalty decays.
	sim.RunFor(2 * time.Hour)
	if _, _, ok := damped.RIB().Best(pfx("192.42.113.0/24")); !ok {
		t.Fatal("suppressed route never reused after decay")
	}
}

func TestStatelessRouterEmitsExtraWithdrawals(t *testing.T) {
	// The paper's ISP-Y scenario: a provider's stateless routers relay
	// withdrawals back to peers that never received the announcement, so the
	// upstream (standing in for the route server) receives spurious
	// withdrawals from the stateless AS but none from the stateful one.
	sim := events.New(12)
	stateless := New(sim, Config{AS: 200, ID: 2, Session: session.Config{MRAI: time.Second, Stateless: true}})
	stateful := New(sim, Config{AS: 210, ID: 21, Session: session.Config{MRAI: time.Second, CompareLastSent: true}})
	up1 := New(sim, Config{AS: 100, ID: 1, Session: session.Config{MRAI: time.Second}})
	u1s := Connect(sim, up1, stateless, time.Millisecond)
	u2s := Connect(sim, up1, stateful, time.Millisecond)
	sim.RunFor(5 * time.Second)
	for i := 0; i < 20; i++ {
		up1.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
		sim.RunFor(5 * time.Second)
		up1.WithdrawOrigin(pfx("35.0.0.0/8"))
		sim.RunFor(5 * time.Second)
	}
	fromStateless, _ := u1s.Sessions() // up1's endpoint toward the stateless AS
	fromStateful, _ := u2s.Sessions()
	if got := fromStateless.Stats().WdReceived; got < 20 {
		t.Fatalf("upstream received only %d withdrawals from the stateless AS", got)
	}
	if got := fromStateful.Stats().WdReceived; got != 0 {
		t.Fatalf("upstream received %d spurious withdrawals from the stateful AS", got)
	}
}

func TestCrashRebootRestoresOrigination(t *testing.T) {
	sim := events.New(13)
	// Calibrated so a flap burst exceeds capacity but the post-reboot full
	// table dump does not (otherwise the router enters a permanent crash
	// loop, which is itself a behavior the flap-storm test covers).
	r := New(sim, Config{
		AS: 100, ID: 1,
		CPU:     CPUModel{PerUpdate: 5 * time.Millisecond, CrashBacklog: 50 * time.Millisecond, RebootTime: time.Minute},
		Session: session.Config{MRAI: 0},
	})
	peer := New(sim, Config{AS: 200, ID: 2, Session: session.Config{MRAI: 0}})
	l := Connect(sim, r, peer, time.Millisecond)
	sim.RunFor(5 * time.Second)
	r.Originate(pfx("35.0.0.0/8"), bgp.OriginIGP)
	for i := 0; i < 5; i++ {
		peer.Originate(netaddr.MustPrefix(netaddr.Addr(0x0b000000+uint32(i)*65536), 16), bgp.OriginIGP)
		sim.RunFor(time.Second)
	}
	// Flap one prefix at 500 changes/s — far beyond the 200/s capacity.
	var i int
	burst := sim.Every(2*time.Millisecond, func() {
		if i%2 == 0 {
			peer.Originate(pfx("203.0.113.0/24"), bgp.OriginIGP)
		} else {
			peer.WithdrawOrigin(pfx("203.0.113.0/24"))
		}
		i++
	})
	sim.RunFor(2 * time.Second)
	burst.Stop()
	if r.Metrics().Crashes == 0 {
		t.Fatalf("router did not crash (backlog %v)", r.Backlog())
	}
	// After reboot + retries, the origination is visible at the peer again.
	sim.RunFor(10 * time.Minute)
	if !l.Established() {
		t.Fatal("session did not recover after reboot")
	}
	if _, _, ok := peer.RIB().Best(pfx("35.0.0.0/8")); !ok {
		t.Fatal("origination not restored after reboot")
	}
}

// Backlog returns the current queued-work estimate.
func (r *Router) Backlog() time.Duration {
	r.drain()
	return r.backlog
}

// Sessions returns the two session endpoints (a-side, b-side).
func (l *Link) Sessions() (*session.Peer, *session.Peer) { return l.sa, l.sb }
