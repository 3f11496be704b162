package router

import (
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/events"
	"instability/internal/netaddr"
	"instability/internal/session"
)

// aggregateSetup: two customers feed a provider that aggregates their /24s
// into one /22 toward an upstream.
func aggregateSetup(t *testing.T, suppress bool) (*events.Sim, *Router, *Router, *Router, *Router) {
	t.Helper()
	sim := events.New(51)
	provider := New(sim, Config{AS: 200, ID: 2, Session: session.Config{MRAI: 0, CompareLastSent: true}})
	provider.ConfigureAggregate(AggregateConfig{
		Supernet:           pfx("198.108.60.0/22"),
		SuppressComponents: suppress,
	})
	cust1 := newRouter(sim, 100, 1)
	cust2 := newRouter(sim, 110, 11)
	up := newRouter(sim, 300, 3)
	Connect(sim, cust1, provider, time.Millisecond)
	Connect(sim, cust2, provider, time.Millisecond)
	Connect(sim, provider, up, time.Millisecond)
	sim.RunFor(5 * time.Second)
	return sim, provider, cust1, cust2, up
}

func TestAggregateAnnouncedWithFirstComponent(t *testing.T) {
	sim, provider, cust1, _, up := aggregateSetup(t, true)
	if provider.AggregateActive(pfx("198.108.60.0/22")) {
		t.Fatal("aggregate active with no components")
	}
	cust1.Originate(pfx("198.108.60.0/24"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)
	if !provider.AggregateActive(pfx("198.108.60.0/22")) {
		t.Fatal("aggregate not activated")
	}
	attrs, _, ok := up.RIB().Best(pfx("198.108.60.0/22"))
	if !ok {
		t.Fatal("upstream missing aggregate")
	}
	if !attrs.AtomicAggregate || !attrs.HasAggregator || attrs.AggregatorAS != 200 {
		t.Fatalf("aggregate attributes wrong: %+v", attrs)
	}
	// The component itself is hidden.
	if _, _, ok := up.RIB().Best(pfx("198.108.60.0/24")); ok {
		t.Fatal("component leaked upstream")
	}
}

func TestAggregateHidesComponentInstability(t *testing.T) {
	sim, _, cust1, cust2, up := aggregateSetup(t, true)
	cust1.Originate(pfx("198.108.60.0/24"), bgp.OriginIGP)
	cust2.Originate(pfx("198.108.61.0/24"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)
	upSess := up.Session(200, 2)
	baseline := upSess.Stats().UpdatesReceived
	// Customer 1 flaps ten times; customer 2 keeps the aggregate alive, so
	// the upstream hears nothing at all.
	for i := 0; i < 10; i++ {
		cust1.WithdrawOrigin(pfx("198.108.60.0/24"))
		sim.RunFor(10 * time.Second)
		cust1.Originate(pfx("198.108.60.0/24"), bgp.OriginIGP)
		sim.RunFor(10 * time.Second)
	}
	if got := upSess.Stats().UpdatesReceived; got != baseline {
		t.Fatalf("upstream heard %d updates during hidden flapping", got-baseline)
	}
}

func TestAggregateWithdrawnWithLastComponent(t *testing.T) {
	sim, provider, cust1, cust2, up := aggregateSetup(t, true)
	cust1.Originate(pfx("198.108.60.0/24"), bgp.OriginIGP)
	cust2.Originate(pfx("198.108.61.0/24"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)
	cust1.WithdrawOrigin(pfx("198.108.60.0/24"))
	sim.RunFor(10 * time.Second)
	if !provider.AggregateActive(pfx("198.108.60.0/22")) {
		t.Fatal("aggregate should survive one component")
	}
	cust2.WithdrawOrigin(pfx("198.108.61.0/24"))
	sim.RunFor(10 * time.Second)
	if provider.AggregateActive(pfx("198.108.60.0/22")) {
		t.Fatal("aggregate should die with its last component")
	}
	if _, _, ok := up.RIB().Best(pfx("198.108.60.0/22")); ok {
		t.Fatal("upstream kept the dead aggregate")
	}
}

func TestAggregateSessionLossCountsComponents(t *testing.T) {
	sim, provider, cust1, cust2, _ := aggregateSetup(t, true)
	cust1.Originate(pfx("198.108.60.0/24"), bgp.OriginIGP)
	cust2.Originate(pfx("198.108.61.0/24"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)
	// Crash customer 2: its session dies; component must be deregistered.
	c2sess := provider.Session(110, 11)
	if c2sess == nil {
		t.Fatal("missing session")
	}
	c2sess.TransportDown(nil)
	sim.RunFor(time.Second)
	if !provider.AggregateActive(pfx("198.108.60.0/22")) {
		t.Fatal("aggregate should survive on cust1")
	}
	c1sess := provider.Session(100, 1)
	c1sess.TransportDown(nil)
	sim.RunFor(time.Second)
	if provider.AggregateActive(pfx("198.108.60.0/22")) {
		t.Fatal("aggregate should die when all component sessions drop")
	}
}

func TestSloppyAggregationLeaksComponents(t *testing.T) {
	// SuppressComponents=false: both aggregate and components are exported,
	// the poorly aggregated table growth the paper laments.
	sim, _, cust1, _, up := aggregateSetup(t, false)
	cust1.Originate(pfx("198.108.60.0/24"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)
	if _, _, ok := up.RIB().Best(pfx("198.108.60.0/22")); !ok {
		t.Fatal("aggregate missing")
	}
	if _, _, ok := up.RIB().Best(pfx("198.108.60.0/24")); !ok {
		t.Fatal("component should be visible in sloppy mode")
	}
	// And component flaps now leak upstream.
	upSess := up.Session(200, 2)
	before := upSess.Stats().UpdatesReceived
	cust1.WithdrawOrigin(pfx("198.108.60.0/24"))
	sim.RunFor(10 * time.Second)
	if upSess.Stats().UpdatesReceived == before {
		t.Fatal("sloppy aggregation should leak the withdrawal")
	}
}

func TestAggregateTableDumpHidesComponents(t *testing.T) {
	// A session established after the components are learned must receive
	// the aggregate but not the components.
	sim := events.New(52)
	provider := New(sim, Config{AS: 200, ID: 2, Session: session.Config{MRAI: 0, CompareLastSent: true}})
	provider.ConfigureAggregate(AggregateConfig{Supernet: pfx("198.108.60.0/22"), SuppressComponents: true})
	cust := newRouter(sim, 100, 1)
	Connect(sim, cust, provider, time.Millisecond)
	sim.RunFor(5 * time.Second)
	cust.Originate(pfx("198.108.60.0/24"), bgp.OriginIGP)
	sim.RunFor(10 * time.Second)

	late := newRouter(sim, 300, 3)
	Connect(sim, provider, late, time.Millisecond)
	sim.RunFor(10 * time.Second)
	if _, _, ok := late.RIB().Best(pfx("198.108.60.0/22")); !ok {
		t.Fatal("late peer missing aggregate")
	}
	if _, _, ok := late.RIB().Best(pfx("198.108.60.0/24")); ok {
		t.Fatal("late peer received hidden component")
	}
}

// AggregateActive reports whether the supernet is currently announced.
func (r *Router) AggregateActive(supernet netaddr.Prefix) bool {
	st := r.aggregates[supernet]
	return st != nil && st.active
}
