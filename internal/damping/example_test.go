package damping_test

import (
	"fmt"
	"time"

	"instability/internal/bgp"
	"instability/internal/damping"
	"instability/internal/events"
	"instability/internal/netaddr"
	"instability/internal/router"
	"instability/internal/session"
)

// Example shows the countermeasure the paper discusses in §3: route flap
// damping holds down a persistently flapping prefix, and then delays a
// legitimate announcement after the flapping stops.
func Example() {
	sim := events.New(7)
	cfg := damping.DefaultConfig()
	fmt.Printf("suppress at penalty %.0f, reuse below %.0f, half-life %v\n",
		cfg.SuppressThreshold, cfg.ReuseThreshold, cfg.HalfLife)

	protected := router.New(sim, router.Config{
		AS: 200, ID: 2, Damping: &cfg, Session: session.Config{MRAI: 0},
	})
	exposed := router.New(sim, router.Config{AS: 300, ID: 3, Session: session.Config{MRAI: 0}})
	flapper := router.New(sim, router.Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0}})
	router.Connect(sim, flapper, protected, time.Millisecond)
	router.Connect(sim, flapper, exposed, time.Millisecond)
	sim.RunFor(5 * time.Second)

	// Flap the prefix every minute for ten cycles.
	prefix := netaddr.MustParsePrefix("192.42.113.0/24")
	for i := 0; i < 10; i++ {
		flapper.Originate(prefix, bgp.OriginIGP)
		sim.RunFor(30 * time.Second)
		flapper.WithdrawOrigin(prefix)
		sim.RunFor(30 * time.Second)
	}
	fmt.Printf("damped router: %d updates suppressed, %d processed\n",
		protected.Metrics().DampedUpdates, protected.Metrics().UpdatesProcessed)
	fmt.Printf("exposed router: %d processed\n", exposed.Metrics().UpdatesProcessed)

	// The network stabilizes and the origin announces one final route.
	flapper.Originate(prefix, bgp.OriginIGP)
	sim.RunFor(time.Second)
	_, _, okProtected := protected.RIB().Best(prefix)
	_, _, okExposed := exposed.RIB().Best(prefix)
	fmt.Printf("at once: exposed has route=%v, damped has route=%v\n", okExposed, okProtected)

	// The suppressed route sits on the reuse list; once the penalty decays
	// below the reuse threshold the router installs it.
	waited := time.Duration(0)
	for !okProtected && waited < 3*time.Hour {
		sim.RunFor(5 * time.Minute)
		waited += 5 * time.Minute
		_, _, okProtected = protected.RIB().Best(prefix)
	}
	fmt.Printf("damped router accepted the route after ~%v\n", waited)
	// Output:
	// suppress at penalty 2000, reuse below 750, half-life 15m0s
	// damped router: 7 updates suppressed, 13 processed
	// exposed router: 20 processed
	// at once: exposed has route=true, damped has route=false
	// damped router accepted the route after ~55m0s
}
