package exchange_test

import (
	"fmt"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/events"
	"instability/internal/exchange"
	"instability/internal/netaddr"
	"instability/internal/router"
	"instability/internal/session"
)

// episode flaps one prefix through a route server whose relaying provider
// runs the given session profile, and returns the classified counts of
// everything the route server logged.
func episode(stateless bool) [core.NumClasses]int {
	sim := events.New(1996)
	cls := core.NewClassifier()
	var counts [core.NumClasses]int
	pt := exchange.New(sim, exchange.Config{
		Name: "Mae-East",
		Sink: func(r collector.Record) { counts[cls.Classify(r).Class]++ },
	})

	// ISP-X originates and flaps the prefix; ISP-Y only hears it via the
	// route server.
	ispX := router.New(sim, router.Config{
		AS: 690, ID: 1,
		Session: session.Config{MRAI: time.Second, CompareLastSent: true},
	})
	ispY := router.New(sim, router.Config{
		AS: 701, ID: 2,
		Session: session.Config{MRAI: time.Second, Stateless: stateless, CompareLastSent: !stateless},
	})
	pt.AttachClient(ispX, 5*time.Millisecond)
	pt.AttachClient(ispY, 5*time.Millisecond)
	sim.RunFor(10 * time.Second)

	prefix := netaddr.MustParsePrefix("192.42.113.0/24")
	for i := 0; i < 8; i++ {
		ispX.Originate(prefix, bgp.OriginIGP)
		sim.RunFor(time.Minute)
		ispX.WithdrawOrigin(prefix)
		sim.RunFor(time.Minute)
	}
	return counts
}

// Example builds a live miniature of the paper's measurement setup: a route
// server at an exchange logs every update its clients send, and the log is
// classified. WWDups appear from the stateless vendor and vanish after the
// "software upgrade" to a stateful one, the drop §4.2 reports.
func Example() {
	before := episode(true)
	after := episode(false)
	fmt.Println("class   stateless  stateful")
	for _, c := range core.Classes() {
		fmt.Printf("%-6s  %9d  %8d\n", c, before[c], after[c])
	}
	fmt.Printf("sessions at a 60-provider exchange: full mesh %d, route server %d\n",
		exchange.BilateralSessions(60), exchange.RouteServerSessions(60))
	// Output:
	// class   stateless  stateful
	// AADiff          0         0
	// WADiff          0         0
	// WADup           7         7
	// AADup           0         0
	// WWDup          16         0
	// Other          11        11
	// sessions at a 60-provider exchange: full mesh 1770, route server 60
}
