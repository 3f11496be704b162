// Package exchange models a public Internet exchange point with a Routing
// Arbiter route server: the measurement vantage of the entire study. The
// route server peers with most providers at the exchange, performs policy
// computation on their behalf (reducing O(N^2) bilateral sessions to O(N)),
// and — for our purposes — logs every BGP update it receives in collector
// format.
package exchange

import (
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/events"
	"instability/internal/netaddr"
	"instability/internal/policy"
	"instability/internal/rib"
	"instability/internal/router"
	"instability/internal/session"
)

// RouteServerAS is the autonomous system number used by the route servers.
const RouteServerAS bgp.ASN = 6000

// Point is one exchange point: a route server plus the client routers
// peering with it.
type Point struct {
	Name string
	sim  *events.Sim
	rs   *router.Router
	// links by client AS.
	links map[bgp.ASN]*router.Link
	// sink receives every logged record.
	sink          func(collector.Record)
	collectorOnly bool
	// Records counts logged updates.
	Records int
}

// Config parameterizes the exchange point.
type Config struct {
	Name string
	// CollectorOnly stops the route server from relaying routes to clients:
	// it peers and logs but exports nothing (an export policy rejecting
	// everything is installed per client). The default relays post-policy
	// best routes transparently, as the Routing Arbiter servers did.
	CollectorOnly bool
	// Sink receives the log records. Required.
	Sink func(collector.Record)
}

// New creates an exchange point on the simulator.
func New(sim *events.Sim, cfg Config) *Point {
	p := &Point{Name: cfg.Name, sim: sim, links: make(map[bgp.ASN]*router.Link), sink: cfg.Sink}
	rcfg := router.Config{
		AS:          RouteServerAS,
		ID:          netaddr.MustParseAddr("198.32.186.250"),
		Arch:        router.FullTable,
		Transparent: true,
		// The route servers are Unix machines, not cache-based routers; give
		// them ample capacity so the measurement point never perturbs the
		// experiment.
		CPU: router.CPUModel{
			PerUpdate:    20 * time.Microsecond,
			CrashBacklog: time.Hour,
			RebootTime:   time.Minute,
		},
		Session: session.Config{MRAI: 30 * time.Second, MRAIJitter: 0.25, CompareLastSent: true},
		Tap:     p.tap,
		PeerState: func(peer rib.PeerID, up bool) {
			typ := collector.SessionDown
			if up {
				typ = collector.SessionUp
			}
			p.emit(collector.Record{
				Time: sim.Now(), Type: typ,
				PeerAS: peer.AS, PeerAddr: peer.ID,
			})
		},
	}
	p.rs = router.New(sim, rcfg)
	p.collectorOnly = cfg.CollectorOnly
	return p
}

// RouteServer exposes the underlying speaker (for RIB inspection).
func (p *Point) RouteServer() *router.Router { return p.rs }

// AttachClient links a client router to the route server with the given
// one-way delay and returns the link.
func (p *Point) AttachClient(client *router.Router, delay time.Duration) *router.Link {
	l := router.Connect(p.sim, client, p.rs, delay)
	p.links[client.AS()] = l
	if p.collectorOnly {
		p.rs.SetExportPolicy(client.AS(), client.ID(), &policy.Policy{DefaultReject: true})
	}
	return l
}

func (p *Point) tap(from rib.PeerID, u bgp.Update) {
	now := p.sim.Now()
	for _, prefix := range u.Withdrawn {
		p.emit(collector.Record{
			Time: now, Type: collector.Withdraw,
			PeerAS: from.AS, PeerAddr: from.ID, Prefix: prefix,
		})
	}
	for _, prefix := range u.Announced {
		p.emit(collector.Record{
			Time: now, Type: collector.Announce,
			PeerAS: from.AS, PeerAddr: from.ID, Prefix: prefix, Attrs: u.Attrs,
		})
	}
}

func (p *Point) emit(rec collector.Record) {
	p.Records++
	if p.sink != nil {
		p.sink(rec)
	}
}

// BilateralSessions returns the number of peering sessions an exchange with
// n routers needs under full-mesh bilateral peering: n(n-1)/2 two-party
// sessions (each router maintains n-1).
func BilateralSessions(n int) int { return n * (n - 1) / 2 }

// RouteServerSessions returns the number of sessions with a route server:
// one per client.
func RouteServerSessions(n int) int { return n }
