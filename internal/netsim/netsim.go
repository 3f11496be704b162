// Package netsim instantiates a generated AS topology as live simulated
// routers: real BGP sessions over simulated transports, vendor profiles from
// the topology (stateless Adj-RIB-Out, unjittered timers), route servers
// with collector taps at the exchange points, and fault processes (CSU clock
// drift on customer circuits, scripted flapping). It is the full-fidelity
// counterpart of the statistical workload generator: too slow for nine
// simulated months at Internet scale, but exactly right for validating that
// the composed micro-mechanisms produce the classified update signatures the
// paper reports — which is what its integration tests do.
package netsim

import (
	"fmt"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/events"
	"instability/internal/exchange"
	"instability/internal/router"
	"instability/internal/session"
	"instability/internal/topology"
)

// Config parameterizes a live build.
type Config struct {
	// Topology sizes the AS graph (keep it small: every AS becomes a live
	// router).
	Topology topology.Config
	// Exchange selects which exchange point gets the instrumented route
	// server (default Mae-East).
	Exchange string
	// Seed drives topology generation and fault randomness.
	Seed int64
	// CSUFrac is the fraction of customer access circuits terminated by
	// drifting CSU pairs (each beats at 30 or 60 s).
	CSUFrac float64
	// LinkDelay is the one-way propagation delay on every link.
	LinkDelay time.Duration
	// Sink receives the route server's collector records. Optional.
	Sink func(collector.Record)
}

// Sim is a built network.
type Sim struct {
	Events  *events.Sim
	Topo    *topology.Topology
	Routers map[bgp.ASN]*router.Router
	Links   []*router.Link
	Point   *exchange.Point
	CSUs    []*router.CSU
	// ClientLinks maps each exchange peer to its access link into the route
	// server — the circuit the scripted session-reset storm bounces.
	ClientLinks map[bgp.ASN]*router.Link

	cfg Config
}

// Build generates the topology and instantiates every AS as a live router.
// Sessions start immediately; call Settle to run the establishment window
// and originate every prefix.
func Build(cfg Config) (*Sim, error) {
	if cfg.Exchange == "" {
		cfg.Exchange = "Mae-East"
	}
	if cfg.LinkDelay == 0 {
		cfg.LinkDelay = 5 * time.Millisecond
	}
	sim := events.New(cfg.Seed)
	topo := topology.Generate(cfg.Topology, sim.RNG("netsim/topology"))
	ep := topo.Exchange(cfg.Exchange)
	if ep == nil {
		return (*Sim)(nil), fmt.Errorf("netsim: unknown exchange %q", cfg.Exchange)
	}
	s := &Sim{
		Events:  sim,
		Topo:    topo,
		Routers: make(map[bgp.ASN]*router.Router, len(topo.Order)),
		cfg:     cfg,
	}

	// One border router per AS, session behavior from the vendor profile.
	for _, asn := range topo.Order {
		a := topo.ASes[asn]
		scfg := session.Config{
			MRAI:            30 * time.Second,
			Stateless:       a.Vendor.Stateless,
			CompareLastSent: !a.Vendor.Stateless,
		}
		if !a.Vendor.UnjitteredTimer {
			scfg.MRAIJitter = 0.25
		}
		s.Routers[asn] = router.New(sim, router.Config{
			AS:      asn,
			ID:      a.RouterID,
			Arch:    router.RouteCache,
			Session: scfg,
		})
	}

	// Provider links (customer/regional up to each provider), with CSU
	// oscillators on a fraction of customer circuits.
	rng := sim.RNG("netsim/faults")
	for _, asn := range topo.Order {
		a := topo.ASes[asn]
		for _, prov := range a.Providers {
			l := router.Connect(sim, s.Routers[asn], s.Routers[prov], cfg.LinkDelay)
			s.Links = append(s.Links, l)
			if a.Tier == topology.Customer && rng.Float64() < cfg.CSUFrac {
				csu := router.CSUConfig{
					DriftPPM:   2 + 2*float64(rng.Intn(2)), // 2 or 4 ppm: 60 or 30 s beat
					SlipBudget: 120 * time.Microsecond,
					Resync:     2 * time.Second,
				}
				s.CSUs = append(s.CSUs, router.AttachCSU(sim, l, csu))
			}
		}
	}

	// Backbone mesh (the private interconnects), so every backbone carries
	// the full table.
	bbs := topo.Backbones()
	for i := 0; i < len(bbs); i++ {
		for j := i + 1; j < len(bbs); j++ {
			s.Links = append(s.Links, router.Connect(sim, s.Routers[bbs[i].ASN], s.Routers[bbs[j].ASN], cfg.LinkDelay))
		}
	}

	// The instrumented exchange point.
	s.Point = exchange.New(sim, exchange.Config{
		Name:          cfg.Exchange,
		CollectorOnly: true, // pure measurement tap, as in the study
		Sink:          cfg.Sink,
	})
	s.ClientLinks = make(map[bgp.ASN]*router.Link, len(ep.Peers))
	for _, peerAS := range ep.Peers {
		l := s.Point.AttachClient(s.Routers[peerAS], cfg.LinkDelay)
		s.Links = append(s.Links, l)
		s.ClientLinks[peerAS] = l
	}
	return s, nil
}

// Settle runs the session-establishment window and then originates every
// AS's prefixes, returning once the originations have had settle time to
// propagate.
func (s *Sim) Settle(establish, propagate time.Duration) {
	s.Events.RunFor(establish)
	for _, asn := range s.Topo.Order {
		a := s.Topo.ASes[asn]
		for _, p := range a.Prefixes {
			s.Routers[asn].Originate(p, bgp.OriginIGP)
		}
	}
	s.Events.RunFor(propagate)
}

// Run advances the simulation.
func (s *Sim) Run(d time.Duration) {
	s.Events.RunFor(d)
}

// EstablishedLinks counts links with both sessions up.
func (s *Sim) EstablishedLinks() int {
	n := 0
	for _, l := range s.Links {
		if l.Established() {
			n++
		}
	}
	return n
}
