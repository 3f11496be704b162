package netsim

import (
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/netaddr"
	"instability/internal/topology"
)

func smallTopo() topology.Config {
	return topology.Config{
		Backbones:           4,
		Regionals:           4,
		Customers:           24,
		PrefixesPerCustomer: 2,
		MultihomedFrac:      0.3,
		StatelessFrac:       0.4,
		UnjitteredFrac:      0.5,
		SwampFrac:           0.3,
	}
}

// build runs a small live network through establishment and origination.
func build(t *testing.T, csuFrac float64, sink func(collector.Record)) *Sim {
	t.Helper()
	s, err := Build(Config{
		Topology: smallTopo(),
		Seed:     1996,
		CSUFrac:  csuFrac,
		Sink:     sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Settle(30*time.Second, 5*time.Minute)
	return s
}

func TestBuildEstablishesAndPropagates(t *testing.T) {
	var recs int
	s := build(t, 0, func(collector.Record) { recs++ })
	if got := s.EstablishedLinks(); got < len(s.Links)*9/10 {
		t.Fatalf("only %d/%d links established", got, len(s.Links))
	}
	// The route server converges on (nearly) the full prefix set: every
	// origination must reach the exchange through live propagation.
	total := s.Topo.TotalPrefixes()
	rsLen := s.Point.RouteServer().RIB().Len()
	if rsLen < total*9/10 {
		t.Fatalf("route server holds %d of %d prefixes", rsLen, total)
	}
	if recs == 0 {
		t.Fatal("no records collected")
	}
	// Multihomed origins show at the route server as multiple candidates.
	census := s.Point.RouteServer().RIB().TakeCensus()
	if census.Multihomed == 0 {
		t.Fatal("no multihoming visible at the exchange")
	}
}

func TestLiveFlapClassifiesAsPaperTaxonomy(t *testing.T) {
	cls := core.NewClassifier()
	var counts [core.NumClasses]int
	s := build(t, 0, func(r collector.Record) {
		counts[cls.Classify(r).Class]++
	})
	// Pick a single-homed customer and flap one of its prefixes.
	var victim *topology.AS
	for _, asn := range s.Topo.Order {
		a := s.Topo.ASes[asn]
		if a.Tier == topology.Customer && !a.Multihomed && len(a.Prefixes) > 0 {
			victim = a
			break
		}
	}
	if victim == nil {
		t.Fatal("no single-homed customer")
	}
	before := counts
	s.FlapPrefix(victim.ASN, victim.Prefixes[0], 2*time.Minute, 5)
	s.Run(5 * time.Minute)

	waDup := counts[core.WADup] - before[core.WADup]
	waDiff := counts[core.WADiff] - before[core.WADiff]
	if waDup+waDiff < 3 {
		t.Fatalf("flapping produced %d WADup + %d WADiff at the collector", waDup, waDiff)
	}
	// If any backbone at the exchange runs the stateless vendor, WWDups
	// appear too — the live reproduction of the ISP-Y pattern.
	statelessAtExchange := false
	for _, p := range s.Topo.Exchange("Mae-East").Peers {
		if s.Topo.ASes[p].Vendor.Stateless {
			statelessAtExchange = true
		}
	}
	if statelessAtExchange && counts[core.WWDup] == 0 {
		t.Fatal("stateless backbones at the exchange but no WWDups observed")
	}
}

func TestLiveCSUProducesThirtySecondMass(t *testing.T) {
	cls := core.NewClassifier()
	acc := core.NewAccumulator()
	s := build(t, 0.5, func(r collector.Record) {
		acc.Add(cls.Classify(r))
	})
	// Let the CSU beats run for a while.
	s.Run(30 * time.Minute)
	var on3060, total int
	for _, day := range acc.Days {
		for c := 0; c < core.NumClasses; c++ {
			for b, v := range day.InterArrival[c] {
				total += v
				if b == 2 || b == 3 { // 30s and 1m bins
					on3060 += v
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no inter-arrivals measured")
	}
	if frac := float64(on3060) / float64(total); frac < 0.25 {
		t.Fatalf("30s+1m inter-arrival share %.2f — CSU beat not visible", frac)
	}
}

func TestBuildUnknownExchange(t *testing.T) {
	_, err := Build(Config{Topology: smallTopo(), Exchange: "LINX"})
	if err == nil {
		t.Fatal("unknown exchange accepted")
	}
}

func TestDeterministicBuild(t *testing.T) {
	var a, b int
	s1 := build(t, 0.2, func(collector.Record) { a++ })
	s2 := build(t, 0.2, func(collector.Record) { b++ })
	if a != b {
		t.Fatalf("same seed produced %d vs %d records", a, b)
	}
	if s1.Topo.TotalPrefixes() != s2.Topo.TotalPrefixes() {
		t.Fatal("topologies differ")
	}
}

// TestScriptedHijackShowsMOAS pins the scripted-adversary signature: a
// hijack originated by an exchange peer surfaces at the collector as a
// second origin AS for an already-established prefix (the MOAS conflict the
// detector's origin channel alarms on), and withdrawing ends it.
func TestScriptedHijackShowsMOAS(t *testing.T) {
	origins := make(map[string]map[bgp.ASN]bool)
	s := build(t, 0, func(r collector.Record) {
		if r.Type != collector.Announce {
			return
		}
		key := r.Prefix.String()
		if origins[key] == nil {
			origins[key] = make(map[bgp.ASN]bool)
		}
		if o, ok := r.Attrs.Path.Origin(); ok {
			origins[key][o] = true
		}
	})
	// Victim: a customer prefix already converged at the route server.
	// Attacker: an exchange peer that is not the victim's origin.
	var victim netaddr.Prefix
	var victimAS bgp.ASN
	for _, asn := range s.Topo.Order {
		a := s.Topo.ASes[asn]
		if a.Tier == topology.Customer && len(a.Prefixes) > 0 && len(origins[a.Prefixes[0].String()]) == 1 {
			victim, victimAS = a.Prefixes[0], asn
			break
		}
	}
	if !victim.IsValid() {
		t.Fatal("no converged single-origin customer prefix")
	}
	var attacker bgp.ASN
	for _, p := range s.Topo.Exchange("Mae-East").Peers {
		if p != victimAS {
			attacker = p
			break
		}
	}
	s.Hijack(attacker, victim, 10*time.Minute)
	s.Run(5 * time.Minute)
	got := origins[victim.String()]
	if !got[attacker] {
		t.Fatalf("attacker AS%d origin never seen for %s (origins %v)", attacker, victim, got)
	}
	if len(got) < 2 {
		t.Fatalf("no MOAS conflict: origins %v", got)
	}
}

// TestScriptedSessionResetStorm pins the storm signature: bouncing one
// peer's access circuit replays its table through the route server as
// withdraw/re-announce bursts — the instability classes spike while the
// storm runs.
func TestScriptedSessionResetStorm(t *testing.T) {
	cls := core.NewClassifier()
	var counts [core.NumClasses]int
	s := build(t, 0, func(r collector.Record) {
		counts[cls.Classify(r).Class]++
	})
	peer := s.Topo.Exchange("Mae-East").Peers[0]
	before := counts
	s.SessionResetStorm(peer, 4, 45*time.Second, 4*time.Minute)
	s.Run(10 * time.Minute)
	burst := 0
	for _, c := range []core.Class{core.WADup, core.WADiff, core.AADup, core.WWDup} {
		burst += counts[c] - before[c]
	}
	if burst < 10 {
		t.Fatalf("session-reset storm produced only %d pathological/instability updates", burst)
	}
	if !s.ClientLinks[peer].Established() {
		t.Fatal("peer session did not re-establish after the storm")
	}
}

// FlapPrefix withdraws and re-announces one AS's prefix with the given
// period, count times (a scripted unstable circuit).
func (s *Sim) FlapPrefix(asn bgp.ASN, prefix netaddr.Prefix, period time.Duration, count int) {
	r := s.Routers[asn]
	for i := 0; i < count; i++ {
		r.WithdrawOrigin(prefix)
		s.Events.RunFor(period)
		r.Originate(prefix, bgp.OriginIGP)
		s.Events.RunFor(period)
	}
}

// Hijack scripts a prefix hijack at full protocol fidelity: the attacker
// originates a prefix it does not own, so the route server sees a second
// origin AS for an established route (the MOAS conflict the detector's
// origin channel alarms on). After hold, the attacker withdraws and the
// legitimate route re-converges.
func (s *Sim) Hijack(attacker bgp.ASN, prefix netaddr.Prefix, hold time.Duration) {
	r := s.Routers[attacker]
	r.Originate(prefix, bgp.OriginIGP)
	s.Events.RunFor(hold)
	r.WithdrawOrigin(prefix)
}

// SessionResetStorm bounces one exchange peer's access circuit: cycles
// outages of the given length, period apart. Each reset replays the peer's
// whole table through the route server — the WADup/AADup burst signature of
// a flapping session, scripted instead of emergent.
func (s *Sim) SessionResetStorm(peer bgp.ASN, cycles int, outage, period time.Duration) {
	l := s.ClientLinks[peer]
	if l == nil {
		return
	}
	for i := 0; i < cycles; i++ {
		l.Flap(outage)
		s.Events.RunFor(period)
	}
}
