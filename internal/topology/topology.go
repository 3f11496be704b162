// Package topology generates Internet-like autonomous-system structure as it
// stood in 1996-97: a handful of backbone providers dominating the routing
// tables, a layer of regional providers, and a long tail of customer ASes —
// a quarter of them multi-homed — originating roughly 42,000 prefixes drawn
// from provider CIDR blocks and the unaggregatable pre-CIDR "swamp". The
// five U.S. public exchange points and their route-server peer counts follow
// the paper's Figure 1.
package topology

import (
	"fmt"
	"math/rand"
	"sort"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

// Tier classifies an AS's role.
type Tier int

// AS tiers.
const (
	// Backbone is a national service provider peering at the public
	// exchange points.
	Backbone Tier = iota
	// Regional is a mid-level provider buying transit from backbones.
	Regional
	// Customer is an edge AS: campus, corporate network, or small ISP.
	Customer
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case Backbone:
		return "backbone"
	case Regional:
		return "regional"
	case Customer:
		return "customer"
	}
	return fmt.Sprintf("Tier(%d)", int(t))
}

// VendorProfile captures the router-implementation traits the paper links to
// pathology levels.
type VendorProfile struct {
	// Stateless marks the vendor that keeps no Adj-RIB-Out (WWDup source).
	Stateless bool
	// UnjitteredTimer marks the fixed 30-second interval timer (AADup and
	// periodicity source).
	UnjitteredTimer bool
}

// AS is one autonomous system.
type AS struct {
	ASN  bgp.ASN
	Tier Tier
	// Providers lists upstream transit ASes (empty for backbones).
	Providers []bgp.ASN
	// Prefixes originated by this AS.
	Prefixes []netaddr.Prefix
	// Multihomed marks an AS with more than one provider.
	Multihomed bool
	// Vendor is the router implementation this AS runs.
	Vendor VendorProfile
	// RouterID identifies the AS's border router.
	RouterID netaddr.Addr
	// Aggregates marks that the AS announces its address space as
	// aggregated supernets where possible (hides component instability).
	Aggregates bool
}

// ExchangePoint is one public exchange with a Routing Arbiter route server.
type ExchangePoint struct {
	Name string
	// Peers lists the backbone ASes whose routers peer with the route
	// server here.
	Peers []bgp.ASN
}

// Topology is a generated AS-level Internet.
type Topology struct {
	ASes      map[bgp.ASN]*AS
	Order     []bgp.ASN // deterministic iteration order
	Exchanges []*ExchangePoint
}

// Config parameterizes generation. Zero values select the paper-scale
// defaults via Defaults.
type Config struct {
	// Backbones is the number of national providers (paper: routing tables
	// dominated by six to eight ISPs).
	Backbones int
	// Regionals is the number of mid-tier providers.
	Regionals int
	// Customers is the number of edge ASes.
	Customers int
	// PrefixesPerCustomer draws the per-customer prefix count from
	// 1..2*PrefixesPerCustomer-1 (mean PrefixesPerCustomer).
	PrefixesPerCustomer int
	// MultihomedFrac is the fraction of customer ASes with two providers
	// (paper: more than 25 percent of prefixes multi-homed).
	MultihomedFrac float64
	// StatelessFrac is the fraction of ASes running the stateless vendor.
	StatelessFrac float64
	// UnjitteredFrac is the fraction of ASes with the fixed 30 s timer.
	UnjitteredFrac float64
	// SwampFrac is the fraction of customer prefixes drawn from the
	// unaggregatable pre-CIDR space.
	SwampFrac float64
}

// Defaults fills zero fields with a scaled-down 1996 Internet: ~1300 ASes
// and tens of thousands of prefixes are generated at full scale; tests use
// smaller numbers.
func (c Config) Defaults() Config {
	if c.Backbones == 0 {
		c.Backbones = 8
	}
	if c.Regionals == 0 {
		c.Regionals = 40
	}
	if c.Customers == 0 {
		c.Customers = 1250
	}
	if c.PrefixesPerCustomer == 0 {
		c.PrefixesPerCustomer = 16
	}
	if c.MultihomedFrac == 0 {
		c.MultihomedFrac = 0.27
	}
	if c.StatelessFrac == 0 {
		c.StatelessFrac = 0.35
	}
	if c.UnjitteredFrac == 0 {
		c.UnjitteredFrac = 0.5
	}
	if c.SwampFrac == 0 {
		c.SwampFrac = 0.3
	}
	return c
}

// ExchangeNames are the five measured exchange points, largest first.
var ExchangeNames = []string{"Mae-East", "Sprint", "AADS", "PacBell", "Mae-West"}

// Generate builds a topology from cfg using the given RNG. Generation is
// deterministic for a given seed and configuration.
func Generate(cfg Config, rng *rand.Rand) *Topology {
	cfg = cfg.Defaults()
	t := &Topology{ASes: make(map[bgp.ASN]*AS)}

	nextASN := bgp.ASN(100)
	newAS := func(tier Tier) *AS {
		a := &AS{
			ASN:      nextASN,
			Tier:     tier,
			RouterID: netaddr.Addr(0xc6000000 + uint32(nextASN)), // 198.x router IDs
			Vendor: VendorProfile{
				Stateless:       rng.Float64() < cfg.StatelessFrac,
				UnjitteredTimer: rng.Float64() < cfg.UnjitteredFrac,
			},
		}
		nextASN++
		t.ASes[a.ASN] = a
		t.Order = append(t.Order, a.ASN)
		return a
	}

	// Backbones: big providers with large CIDR blocks, present at every
	// exchange (the biggest at all five, smaller ones at fewer).
	backbones := make([]*AS, cfg.Backbones)
	for i := range backbones {
		b := newAS(Backbone)
		b.Aggregates = true
		backbones[i] = b
	}

	// Address space: each backbone owns one /8-equivalent block carved into
	// customer assignments; the swamp is 192/8-style space handed out as
	// unaggregatable /24s.
	allocators := make([]*netaddr.Allocator, len(backbones))
	for i := range allocators {
		base := netaddr.MustPrefix(netaddr.Addr(uint32(24+i)<<24), 8)
		allocators[i] = netaddr.NewAllocator(base)
		// The backbone announces its aggregate.
		backbones[i].Prefixes = append(backbones[i].Prefixes, base)
	}
	swamp := netaddr.NewAllocator(netaddr.MustParsePrefix("192.0.0.0/8"))

	// Regionals: buy transit from 1-2 backbones.
	regionals := make([]*AS, cfg.Regionals)
	for i := range regionals {
		r := newAS(Regional)
		p1 := backbones[rng.Intn(len(backbones))]
		r.Providers = []bgp.ASN{p1.ASN}
		if rng.Float64() < 0.3 {
			p2 := backbones[rng.Intn(len(backbones))]
			if p2.ASN != p1.ASN {
				r.Providers = append(r.Providers, p2.ASN)
				r.Multihomed = true
			}
		}
		regionals[i] = r
	}

	// Customers: attach to a regional or directly to a backbone; a fraction
	// multihome across two distinct providers; prefixes come from the first
	// provider's backbone block (aggregatable) or the swamp.
	providerPool := make([]*AS, 0, len(backbones)+len(regionals))
	providerPool = append(providerPool, backbones...)
	providerPool = append(providerPool, regionals...)
	for i := 0; i < cfg.Customers; i++ {
		cust := newAS(Customer)
		p1 := providerPool[rng.Intn(len(providerPool))]
		cust.Providers = []bgp.ASN{p1.ASN}
		if rng.Float64() < cfg.MultihomedFrac {
			for tries := 0; tries < 8; tries++ {
				p2 := providerPool[rng.Intn(len(providerPool))]
				if p2.ASN != p1.ASN {
					cust.Providers = append(cust.Providers, p2.ASN)
					cust.Multihomed = true
					break
				}
			}
		}
		nPrefix := 1 + rng.Intn(2*cfg.PrefixesPerCustomer-1)
		for j := 0; j < nPrefix; j++ {
			var p netaddr.Prefix
			var err error
			if cust.Multihomed || rng.Float64() < cfg.SwampFrac {
				// Multihomed prefixes must stay globally visible, so they
				// are never drawn from an aggregatable provider block.
				p, err = swamp.Alloc(24)
			} else {
				bb := t.backboneAncestor(p1.ASN, rng)
				p, err = allocators[bb].Alloc(22 + rng.Intn(3))
			}
			if err != nil {
				break // block exhausted; customer gets fewer prefixes
			}
			cust.Prefixes = append(cust.Prefixes, p)
		}
	}

	// Exchange points: the largest hosts every backbone; the rest host
	// decreasing subsets. (The real Mae-East hosted 60+ providers; peer
	// counts here scale with cfg.Backbones.)
	for i, name := range ExchangeNames {
		ep := &ExchangePoint{Name: name}
		for j, b := range backbones {
			// Backbone j attends exchange i if j's footprint covers it:
			// every backbone at exchange 0, then progressively fewer.
			if j < len(backbones)-i || rng.Float64() < 0.5 {
				ep.Peers = append(ep.Peers, b.ASN)
			}
		}
		sort.Slice(ep.Peers, func(a, b int) bool { return ep.Peers[a] < ep.Peers[b] })
		t.Exchanges = append(t.Exchanges, ep)
	}
	return t
}

// backboneAncestor resolves the index of a backbone above the given provider
// AS (itself if already a backbone).
func (t *Topology) backboneAncestor(asn bgp.ASN, rng *rand.Rand) int {
	a := t.ASes[asn]
	for a.Tier != Backbone {
		a = t.ASes[a.Providers[rng.Intn(len(a.Providers))]]
	}
	// Backbones were created first in Order.
	for i, o := range t.Order {
		if o == a.ASN {
			return i
		}
	}
	panic("topology: backbone not in order")
}

// Backbones returns the backbone ASes in creation order.
func (t *Topology) Backbones() []*AS {
	var out []*AS
	for _, asn := range t.Order {
		if a := t.ASes[asn]; a.Tier == Backbone {
			out = append(out, a)
		}
	}
	return out
}

// Exchange returns the named exchange point, or nil.
func (t *Topology) Exchange(name string) *ExchangePoint {
	for _, e := range t.Exchanges {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// TotalPrefixes counts all originated prefixes.
func (t *Topology) TotalPrefixes() int {
	n := 0
	for _, a := range t.ASes {
		n += len(a.Prefixes)
	}
	return n
}

// Route is one (peer, prefix, path) tuple visible at an exchange point's
// route server.
type Route struct {
	// PeerAS is the backbone whose router announces the route to the route
	// server.
	PeerAS bgp.ASN
	// PeerAddr is that router's address.
	PeerAddr netaddr.Addr
	// Prefix is the destination.
	Prefix netaddr.Prefix
	// Path is the full AS path from the peer down to the origin.
	Path bgp.ASPath
	// Origin is the originating AS.
	Origin bgp.ASN
}

// RoutesAt computes the steady-state routing table a route server at the
// named exchange point holds: for every prefix, one route via each backbone
// ancestor of the origin that peers at this exchange. Multihomed origins
// thus contribute multiple Prefix+AS pairs — the paper's Figure 10 census.
func (t *Topology) RoutesAt(name string) []Route {
	ep := t.Exchange(name)
	if ep == nil {
		return nil
	}
	atExchange := make(map[bgp.ASN]bool, len(ep.Peers))
	for _, p := range ep.Peers {
		atExchange[p] = true
	}
	var out []Route
	for _, asn := range t.Order {
		a := t.ASes[asn]
		for _, prefix := range a.Prefixes {
			for _, path := range t.PathsToBackbones(asn) {
				peer, _ := path.First()
				if !atExchange[peer] {
					continue
				}
				out = append(out, Route{
					PeerAS:   peer,
					PeerAddr: t.ASes[peer].RouterID,
					Prefix:   prefix,
					Path:     path,
					Origin:   asn,
				})
			}
		}
	}
	return out
}

// PathsToBackbones enumerates the distinct AS paths from each backbone
// ancestor down to origin (paths are in announcement direction: backbone
// first, origin last). Single-homed chains yield one path.
func (t *Topology) PathsToBackbones(origin bgp.ASN) []bgp.ASPath {
	var out []bgp.ASPath
	seen := make(map[string]bool)
	var walk func(asn bgp.ASN, suffix []bgp.ASN)
	walk = func(asn bgp.ASN, suffix []bgp.ASN) {
		chain := append([]bgp.ASN{asn}, suffix...)
		a := t.ASes[asn]
		if a.Tier == Backbone {
			p := bgp.PathFromASNs(chain...)
			if k := p.Key(); !seen[k] {
				seen[k] = true
				out = append(out, p)
			}
			return
		}
		for _, prov := range a.Providers {
			walk(prov, chain)
		}
	}
	walk(origin, nil)
	return out
}
