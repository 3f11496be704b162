package topology

import (
	"math/rand"
	"testing"

	"instability/internal/bgp"
)

func smallConfig() Config {
	return Config{
		Backbones:           6,
		Regionals:           10,
		Customers:           120,
		PrefixesPerCustomer: 4,
		MultihomedFrac:      0.27,
		StatelessFrac:       0.35,
		UnjitteredFrac:      0.5,
		SwampFrac:           0.3,
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t1 := Generate(smallConfig(), rand.New(rand.NewSource(42)))
	t2 := Generate(smallConfig(), rand.New(rand.NewSource(42)))
	if len(t1.Order) != len(t2.Order) {
		t.Fatal("AS counts differ")
	}
	for i := range t1.Order {
		a1, a2 := t1.ASes[t1.Order[i]], t2.ASes[t2.Order[i]]
		if a1.ASN != a2.ASN || a1.Tier != a2.Tier || len(a1.Prefixes) != len(a2.Prefixes) {
			t.Fatalf("AS %d differs between runs", i)
		}
	}
	t3 := Generate(smallConfig(), rand.New(rand.NewSource(43)))
	same := true
	for i := range t1.Order {
		if len(t1.ASes[t1.Order[i]].Prefixes) != len(t3.ASes[t3.Order[i]].Prefixes) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical topologies (suspicious)")
	}
}

func TestGenerateStructure(t *testing.T) {
	topo := Generate(smallConfig(), rand.New(rand.NewSource(1)))
	if len(topo.Backbones()) != 6 {
		t.Fatalf("%d backbones", len(topo.Backbones()))
	}
	if got := len(topo.Order); got != 6+10+120 {
		t.Fatalf("%d ASes", got)
	}
	customers, regionals := 0, 0
	for _, asn := range topo.Order {
		a := topo.ASes[asn]
		switch a.Tier {
		case Customer:
			customers++
			if len(a.Providers) == 0 {
				t.Fatal("customer without provider")
			}
			if a.Multihomed && len(a.Providers) < 2 {
				t.Fatal("multihomed customer with one provider")
			}
			for _, p := range a.Providers {
				pt := topo.ASes[p].Tier
				if pt == Customer {
					t.Fatal("customer providing transit")
				}
			}
		case Regional:
			regionals++
			for _, p := range a.Providers {
				if topo.ASes[p].Tier != Backbone {
					t.Fatal("regional provider must be backbone")
				}
			}
		case Backbone:
			if len(a.Providers) != 0 {
				t.Fatal("backbone with provider")
			}
		}
	}
	if customers != 120 || regionals != 10 {
		t.Fatalf("customers %d regionals %d", customers, regionals)
	}
	if topo.TotalPrefixes() == 0 {
		t.Fatal("no prefixes")
	}
}

func TestMultihomingFraction(t *testing.T) {
	cfg := smallConfig()
	cfg.Customers = 2000
	topo := Generate(cfg, rand.New(rand.NewSource(2)))
	mh := 0
	for _, asn := range topo.Order {
		a := topo.ASes[asn]
		if a.Tier == Customer && a.Multihomed {
			mh++
		}
	}
	frac := float64(mh) / 2000
	if frac < 0.20 || frac > 0.35 {
		t.Fatalf("multihomed fraction %v, want ~0.27", frac)
	}
	if topo.MultihomedPrefixes() == 0 {
		t.Fatal("no multihomed prefixes")
	}
}

func TestPrefixesDisjointPerOrigin(t *testing.T) {
	topo := Generate(smallConfig(), rand.New(rand.NewSource(3)))
	// Customer and swamp prefixes must not collide across ASes (backbone
	// aggregates legitimately cover customer blocks).
	seen := map[string]bgp.ASN{}
	for _, asn := range topo.Order {
		a := topo.ASes[asn]
		if a.Tier == Backbone {
			continue
		}
		for _, p := range a.Prefixes {
			if prev, dup := seen[p.String()]; dup {
				t.Fatalf("prefix %v originated by both %v and %v", p, prev, asn)
			}
			seen[p.String()] = asn
		}
	}
}

func TestExchangesFollowPaper(t *testing.T) {
	topo := Generate(smallConfig(), rand.New(rand.NewSource(4)))
	if len(topo.Exchanges) != 5 {
		t.Fatalf("%d exchanges", len(topo.Exchanges))
	}
	maeEast := topo.Exchange("Mae-East")
	if maeEast == nil {
		t.Fatal("Mae-East missing")
	}
	if len(maeEast.Peers) != 6 {
		t.Fatalf("Mae-East should host every backbone, has %d", len(maeEast.Peers))
	}
	for _, e := range topo.Exchanges {
		if len(e.Peers) == 0 {
			t.Fatalf("exchange %s has no peers", e.Name)
		}
		if len(e.Peers) > len(maeEast.Peers) {
			t.Fatalf("exchange %s larger than Mae-East", e.Name)
		}
	}
	if topo.Exchange("LINX") != nil {
		t.Fatal("unknown exchange should be nil")
	}
}

func TestPathsToBackbones(t *testing.T) {
	topo := Generate(smallConfig(), rand.New(rand.NewSource(5)))
	for _, asn := range topo.Order {
		a := topo.ASes[asn]
		if a.Tier != Customer {
			continue
		}
		paths := topo.PathsToBackbones(asn)
		if len(paths) == 0 {
			t.Fatalf("customer %v unreachable from backbones", asn)
		}
		for _, p := range paths {
			origin, ok := p.Origin()
			if !ok || origin != asn {
				t.Fatalf("path %v does not originate at %v", p, asn)
			}
			first, _ := p.First()
			if topo.ASes[first].Tier != Backbone {
				t.Fatalf("path %v does not start at a backbone", p)
			}
		}
		if a.Multihomed && len(paths) < 2 {
			t.Fatalf("multihomed customer %v has %d paths", asn, len(paths))
		}
	}
}

func TestRoutesAt(t *testing.T) {
	topo := Generate(smallConfig(), rand.New(rand.NewSource(6)))
	routes := topo.RoutesAt("Mae-East")
	if len(routes) == 0 {
		t.Fatal("no routes at Mae-East")
	}
	atEx := map[bgp.ASN]bool{}
	for _, p := range topo.Exchange("Mae-East").Peers {
		atEx[p] = true
	}
	pairSeen := map[string]bool{}
	multipath := 0
	prefixPeers := map[string]map[bgp.ASN]bool{}
	for _, r := range routes {
		if !atEx[r.PeerAS] {
			t.Fatalf("route via %v which does not peer at Mae-East", r.PeerAS)
		}
		first, _ := r.Path.First()
		if first != r.PeerAS {
			t.Fatalf("path %v does not start at peer %v", r.Path, r.PeerAS)
		}
		key := r.Prefix.String() + "|" + r.Path.Key()
		if pairSeen[key] {
			t.Fatalf("duplicate route %s", key)
		}
		pairSeen[key] = true
		pp := prefixPeers[r.Prefix.String()]
		if pp == nil {
			pp = map[bgp.ASN]bool{}
			prefixPeers[r.Prefix.String()] = pp
		}
		pp[r.PeerAS] = true
	}
	for _, pp := range prefixPeers {
		if len(pp) > 1 {
			multipath++
		}
	}
	if multipath == 0 {
		t.Fatal("no multihomed prefixes visible at the exchange")
	}
	if topo.RoutesAt("nowhere") != nil {
		t.Fatal("unknown exchange should yield nil")
	}
}

func TestDefaultsFullScale(t *testing.T) {
	cfg := Config{}.Defaults()
	if cfg.Backbones != 8 || cfg.Customers != 1250 {
		t.Fatalf("defaults %+v", cfg)
	}
	topo := Generate(Config{}, rand.New(rand.NewSource(7)))
	// Paper scale: ~1300 ASes, tens of thousands of prefixes.
	if got := len(topo.Order); got != 8+40+1250 {
		t.Fatalf("AS count %d", got)
	}
	total := topo.TotalPrefixes()
	if total < 10000 {
		t.Fatalf("only %d prefixes at full scale", total)
	}
	mhFrac := float64(topo.MultihomedPrefixes()) / float64(total)
	if mhFrac < 0.15 {
		t.Fatalf("multihomed prefix share %v too low", mhFrac)
	}
	if Customer.String() == "" || Regional.String() == "" || Backbone.String() == "" || Tier(9).String() == "" {
		t.Fatal("tier names")
	}
}

// MultihomedPrefixes counts prefixes originated by multihomed ASes.
func (t *Topology) MultihomedPrefixes() int {
	n := 0
	for _, a := range t.ASes {
		if a.Multihomed {
			n += len(a.Prefixes)
		}
	}
	return n
}
