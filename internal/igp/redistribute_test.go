package igp

import (
	"testing"
	"time"

	"instability/internal/events"
)

// twoDomains builds the two-point mutual redistribution topology: domains A
// and B, routers X and Y present in both, plus a stub node in each domain.
//
//	A: a0 -- ax -- ay      B: bx -- b0 -- by   (X = ax/bx, Y = ay/by)
func twoDomains(sim *events.Sim, filtered bool) (a, b *Network, a0 *Node, drs []*DomainRedistributor) {
	a = NewNetwork(sim)
	b = NewNetwork(sim)
	a0 = a.AddNode(10)
	ax := a.AddNode(1)
	ay := a.AddNode(2)
	a.Link(10, 1, 10)
	a.Link(1, 2, 10)
	a.Link(10, 2, 10)
	bx := b.AddNode(1)
	by := b.AddNode(2)
	b.AddNode(10)
	b.Link(1, 10, 10)
	b.Link(10, 2, 10)
	b.Link(1, 2, 10)

	// Staggered scan phases: independent routers never tick in unison, and
	// the stagger is what lets the two-point loop close.
	const tagAB, tagBA = 100, 200
	xAB := NewDomainRedistributor(sim, ax, bx, tagAB, 0)
	yAB := NewDomainRedistributor(sim, ay, by, tagAB, 20*time.Second)
	xBA := NewDomainRedistributor(sim, bx, ax, tagBA, 10*time.Second)
	yBA := NewDomainRedistributor(sim, by, ay, tagBA, 25*time.Second)
	drs = []*DomainRedistributor{xAB, yAB, xBA, yBA}
	if filtered {
		for _, d := range drs {
			d.FilterTags[tagAB] = true
			d.FilterTags[tagBA] = true
		}
	}
	return a, b, a0, drs
}

func TestMutualRedistributionGhostRoute(t *testing.T) {
	sim := events.New(21)
	_, b, a0, _ := twoDomains(sim, false) // no tag filtering: misconfigured
	p := pfx("192.42.113.0/24")
	a0.AnnounceExternal(p, External{Metric: 1})
	sim.RunFor(3 * time.Minute)
	// The route reaches domain B through the redistribution.
	if _, ok := b.Node(10).Route(p); !ok {
		t.Fatal("route never reached domain B")
	}
	// The origin withdraws — but the mutual injections keep the prefix
	// alive in both domains: the ghost route no AS-path check can see.
	a0.WithdrawExternal(p)
	sim.RunFor(30 * time.Minute)
	if _, ok := b.Node(10).Route(p); !ok {
		t.Fatal("expected the ghost to persist in domain B")
	}
	if r, ok := a0.Route(p); !ok {
		t.Fatal("expected the ghost to persist in domain A")
	} else if r.Origin == a0.ID() {
		t.Fatal("ghost attributed to the (withdrawn) origin")
	}
}

func TestTagFilteringPreventsGhost(t *testing.T) {
	sim := events.New(22)
	_, b, a0, _ := twoDomains(sim, true) // correct configuration
	p := pfx("192.42.113.0/24")
	a0.AnnounceExternal(p, External{Metric: 1})
	sim.RunFor(3 * time.Minute)
	if _, ok := b.Node(10).Route(p); !ok {
		t.Fatal("route never reached domain B")
	}
	a0.WithdrawExternal(p)
	sim.RunFor(5 * time.Minute)
	if _, ok := b.Node(10).Route(p); ok {
		t.Fatal("ghost persisted despite tag filtering")
	}
	if _, ok := a0.Route(p); ok {
		t.Fatal("ghost persisted in domain A despite tag filtering")
	}
}

func TestScanTimerQuantizesUpdatesTo30s(t *testing.T) {
	// A flapping route crosses into the other domain only at scan ticks, so
	// the far side sees changes spaced at multiples of 30 s — one source of
	// the paper's Figure 8 periodicity.
	sim := events.New(25)
	a, b := NewNetwork(sim), NewNetwork(sim)
	origin, ax := a.AddNode(10), a.AddNode(1)
	a.Link(10, 1, 10)
	bx, far := b.AddNode(1), b.AddNode(10)
	b.Link(1, 10, 10)
	NewDomainRedistributor(sim, ax, bx, 100, 0)
	p := pfx("141.213.0.0/16")

	var changes []time.Duration
	seen := false
	probe := sim.Every(time.Second, func() {
		if _, ok := far.Route(p); ok != seen {
			seen = ok
			changes = append(changes, sim.Now().Sub(events.Epoch))
		}
	})
	defer probe.Stop()

	// Flap at awkward, non-aligned times.
	up := false
	flapper := sim.Every(47*time.Second, func() {
		if up {
			origin.WithdrawExternal(p)
		} else {
			origin.AnnounceExternal(p, External{Metric: 5})
		}
		up = !up
	})
	sim.RunFor(20 * time.Minute)
	flapper.Stop()

	if len(changes) < 5 {
		t.Fatalf("only %d changes observed", len(changes))
	}
	for i := 1; i < len(changes); i++ {
		gap := changes[i] - changes[i-1]
		// Allow the 1s probe resolution plus flooding.
		rem := gap % (30 * time.Second)
		if rem > 2*time.Second && rem < 28*time.Second {
			t.Fatalf("change gap %v not on the 30s scan grid", gap)
		}
	}
}
