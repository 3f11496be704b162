package workload

import (
	"math"
	"sort"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/detect"
	"instability/internal/netaddr"
)

// advSeedMix decorrelates the adversarial RNG stream from the background
// generator's without touching it: the scenarios are scripted on top of
// an unchanged background for any given seed.
const advSeedMix = 0x5adc0de5adc0de

// adversaryDay emits one scripted episode of inc onto out and records its
// ground-truth interval. All randomness comes from g.advRng.
func (g *Generator) adversaryDay(inc Incident, dayStart time.Time, out []collector.Record) []collector.Record {
	mag := inc.Magnitude
	if mag <= 0 {
		mag = 1
	}
	switch inc.Kind {
	case PrefixHijack:
		return g.hijackDay(mag, dayStart, out)
	case RouteLeak:
		return g.leakDay(mag, dayStart, out)
	case PathPoisoning:
		return g.poisonDay(mag, dayStart, out)
	case SessionResetStorm:
		return g.stormDay(mag, dayStart, out)
	case WormPropagation:
		return g.wormDay(mag, dayStart, out)
	}
	return out
}

// exchangePeers returns the exchange's peer list (sorted by ASN at
// topology generation).
func (g *Generator) exchangePeers() []bgp.ASN {
	return g.topo.Exchange(g.cfg.Exchange).Peers
}

// victimPrefixes picks up to n distinct prefixes that the excluded peer
// neither announces nor originates, returning one representative route
// index per prefix (deterministic: first-seen order over g.routes).
func (g *Generator) victimPrefixes(exclude bgp.ASN, n int) []int {
	out := make([]int, 0, n)
	seen := make(map[netaddr.Prefix]bool)
	for i, st := range g.routes {
		if len(out) >= n {
			break
		}
		r := st.route
		if r.PeerAS == exclude || r.Origin == exclude || seen[r.Prefix] {
			continue
		}
		servedByExcluded := false
		for _, j := range g.byPrefix[r.Prefix.String()] {
			if g.routes[j].route.PeerAS == exclude {
				servedByExcluded = true
				break
			}
		}
		if servedByExcluded {
			continue
		}
		seen[r.Prefix] = true
		out = append(out, i)
	}
	return out
}

// peerRouteCounts tallies routes per exchange peer; maxPeer returns the
// peer carrying the most routes (ties to the lowest ASN).
func (g *Generator) maxPeer() bgp.ASN {
	counts := make(map[bgp.ASN]int)
	for _, st := range g.routes {
		counts[st.route.PeerAS]++
	}
	best := bgp.ASN(0)
	bestN := -1
	peers := append([]bgp.ASN(nil), g.exchangePeers()...)
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, p := range peers {
		if n := counts[p]; n > bestN {
			best, bestN = p, n
		}
	}
	return best
}

// hijackDay scripts a prefix hijack: the attacker announces victim
// prefixes with itself as origin (MOAS conflict), refreshes them on a
// 90-second timer for the episode, then withdraws.
func (g *Generator) hijackDay(mag float64, dayStart time.Time, out []collector.Record) []collector.Record {
	adv := g.advRng
	peers := g.exchangePeers()
	attacker := peers[adv.Intn(len(peers))]
	n := int(24 * mag)
	if n < 6 {
		n = 6
	}
	victims := g.victimPrefixes(attacker, n)
	if len(victims) == 0 {
		return out
	}
	start := dayStart.Add(13*time.Hour + time.Duration(adv.Intn(3600))*time.Second)
	dur := 40 * time.Minute
	addr := g.topo.ASes[attacker].RouterID
	attrs := bgp.Attrs{
		Origin:  bgp.OriginIGP,
		Path:    bgp.PathFromASNs(attacker),
		NextHop: addr,
	}
	for t := start; t.Before(start.Add(dur)); t = t.Add(90 * time.Second) {
		for j, vi := range victims {
			out = append(out, collector.Record{
				Time: t.Add(time.Duration(j) * 40 * time.Millisecond), Type: collector.Announce,
				PeerAS: attacker, PeerAddr: addr,
				Prefix: g.routes[vi].route.Prefix, Attrs: attrs,
			})
		}
	}
	end := start.Add(dur)
	for j, vi := range victims {
		out = append(out, collector.Record{
			Time: end.Add(time.Duration(j) * 40 * time.Millisecond), Type: collector.Withdraw,
			PeerAS: attacker, PeerAddr: addr,
			Prefix: g.routes[vi].route.Prefix,
		})
	}
	g.truths = append(g.truths, detect.Truth{
		Scenario: PrefixHijack.String(),
		Start:    start, End: end.Add(time.Minute),
		Peer: attacker, Prefixes: len(victims),
	})
	return out
}

// leakDay scripts a route leak: the leaker re-announces a large set of
// other peers' routes with itself prepended (origin preserved), then
// withdraws them all half an hour later.
func (g *Generator) leakDay(mag float64, dayStart time.Time, out []collector.Record) []collector.Record {
	adv := g.advRng
	peers := g.exchangePeers()
	leaker := peers[adv.Intn(len(peers))]
	n := int(120 * mag)
	if n < 40 {
		n = 40
	}
	victims := g.victimPrefixes(leaker, n)
	if len(victims) == 0 {
		return out
	}
	start := dayStart.Add(11*time.Hour + time.Duration(adv.Intn(1800))*time.Second)
	spread := 20 * time.Minute
	addr := g.topo.ASes[leaker].RouterID
	for j, vi := range victims {
		r := g.routes[vi].route
		attrs := bgp.Attrs{
			Origin:  bgp.OriginIGP,
			Path:    r.Path.Prepend(leaker),
			NextHop: addr,
		}
		out = append(out, collector.Record{
			Time: start.Add(time.Duration(j) * spread / time.Duration(len(victims))), Type: collector.Announce,
			PeerAS: leaker, PeerAddr: addr,
			Prefix: r.Prefix, Attrs: attrs,
		})
	}
	end := start.Add(30 * time.Minute)
	for j, vi := range victims {
		out = append(out, collector.Record{
			Time: end.Add(time.Duration(j) * 25 * time.Millisecond), Type: collector.Withdraw,
			PeerAS: leaker, PeerAddr: addr,
			Prefix: g.routes[vi].route.Prefix,
		})
	}
	g.truths = append(g.truths, detect.Truth{
		Scenario: RouteLeak.String(),
		Start:    start, End: end.Add(time.Minute),
		Peer: leaker, Prefixes: len(victims),
	})
	return out
}

// poisonDay scripts path poisoning: a handful of one peer's routes cycle
// through their AS-path variants on the 30-second timer — concentrated
// AADiff churn on targeted (peer, prefix) keys.
func (g *Generator) poisonDay(mag float64, dayStart time.Time, out []collector.Record) []collector.Record {
	adv := g.advRng
	target := g.maxPeer()
	var targets []*routeState
	for _, st := range g.routes {
		if st.route.PeerAS == target && len(st.variants) > 1 {
			targets = append(targets, st)
			if len(targets) == 8 {
				break
			}
		}
	}
	if len(targets) == 0 {
		return out
	}
	start := dayStart.Add(16*time.Hour + time.Duration(adv.Intn(1800))*time.Second)
	ticks := int(60 * mag)
	if ticks < 20 {
		ticks = 20
	}
	for c := 0; c < ticks; c++ {
		t := start.Add(time.Duration(c) * 30 * time.Second)
		for j, st := range targets {
			st.cur = (st.cur + 1) % len(st.variants)
			out = append(out, g.announce(st, t.Add(time.Duration(j)*20*time.Millisecond)))
		}
	}
	g.truths = append(g.truths, detect.Truth{
		Scenario: PathPoisoning.String(),
		Start:    start, End: start.Add(time.Duration(ticks) * 30 * time.Second),
		Peer: target, Prefixes: len(targets),
	})
	return out
}

// stormDay scripts a session-reset storm: the busiest peer's session
// bounces repeatedly, each cycle a full withdraw, session down/up pair,
// and identical re-announce of its table.
func (g *Generator) stormDay(mag float64, dayStart time.Time, out []collector.Record) []collector.Record {
	adv := g.advRng
	peer := g.maxPeer()
	var mine []*routeState
	for _, st := range g.routes {
		if st.route.PeerAS == peer {
			mine = append(mine, st)
		}
	}
	if len(mine) == 0 {
		return out
	}
	cycles := int(6 * mag)
	if cycles < 3 {
		cycles = 3
	}
	period := 3 * time.Minute
	start := dayStart.Add(20*time.Hour + time.Duration(adv.Intn(900))*time.Second)
	addr := g.topo.ASes[peer].RouterID
	for c := 0; c < cycles; c++ {
		down := start.Add(time.Duration(c) * period)
		out = append(out, collector.Record{
			Time: down, Type: collector.SessionDown, PeerAS: peer, PeerAddr: addr,
		})
		for j, st := range mine {
			if st.up {
				out = append(out, g.withdraw(st, down.Add(time.Duration(1+j)*30*time.Millisecond)))
			}
		}
		up := down.Add(80 * time.Second)
		out = append(out, collector.Record{
			Time: up, Type: collector.SessionUp, PeerAS: peer, PeerAddr: addr,
		})
		for j, st := range mine {
			out = append(out, g.announce(st, up.Add(time.Duration(1+j)*30*time.Millisecond)))
		}
	}
	g.truths = append(g.truths, detect.Truth{
		Scenario: SessionResetStorm.String(),
		Start:    start, End: start.Add(time.Duration(cycles) * period),
		Peer: peer, Prefixes: len(mine),
	})
	return out
}

// wormDay couples the exchange-wide event rate to a logistic infection
// ramp: extra withdraw/re-announce and path-shift events across random
// routes, densest at the infection midpoint — volume novelty with no
// single responsible peer.
func (g *Generator) wormDay(mag float64, dayStart time.Time, out []collector.Record) []collector.Record {
	adv := g.advRng
	start := dayStart.Add(12*time.Hour + time.Duration(adv.Intn(600))*time.Second)
	dur := 4 * time.Hour
	// Worm outbreaks (Code Red, Nimda, Slammer) drove order-of-magnitude
	// BGP update surges; scale the extra volume accordingly.
	nExtra := poissonRand(adv, g.cfg.EventsPerRouteDay*float64(len(g.routes))*30*mag)
	for i := 0; i < nExtra; i++ {
		// Event times follow the logistic infection curve via its
		// inverse CDF, clamped to the episode.
		u := adv.Float64()
		if u < 1e-9 {
			u = 1e-9
		} else if u > 1-1e-9 {
			u = 1 - 1e-9
		}
		x := 0.5 + math.Log(u/(1-u))/10
		if x < 0 {
			x = 0
		} else if x > 1 {
			x = 1
		}
		t := start.Add(time.Duration(float64(dur) * x))
		st := g.routes[adv.Intn(len(g.routes))]
		switch {
		case !st.up:
			out = append(out, g.announce(st, t))
		case adv.Intn(3) == 0 && len(st.variants) > 1:
			st.cur = (st.cur + 1) % len(st.variants)
			out = append(out, g.announce(st, t))
		default:
			out = append(out, g.withdraw(st, t))
			out = append(out, g.announce(st, t.Add(30*time.Second)))
		}
	}
	g.truths = append(g.truths, detect.Truth{
		Scenario: WormPropagation.String(),
		Start:    start, End: start.Add(dur),
	})
	return out
}
