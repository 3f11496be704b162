package workload

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/detect"
	"instability/internal/topology"
)

// Generator synthesizes the observed update stream for one scenario.
type Generator struct {
	cfg  Config
	rng  *rand.Rand
	topo *topology.Topology

	routes []*routeState
	// byPrefix groups route indexes by prefix (for multihoming growth and
	// upgrade incidents).
	byPrefix map[string][]int
	// statelessPeers are exchange peers running the stateless vendor; they
	// are the source of spurious withdrawals for prefixes they never
	// announced.
	statelessPeers []peerInfo

	stats Stats

	// Per-day scratch buffers, reused across generateDay calls so steady-
	// state emission does not reallocate the day's record and event slices.
	// None of this affects the RNG call sequence: reuse changes where bytes
	// land, never how many variates are drawn.
	dayBuf     []collector.Record
	cumBuf     []float64
	eventBuf   []pendingEvent
	propensity map[bgp.ASN]float64

	// advRng drives the adversarial scenarios only (nil unless one is
	// configured), so scripting an attack never perturbs the background
	// stream's RNG sequence. truths collects the labeled ground-truth
	// intervals those scenarios emit.
	advRng *rand.Rand
	truths []detect.Truth
}

// pendingEvent is one drawn-but-not-yet-expanded instability event.
type pendingEvent struct {
	idx    int
	t      time.Time
	policy bool
}

type peerInfo struct {
	as   bgp.ASN
	addr topology.AS // unused fields kept small; we only need ASN+router id
}

// routeState tracks one (peer, prefix) route's current announced state.
type routeState struct {
	route    topology.Route
	vendor   topology.VendorProfile
	variants []bgp.ASPath
	cur      int
	up       bool
	policyC  uint16
	// attrsCache holds the Attrs for the current (cur, policyC) pair, its
	// path one of variants. Records share it read-only; it is rebuilt only
	// when the variant or policy counter moves, so steady duplicate
	// announcements emit with zero allocations.
	attrsCache  bgp.Attrs
	attrsCur    int
	attrsPolicy uint16
	attrsOK     bool
}

// Stats summarizes a run.
type Stats struct {
	Records      int
	Days         int
	OutageDays   map[int]bool
	FloodRecords int
	// AdversaryRecords counts records emitted by adversarial scenarios.
	AdversaryRecords int
}

// New builds a generator (and its topology) from cfg.
func New(cfg Config) (*Generator, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	topo := topology.Generate(cfg.Topology, rng)
	if topo.Exchange(cfg.Exchange) == nil {
		return nil, fmt.Errorf("workload: unknown exchange %q", cfg.Exchange)
	}
	g := &Generator{
		cfg:      cfg,
		rng:      rng,
		topo:     topo,
		byPrefix: make(map[string][]int),
		stats:    Stats{OutageDays: make(map[int]bool)},
	}
	for _, r := range topo.RoutesAt(cfg.Exchange) {
		vendor := topo.ASes[r.PeerAS].Vendor
		st := &routeState{
			route:  r,
			vendor: vendor,
			variants: []bgp.ASPath{
				r.Path,
				r.Path.Prepend(r.PeerAS), // single prepend variant
				r.Path.Prepend(r.PeerAS).Prepend(r.PeerAS), // double prepend
			},
		}
		g.routes = append(g.routes, st)
		g.byPrefix[r.Prefix.String()] = append(g.byPrefix[r.Prefix.String()], len(g.routes)-1)
	}
	for _, p := range topo.Exchange(cfg.Exchange).Peers {
		if topo.ASes[p].Vendor.Stateless {
			g.statelessPeers = append(g.statelessPeers, peerInfo{as: p, addr: *topo.ASes[p]})
		}
	}
	for _, inc := range cfg.Incidents {
		if inc.Kind.adversarial() {
			g.advRng = rand.New(rand.NewSource(cfg.Seed ^ advSeedMix))
			break
		}
	}
	return g, nil
}

// GroundTruth returns the labeled anomaly intervals emitted by the
// adversarial scenarios generated so far (complete after Run).
func (g *Generator) GroundTruth() []detect.Truth {
	out := make([]detect.Truth, len(g.truths))
	copy(out, g.truths)
	return out
}

// Topology exposes the generated topology.
func (g *Generator) Topology() *topology.Topology { return g.topo }

// Routes returns the number of (peer, prefix) routes at the exchange.
func (g *Generator) Routes() int { return len(g.routes) }

// Run generates the scenario, delivering records in timestamp order to
// onRecord and calling onDayEnd after each simulated day. Either callback
// may be nil.
func (g *Generator) Run(onRecord func(collector.Record), onDayEnd func(day int, end time.Time)) Stats {
	st, _ := g.RunContext(context.Background(), onRecord, onDayEnd)
	return st
}

// RunContext is Run that stops between days once ctx is cancelled,
// returning ctx's error with the statistics of the days it completed.
func (g *Generator) RunContext(ctx context.Context, onRecord func(collector.Record), onDayEnd func(day int, end time.Time)) (Stats, error) {
	emitDay := func(day int, recs []collector.Record) {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
		for _, r := range recs {
			g.stats.Records++
			if onRecord != nil {
				onRecord(r)
			}
		}
	}

	for day := 0; day < g.cfg.Days; day++ {
		if err := ctx.Err(); err != nil {
			g.stats.Days = day
			return g.stats, err
		}
		recs := g.generateDay(day)
		emitDay(day, recs)
		if onDayEnd != nil {
			onDayEnd(day, g.cfg.Start.AddDate(0, 0, day+1))
		}
	}
	g.stats.Days = g.cfg.Days
	return g.stats, nil
}

// announce emits an announcement record for route st with its current
// variant and policy value.
func (g *Generator) announce(st *routeState, t time.Time) collector.Record {
	st.up = true
	if !st.attrsOK || st.attrsCur != st.cur || st.attrsPolicy != st.policyC {
		attrs := bgp.Attrs{
			Origin:  bgp.OriginIGP,
			Path:    st.variants[st.cur],
			NextHop: st.route.PeerAddr,
		}
		if st.policyC > 0 {
			attrs.Communities = []bgp.Community{bgp.Community(uint32(st.route.PeerAS)<<16 | uint32(st.policyC))}
		}
		st.attrsCache = attrs
		st.attrsCur, st.attrsPolicy, st.attrsOK = st.cur, st.policyC, true
	}
	return collector.Record{
		Time: t, Type: collector.Announce,
		PeerAS: st.route.PeerAS, PeerAddr: st.route.PeerAddr,
		Prefix: st.route.Prefix, Attrs: st.attrsCache,
	}
}

func (g *Generator) withdraw(st *routeState, t time.Time) collector.Record {
	st.up = false
	return collector.Record{
		Time: t, Type: collector.Withdraw,
		PeerAS: st.route.PeerAS, PeerAddr: st.route.PeerAddr,
		Prefix: st.route.Prefix,
	}
}

// generateDay produces one day of records. The returned slice is valid until
// the next generateDay call: its backing array is reused day over day (the
// records themselves are consumed by value before the next day is built).
func (g *Generator) generateDay(day int) []collector.Record {
	cfg := g.cfg
	dayStart := cfg.Start.AddDate(0, 0, day)
	recs := g.dayBuf[:0]
	defer func() { g.dayBuf = recs[:0] }()

	// Day 0 opens with the initial table transfer.
	if day == 0 {
		t := dayStart
		for _, st := range g.routes {
			recs = append(recs, g.announce(st, t))
			t = t.Add(37 * time.Millisecond)
		}
	}

	// Scripted incidents in effect today.
	var upgrade, flood bool
	var floodMag float64
	var adversaries []Incident
	for _, inc := range cfg.Incidents {
		days := inc.Days
		if days < 1 {
			days = 1
		}
		if day < inc.Day || day >= inc.Day+days {
			continue
		}
		switch inc.Kind {
		case InfrastructureUpgrade:
			upgrade = true
		case PathologicalFlood:
			flood = true
			floodMag = inc.Magnitude
		case CollectorOutage:
			g.stats.OutageDays[day] = true
		default:
			if inc.Kind.adversarial() {
				adversaries = append(adversaries, inc)
			}
		}
	}

	// Usage modulation.
	weekday := dayStart.Weekday()
	dayFactor := math.Exp(cfg.TrendPerDay * float64(day))
	if weekday == time.Saturday || weekday == time.Sunday {
		dayFactor *= cfg.WeekendFactor
	}
	if upgrade {
		dayFactor *= 5
	}
	slotW := g.slotWeights(day, weekday)

	// Multihoming growth: new second paths appear for previously
	// single-homed prefixes (permanently), plus a temporary surge during
	// the upgrade incident.
	growth := int(cfg.MultihomingGrowthPerDay)
	if cfg.MultihomingGrowthPerDay > float64(growth) && g.rng.Float64() < cfg.MultihomingGrowthPerDay-float64(growth) {
		growth++
	}
	if upgrade {
		growth += int(20 * 1.0)
	}
	for i := 0; i < growth; i++ {
		if st := g.addSecondPath(); st != nil {
			recs = append(recs, g.announce(st, g.sampleTime(dayStart, slotW)))
		}
	}

	// Instability is not proportional to an AS's table share: customer
	// behavior, aggregation quality and router vendor make some providers'
	// route sets far noisier than others on any given day (the paper's
	// Figure 6 finds no size correlation). Model this with a heavy-tailed
	// per-peer propensity redrawn daily.
	if g.propensity == nil {
		g.propensity = make(map[bgp.ASN]float64)
	} else {
		clear(g.propensity)
	}
	propensity := g.propensity
	for _, peer := range g.topo.Exchange(cfg.Exchange).Peers {
		propensity[peer] = math.Exp(g.rng.NormFloat64() * 1.1)
	}
	if cap(g.cumBuf) < len(g.routes) {
		g.cumBuf = make([]float64, len(g.routes))
	}
	cum := g.cumBuf[:len(g.routes)]
	total := 0.0
	for i, st := range g.routes {
		total += propensity[st.route.PeerAS]
		cum[i] = total
	}
	pickRoute := func() int {
		r := g.rng.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < r {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	// Draw the day's events first, then expand them in time order so each
	// route's state transitions follow the clock.
	nEvents := g.poisson(cfg.EventsPerRouteDay * float64(len(g.routes)) * dayFactor)
	nPolicy := g.poisson(cfg.PolicyPerRouteDay * float64(len(g.routes)) * dayFactor)
	events := g.eventBuf[:0]
	for i := 0; i < nEvents; i++ {
		idx := pickRoute()
		t := g.quantize(g.routes[idx], g.sampleTime(dayStart, slotW))
		events = append(events, pendingEvent{idx: idx, t: t})
	}
	for i := 0; i < nPolicy; i++ {
		idx := pickRoute()
		t := g.quantize(g.routes[idx], g.sampleTime(dayStart, slotW))
		events = append(events, pendingEvent{idx: idx, t: t, policy: true})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].t.Before(events[j].t) })
	for _, ev := range events {
		st := g.routes[ev.idx]
		if ev.policy {
			if !st.up {
				continue
			}
			st.policyC++
			recs = append(recs, g.announce(st, ev.t))
			continue
		}
		recs = g.eventPattern(st, ev.t, dayStart, recs)
	}
	g.eventBuf = events[:0]

	// Pathological flood (the ISP-I episode): one stateless provider
	// repeatedly withdraws a large set of prefixes it never announced, on a
	// strict 30-second cycle for most of the day.
	if flood && len(g.statelessPeers) > 0 {
		p := g.statelessPeers[g.rng.Intn(len(g.statelessPeers))]
		nPrefixes := len(g.routes) / 3
		cycles := int(120 * floodMag) // repetitions over the day
		before := len(recs)
		for c := 0; c < cycles; c++ {
			base := dayStart.Add(6*time.Hour + time.Duration(c)*(30*time.Second)*time.Duration(1+len(g.routes)/1500))
			for j := 0; j < nPrefixes; j++ {
				st := g.routes[j%len(g.routes)]
				if st.route.PeerAS == p.as {
					continue
				}
				recs = append(recs, collector.Record{
					Time: base.Add(time.Duration(j) * 25 * time.Millisecond), Type: collector.Withdraw,
					PeerAS: p.as, PeerAddr: p.addr.RouterID,
					Prefix: st.route.Prefix,
				})
			}
		}
		g.stats.FloodRecords += len(recs) - before
	}

	// Collector outage: drop records inside the outage window (here the
	// whole day after 06:00, leaving partial data as in the real gaps).
	if g.stats.OutageDays[day] {
		cut := dayStart.Add(6 * time.Hour)
		kept := recs[:0]
		for _, r := range recs {
			if r.Time.Before(cut) {
				kept = append(kept, r)
			}
		}
		recs = kept
	}

	// Adversarial episodes ride on top of (and are never censored by)
	// the background machinery: one scripted episode per active day,
	// each recording its ground-truth interval.
	for _, inc := range adversaries {
		before := len(recs)
		recs = g.adversaryDay(inc, dayStart, recs)
		g.stats.AdversaryRecords += len(recs) - before
	}
	return recs
}

// eventPattern expands one exogenous event into its observed update
// sequence, including pathological amplification, appending onto out.
func (g *Generator) eventPattern(st *routeState, t time.Time, dayStart time.Time, out []collector.Record) []collector.Record {
	cfg := g.cfg
	end := dayStart.Add(24*time.Hour - time.Second)
	clamp := func(x time.Time) time.Time {
		if x.After(end) {
			return end
		}
		return x
	}

	emitWithdraw := func(at time.Time) {
		out = append(out, g.withdraw(st, at))
		// Stateless peers at the exchange relay spurious withdrawals for
		// the withdrawn prefix at their own 30-second timer beat.
		n := g.poisson(cfg.WWDupPerWithdraw)
		for i := 0; i < n && len(g.statelessPeers) > 0; i++ {
			p := g.statelessPeers[g.rng.Intn(len(g.statelessPeers))]
			if p.as == st.route.PeerAS {
				continue
			}
			// Beats stay on the 30 s grid and within the paper's sub-five-
			// minute persistence window.
			beat := time.Duration(1+i%9) * 30 * time.Second
			out = append(out, collector.Record{
				Time: clamp(at.Add(beat)), Type: collector.Withdraw,
				PeerAS: p.as, PeerAddr: p.addr.RouterID,
				Prefix: st.route.Prefix,
			})
		}
	}
	emitAnnounce := func(at time.Time) {
		out = append(out, g.announce(st, at))
		// Unjittered-timer vendors re-send duplicates on the next timer
		// intervals (the A1,A2,A1 artifact).
		if st.vendor.UnjitteredTimer {
			n := g.poisson(cfg.AADupPerAnnounce)
			for i := 0; i < n; i++ {
				dup := g.announce(st, clamp(at.Add(time.Duration(1+i)*30*time.Second)))
				out = append(out, dup)
			}
		}
	}

	if !st.up {
		// The route is currently down; the event restores it.
		emitAnnounce(t)
		return out
	}

	cycles := 1
	if g.rng.Float64() < cfg.FlapEpisodeFrac {
		// A persistent oscillation: the paper reports persistence mostly
		// under five minutes with 30/60 s periodicity.
		cycles = 2 + g.rng.Intn(4)
	}
	period := 30 * time.Second
	if g.rng.Intn(2) == 0 {
		period = 60 * time.Second
	}

	if len(st.variants) > 1 && g.rng.Float64() < 0.35 {
		// Implicit replacement (AADiff): the peer switches path variants in
		// place, possibly several times.
		for c := 0; c < cycles; c++ {
			st.cur = (st.cur + 1) % len(st.variants)
			emitAnnounce(clamp(t.Add(time.Duration(c) * period)))
		}
		return out
	}

	// Explicit outage: withdraw then re-announce. Most recoveries restore
	// the identical route (WADup); some come back on a different variant
	// (WADiff).
	for c := 0; c < cycles; c++ {
		down := clamp(t.Add(time.Duration(c) * 2 * period))
		up := clamp(down.Add(period))
		emitWithdraw(down)
		if g.rng.Float64() < 0.25 {
			st.cur = (st.cur + 1) % len(st.variants)
		}
		emitAnnounce(up)
	}
	return out
}

// addSecondPath promotes a single-homed prefix to multihomed by giving it a
// route via another exchange peer; returns the new route's state or nil when
// no candidate exists.
func (g *Generator) addSecondPath() *routeState {
	peers := g.topo.Exchange(g.cfg.Exchange).Peers
	if len(peers) < 2 {
		return nil
	}
	// Draw a random prefix with exactly one route.
	for tries := 0; tries < 16; tries++ {
		idx := g.rng.Intn(len(g.routes))
		st := g.routes[idx]
		key := st.route.Prefix.String()
		if len(g.byPrefix[key]) != 1 {
			continue
		}
		var newPeer bgp.ASN
		for ptries := 0; ptries < 8; ptries++ {
			p := peers[g.rng.Intn(len(peers))]
			if p != st.route.PeerAS {
				newPeer = p
				break
			}
		}
		if newPeer == 0 {
			return nil
		}
		peerAS := g.topo.ASes[newPeer]
		path := bgp.PathFromASNs(newPeer, st.route.Origin)
		nr := topology.Route{
			PeerAS:   newPeer,
			PeerAddr: peerAS.RouterID,
			Prefix:   st.route.Prefix,
			Path:     path,
			Origin:   st.route.Origin,
		}
		ns := &routeState{
			route:  nr,
			vendor: peerAS.Vendor,
			variants: []bgp.ASPath{
				path,
				path.Prepend(newPeer),
			},
		}
		g.routes = append(g.routes, ns)
		g.byPrefix[key] = append(g.byPrefix[key], len(g.routes)-1)
		return ns
	}
	return nil
}

// slotWeights builds the 144-slot (ten-minute) time-of-day sampling weights:
// the configured diurnal usage curve, a maintenance bump near 10:00 EST, and
// occasional Saturday bursts.
func (g *Generator) slotWeights(_ int, weekday time.Weekday) []float64 {
	w := g.cfg.DiurnalProfile()
	for s := range w {
		h := math.Mod(float64(s)/6.0-5+24, 24) // EST hour
		// Maintenance window ~10:00 EST.
		if h >= 9.75 && h < 10.25 {
			w[s] *= g.cfg.MaintenanceBoost
		}
	}
	if weekday == time.Saturday && g.rng.Float64() < g.cfg.SaturdaySpikeProb {
		spikeSlot := g.rng.Intn(144)
		for d := 0; d < 3; d++ {
			w[(spikeSlot+d)%144] *= 8
		}
	}
	return w
}

// sampleTime draws a time of day from the slot weights.
func (g *Generator) sampleTime(dayStart time.Time, w []float64) time.Time {
	total := 0.0
	for _, x := range w {
		total += x
	}
	r := g.rng.Float64() * total
	for s, x := range w {
		r -= x
		if r <= 0 {
			within := time.Duration(g.rng.Float64() * float64(10*time.Minute))
			return dayStart.Add(time.Duration(s)*10*time.Minute + within)
		}
	}
	return dayStart.Add(24*time.Hour - time.Second)
}

// quantize snaps event times to the 30-second timer grid for unjittered
// vendors — the origin of the paper's Figure 8 periodicity.
func (g *Generator) quantize(st *routeState, t time.Time) time.Time {
	if !st.vendor.UnjitteredTimer {
		return t
	}
	return t.Truncate(30 * time.Second)
}

// poisson draws a Poisson variate with mean lambda (normal approximation for
// large lambda).
func (g *Generator) poisson(lambda float64) int { return poissonRand(g.rng, lambda) }

func poissonRand(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := lambda + math.Sqrt(lambda)*rng.NormFloat64()
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
