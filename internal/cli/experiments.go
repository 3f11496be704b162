package cli

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"time"

	"instability"
	"instability/internal/analysis"
	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/damping"
	"instability/internal/events"
	"instability/internal/exchange"
	"instability/internal/igp"
	"instability/internal/netaddr"
	"instability/internal/netsim"
	"instability/internal/report"
	"instability/internal/router"
	"instability/internal/session"
	"instability/internal/synchrony"
	"instability/internal/topology"
	"instability/internal/workload"
)

// The experiments' -id values, in the order -id all runs them: first those
// computed from the simulated campaign, then the mechanism experiments,
// which build their own small worlds.
var (
	campaignExperiments = []string{
		"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "fig10", "volume", "usagecorr", "persistence",
	}
	experimentIDs = append(slices.Clip(campaignExperiments),
		"statefulfix", "flapstorm", "damping", "routeserver", "synchrony", "igploop", "csu", "aggregation",
		"livesim", "exchanges")
)

// Experiments regenerates every table and figure of the paper's evaluation
// from the simulated measurement campaign, plus the mechanism experiments
// behind the §4 and §6 claims (stateless-vendor fix, route flap storm,
// damping, route-server session complexity, timer self-synchronization).
// Interrupted, it says so, finishes the campaign or experiment under way and
// stops there.
//
//	experiments            # full seven-month campaign (~10-60 s)
//	experiments -quick     # five-week campaign for a fast look
//	experiments -id fig5   # one experiment only
func Experiments(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs, lg := setup("experiments", stderr)
	var (
		quick = fs.Bool("quick", false, "run a 5-week campaign instead of 7 months")
		id    = fs.String("id", "all", "experiment id: all, table1, fig1..fig10, volume, usagecorr, persistence, statefulfix, flapstorm, damping, routeserver, synchrony, igploop, csu, aggregation, livesim, exchanges")
		seed  = fs.Int64("seed", 1996, "random seed")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	ids := experimentIDs
	if *id != "all" {
		i := slices.Index(experimentIDs, *id)
		if i < 0 {
			return usagef("unknown experiment %q", *id)
		}
		ids = experimentIDs[i : i+1]
	}
	w := stdout

	cfg := workload.DefaultConfig()
	cfg.Seed = *seed
	if *quick {
		cfg.Days = 35
		cfg.Incidents = []workload.Incident{
			{Kind: workload.PathologicalFlood, Day: 12, Magnitude: 1},
			{Kind: workload.InfrastructureUpgrade, Day: 20, Days: 4, Magnitude: 1},
			{Kind: workload.CollectorOutage, Day: 28, Magnitude: 1},
		}
	}

	var p *instability.Pipeline
	var gen *workload.Generator
	var stats workload.Stats
	episodes := core.NewEpisodeTracker()
	if slices.Contains(campaignExperiments, ids[0]) {
		fmt.Fprintf(w, "running %d-day campaign at %s (seed %d)...\n", cfg.Days, cfg.Exchange, cfg.Seed)
		start := time.Now()
		p = instability.NewPipeline()
		p.Events = episodes.Observe
		done := finishing(ctx, lg, "the campaign")
		var err error
		stats, gen, err = instability.RunScenario(cfg, p)
		done()
		if err != nil {
			return err
		}
		episodes.Flush()
		fmt.Fprintf(w, "generated and classified %s records (%d routes) in %v\n\n",
			report.FormatCount(stats.Records), gen.Routes(), time.Since(start).Round(time.Millisecond))
	}

	// Table 1 is the flood day, Figs 3 and 9 leave out the outage days, and
	// Fig 4 is a calm, complete mid-campaign week starting on a Saturday.
	figs := figureInputs{table1Day: core.DateOf(cfg.Start), outages: map[core.Date]bool{}, fig5Seed: cfg.Seed}
	for _, inc := range cfg.Incidents {
		switch inc.Kind {
		case workload.PathologicalFlood:
			figs.table1Day = core.DateOf(cfg.Start) + core.Date(inc.Day)
		case workload.CollectorOutage:
			for d := 0; d < max(inc.Days, 1); d++ {
				figs.outages[core.DateOf(cfg.Start)+core.Date(inc.Day+d)] = true
			}
		}
	}
	if p != nil {
		dates := p.Acc.Dates()
		figs.fig4Week = dates[len(dates)/2]
		for figs.fig4Week.Weekday() != time.Saturday {
			figs.fig4Week++
		}
	}

	run := func(name string) error {
		switch name {
		case "fig1":
			fmt.Fprintln(w, report.Fig1(gen.Topology()))
		case "volume":
			volumeClaim(w, p, gen)
		case "usagecorr":
			usageCorrClaim(w, p, cfg)
		case "persistence":
			fmt.Fprintln(w, "§4 persistence of instability episodes:")
			fmt.Fprintf(w, "  episodes observed:        %s\n", report.FormatCount(len(episodes.Durations)))
			fmt.Fprintf(w, "  median episode duration:  %v\n", episodes.MedianDuration().Round(time.Second))
			fmt.Fprintf(w, "  share under five minutes: %.0f%% (paper: \"most ... under five minutes\")\n",
				episodes.ShareUnder(5*time.Minute)*100)
		case "statefulfix":
			statefulFix(w)
		case "flapstorm":
			flapstorm(w)
		case "damping":
			dampingClaim(w)
		case "routeserver":
			routeServerClaim(w)
		case "synchrony":
			synchronyClaim(w, cfg.Seed)
		case "igploop":
			igpLoopClaim(w)
		case "csu":
			csuClaim(w)
		case "aggregation":
			aggregationClaim(w)
		case "livesim":
			return liveSimClaim(w)
		case "exchanges":
			return exchangesClaim(w, *seed)
		default:
			printFigure(w, name, p.Acc, p.CensusByDay, figs)
		}
		return nil
	}

	for _, name := range ids {
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(ids) > 1 {
			fmt.Fprintf(w, "================ %s ================\n", name)
		}
		done := finishing(ctx, lg, name)
		err := run(name)
		done()
		if err != nil {
			return err
		}
		if len(ids) > 1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// volumeClaim quantifies §4's headline: daily updates vastly exceed the
// table size, and pathological duplicates dominate.
func volumeClaim(w io.Writer, p *instability.Pipeline, gen *workload.Generator) {
	dates := p.Acc.Dates()
	var best, typical int
	for i, d := range dates {
		n := p.Acc.Days[d].Total()
		if n > best {
			best = n
		}
		if i == len(dates)/2 {
			typical = n
		}
	}
	peak := 0
	for _, d := range dates {
		if ps := p.Acc.Days[d].PeakSecond; ps > peak {
			peak = ps
		}
	}
	routes := gen.Routes()
	tot := p.Acc.TotalCounts()
	instab := core.Instability(tot)
	path := core.Pathological(tot)
	fmt.Fprintln(w, "§4 volume claims:")
	fmt.Fprintf(w, "  routing table:        %s routes\n", report.FormatCount(routes))
	fmt.Fprintf(w, "  typical day:          %s updates (%.0fx the table)\n", report.FormatCount(typical), float64(typical)/float64(routes))
	fmt.Fprintf(w, "  worst day:            %s updates (%.0fx the table)\n", report.FormatCount(best), float64(best)/float64(routes))
	fmt.Fprintf(w, "  peak burst:           %d updates in one second\n", peak)
	fmt.Fprintf(w, "  pathological share:   %.0f%% of classified updates\n", 100*float64(path)/float64(path+instab))
}

// usageCorrClaim quantifies §5.1: "the measured routing instability
// corresponds so closely to the trends seen in Internet bandwidth usage".
func usageCorrClaim(w io.Writer, p *instability.Pipeline, cfg workload.Config) {
	_, hourly := p.Acc.HourlySeries()
	var instByHour, usageByHour [24]float64
	for i, v := range hourly {
		instByHour[i%24] += v
	}
	for s, v := range cfg.DiurnalProfile() {
		usageByHour[s/6] += v
	}
	var xs, ys []float64
	for h := 0; h < 24; h++ {
		xs = append(xs, instByHour[h])
		ys = append(ys, usageByHour[h])
	}
	r := analysis.Correlation(xs, ys)
	fmt.Fprintln(w, "§5.1 instability vs network usage:")
	fmt.Fprintf(w, "  Pearson correlation of hourly instability with the usage curve: %+.2f\n", r)
}

// statefulFix reruns the exchange-point episode with the stateless vendor
// before and after the software update (§4.2's 2M -> 1905 withdrawals).
func statefulFix(w io.Writer) {
	episode := func(stateless bool) int {
		sim := events.New(7)
		cls := core.NewClassifier()
		ww := 0
		pt := exchange.New(sim, exchange.Config{Name: "AADS", Sink: func(r collector.Record) {
			if cls.Classify(r).Class == core.WWDup {
				ww++
			}
		}})
		ispX := router.New(sim, router.Config{AS: 690, ID: 1, Session: session.Config{MRAI: time.Second, CompareLastSent: true}})
		ispY := router.New(sim, router.Config{AS: 701, ID: 2, Session: session.Config{MRAI: time.Second, Stateless: stateless, CompareLastSent: !stateless}})
		pt.AttachClient(ispX, 5*time.Millisecond)
		pt.AttachClient(ispY, 5*time.Millisecond)
		sim.RunFor(10 * time.Second)
		for i := 0; i < 50; i++ {
			prefix := netaddr.MustPrefix(netaddr.Addr(0xc02a0000+uint32(i)<<8), 24)
			ispX.Originate(prefix, bgp.OriginIGP)
			sim.RunFor(time.Minute)
			ispX.WithdrawOrigin(prefix)
			sim.RunFor(time.Minute)
		}
		return ww
	}
	before := episode(true)
	after := episode(false)
	fmt.Fprintln(w, "§4.2 stateless-vendor fix (WWDups at the route server across 50 flaps):")
	fmt.Fprintf(w, "  stateless implementation: %d\n", before)
	fmt.Fprintf(w, "  after stateful update:    %d\n", after)
}

// flapstorm summarizes the §3 storm mechanism.
func flapstorm(w io.Writer) {
	sim := events.New(42)
	hub := router.New(sim, router.Config{
		AS: 200, ID: 2, Arch: router.RouteCache,
		CPU: router.CPUModel{
			PerUpdate: 8 * time.Millisecond, PerCacheMiss: time.Millisecond,
			CrashBacklog: 45 * time.Second, RebootTime: 2 * time.Minute,
		},
		Session: session.Config{MRAI: 0, HoldTime: 30 * time.Second},
	})
	feeder := router.New(sim, router.Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0, Stateless: true}})
	bystander := router.New(sim, router.Config{AS: 300, ID: 3, Session: session.Config{MRAI: 0, HoldTime: 30 * time.Second}})
	router.Connect(sim, feeder, hub, time.Millisecond)
	hb := router.Connect(sim, hub, bystander, time.Millisecond)
	sim.RunFor(5 * time.Second)
	var i int
	blaster := sim.Every(4*time.Millisecond, func() {
		p := netaddr.MustPrefix(netaddr.Addr(0x0a000000+uint32(i/2%2000)*256), 24)
		if i%2 == 0 {
			feeder.Originate(p, bgp.OriginIGP)
		} else {
			feeder.WithdrawOrigin(p)
		}
		i++
	})
	sim.RunFor(5 * time.Minute)
	blaster.Stop()
	sim.RunFor(15 * time.Minute)
	fmt.Fprintln(w, "§3 route flap storm (250 updates/s through a route-caching hub):")
	fmt.Fprintf(w, "  hub crashes:                 %d\n", hub.Metrics().Crashes)
	fmt.Fprintf(w, "  bystander session drops:     %d (collateral damage)\n", bystander.Metrics().SessionDrops)
	fmt.Fprintf(w, "  hub cache invalidations:     %s\n", report.FormatCount(hub.Metrics().CacheInvalidations))
	fmt.Fprintf(w, "  recovered after storm:       %v\n", hb.Established())
}

// dampingClaim runs the damping ablation.
func dampingClaim(w io.Writer) {
	run := func(withDamping bool) (processed, suppressed int, delayed time.Duration) {
		sim := events.New(11)
		cfg := router.Config{AS: 200, ID: 2, Session: session.Config{MRAI: 0}}
		if withDamping {
			d := damping.DefaultConfig()
			cfg.Damping = &d
		}
		r := router.New(sim, cfg)
		feeder := router.New(sim, router.Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0}})
		router.Connect(sim, feeder, r, time.Millisecond)
		sim.RunFor(5 * time.Second)
		prefix := netaddr.MustParsePrefix("192.42.113.0/24")
		for i := 0; i < 10; i++ {
			feeder.Originate(prefix, bgp.OriginIGP)
			sim.RunFor(30 * time.Second)
			feeder.WithdrawOrigin(prefix)
			sim.RunFor(30 * time.Second)
		}
		feeder.Originate(prefix, bgp.OriginIGP)
		sim.RunFor(time.Second)
		waited := time.Duration(0)
		for waited < 3*time.Hour {
			if _, _, ok := r.RIB().Best(prefix); ok {
				break
			}
			sim.RunFor(time.Minute)
			waited += time.Minute
		}
		return r.Metrics().UpdatesProcessed, r.Metrics().DampedUpdates, waited
	}
	p1, s1, d1 := run(false)
	p2, s2, d2 := run(true)
	fmt.Fprintln(w, "§3 route flap damping ablation (10 one-minute flaps, then a legitimate announce):")
	fmt.Fprintf(w, "  without damping: %d processed, %d suppressed, reachable after %v\n", p1, s1, d1)
	fmt.Fprintf(w, "  with damping:    %d processed, %d suppressed, reachable after %v (the artificial delay)\n", p2, s2, d2)
}

// routeServerClaim prints the O(N^2) vs O(N) peering session counts.
func routeServerClaim(w io.Writer) {
	fmt.Fprintln(w, "§3 route server session complexity:")
	fmt.Fprintf(w, "  %-8s %-12s %s\n", "peers", "full mesh", "route server")
	for _, n := range []int{10, 30, 60, 100} {
		fmt.Fprintf(w, "  %-8d %-12d %d\n", n, exchange.BilateralSessions(n), exchange.RouteServerSessions(n))
	}
}

// igpLoopClaim demonstrates the §4.2 IGP interaction hypothesis: mutual
// redistribution between two routing domains creates an undetectable ghost
// route unless tag filtering is configured.
func igpLoopClaim(w io.Writer) {
	run := func(filtered bool) (reachedB, ghost bool) {
		sim := events.New(21)
		a := igp.NewNetwork(sim)
		b := igp.NewNetwork(sim)
		a0 := a.AddNode(10)
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
		const tagAB, tagBA = 100, 200
		drs := []*igp.DomainRedistributor{
			igp.NewDomainRedistributor(sim, ax, bx, tagAB, 0),
			igp.NewDomainRedistributor(sim, ay, by, tagAB, 20*time.Second),
			igp.NewDomainRedistributor(sim, bx, ax, tagBA, 10*time.Second),
			igp.NewDomainRedistributor(sim, by, ay, tagBA, 25*time.Second),
		}
		if filtered {
			for _, d := range drs {
				d.FilterTags[tagAB] = true
				d.FilterTags[tagBA] = true
			}
		}
		p := netaddr.MustParsePrefix("192.42.113.0/24")
		a0.AnnounceExternal(p, igp.External{Metric: 1})
		sim.RunFor(3 * time.Minute)
		_, reachedB = b.Node(10).Route(p)
		a0.WithdrawExternal(p)
		sim.RunFor(30 * time.Minute)
		_, ghost = b.Node(10).Route(p)
		return reachedB, ghost
	}
	r1, g1 := run(false)
	r2, g2 := run(true)
	fmt.Fprintln(w, "§4.2 IGP mutual-redistribution loop (route tags are the fix):")
	fmt.Fprintf(w, "  without tag filtering: propagated=%v, ghost persists 30 minutes after withdrawal=%v\n", r1, g1)
	fmt.Fprintf(w, "  with tag filtering:    propagated=%v, ghost persists=%v\n", r2, g2)
}

// csuClaim demonstrates the CSU clock-drift hypothesis: a misconfigured pair
// beats at SlipBudget/drift and turns a customer circuit into a metronome of
// withdrawals.
func csuClaim(w io.Writer) {
	cfg := router.DefaultCSU()
	fmt.Fprintln(w, "§4.2 CSU clock drift (misconfigured clock sources on a leased line):")
	fmt.Fprintf(w, "  drift %.0f ppm, slip budget %v -> carrier loss every %v\n",
		cfg.DriftPPM, cfg.SlipBudget, cfg.Period())
	sim := events.New(43)
	cust := router.New(sim, router.Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0, ConnectRetry: 5 * time.Second}})
	border := router.New(sim, router.Config{AS: 200, ID: 2, Session: session.Config{MRAI: 0, ConnectRetry: 5 * time.Second}})
	up := router.New(sim, router.Config{AS: 300, ID: 3, Session: session.Config{MRAI: 0}})
	custLink := router.Connect(sim, cust, border, time.Millisecond)
	router.Connect(sim, border, up, time.Millisecond)
	sim.RunFor(5 * time.Second)
	cust.Originate(netaddr.MustParsePrefix("192.42.113.0/24"), bgp.OriginIGP)
	sim.RunFor(5 * time.Second)
	csu := router.AttachCSU(sim, custLink, router.CSUConfig{DriftPPM: 2, SlipBudget: 120 * time.Microsecond, Resync: time.Second})
	sim.RunFor(10 * time.Minute)
	s := up.Session(200, 2)
	fmt.Fprintf(w, "  10 simulated minutes at a 60s beat: %d carrier losses, upstream saw %d withdrawals, %d announcements\n",
		csu.Slips, s.Stats().WdReceived, s.Stats().AnnReceived)
}

// exchangesClaim checks §5's representativeness statement: the class mix
// measured at Mae-East matches the other exchange points.
func exchangesClaim(w io.Writer, seed int64) error {
	fmt.Fprintln(w, "§5 cross-exchange representativeness (two simulated weeks each):")
	fmt.Fprintf(w, "  %-9s %8s %8s %8s %8s %8s  %s\n", "exchange", "AADiff", "WADiff", "WADup", "AADup", "WWDup", "pathological share")
	for _, name := range topology.ExchangeNames {
		cfg := workload.SmallConfig()
		cfg.Days = 14
		cfg.Seed = seed
		cfg.Exchange = name
		p := instability.NewPipeline()
		if _, _, err := instability.RunScenario(cfg, p); err != nil {
			return err
		}
		tot := p.Acc.TotalCounts()
		instab := core.Instability(tot)
		path := core.Pathological(tot)
		fmt.Fprintf(w, "  %-9s %8d %8d %8d %8d %8d  %.0f%%\n", name,
			tot[core.AADiff], tot[core.WADiff], tot[core.WADup], tot[core.AADup], tot[core.WWDup],
			100*float64(path)/float64(path+instab))
	}
	return nil
}

// liveSimClaim cross-validates the statistical workload generator against a
// fully live network: every AS instantiated as a real simulated router with
// its vendor profile, CSU oscillators on half the customer circuits, and the
// route server collecting through actual protocol execution. The classified
// shape must match the campaign's.
func liveSimClaim(w io.Writer) error {
	cls := core.NewClassifier()
	acc := core.NewAccumulator()
	s, err := netsim.Build(netsim.Config{
		Topology: topology.Config{
			Backbones: 4, Regionals: 4, Customers: 24,
			PrefixesPerCustomer: 2, MultihomedFrac: 0.3,
			StatelessFrac: 0.4, UnjitteredFrac: 0.5, SwampFrac: 0.3,
		},
		Seed:    1996,
		CSUFrac: 0.5,
		Sink:    func(r collector.Record) { acc.Add(cls.Classify(r)) },
	})
	if err != nil {
		return err
	}
	s.Settle(30*time.Second, 5*time.Minute)
	s.Run(time.Hour)
	tot := acc.TotalCounts()
	var on3060, totalIA int
	for _, day := range acc.Days {
		for c := 0; c < core.NumClasses; c++ {
			for b, v := range day.InterArrival[c] {
				totalIA += v
				if b == 2 || b == 3 {
					on3060 += v
				}
			}
		}
	}
	fmt.Fprintln(w, "live network cross-validation (every AS a real simulated router, 1h):")
	fmt.Fprintf(w, "  routers: %d, links: %d (established %d), route server table: %d prefixes\n",
		len(s.Routers), len(s.Links), s.EstablishedLinks(), s.Point.RouteServer().RIB().Len())
	fmt.Fprintf(w, "  classified: AADiff %d, WADiff %d, WADup %d, AADup %d, WWDup %d, Other %d\n",
		tot[core.AADiff], tot[core.WADiff], tot[core.WADup], tot[core.AADup], tot[core.WWDup], tot[core.Other])
	if totalIA > 0 {
		fmt.Fprintf(w, "  30s+1m inter-arrival share: %.0f%% (CSU beats + 30s MRAI timers)\n",
			100*float64(on3060)/float64(totalIA))
	}
	return nil
}

// aggregationClaim quantifies §4.1: a flapping customer circuit is invisible
// upstream when its prefix lives inside a provider aggregate.
func aggregationClaim(w io.Writer) {
	run := func(aggregate bool) int {
		sim := events.New(51)
		provider := router.New(sim, router.Config{AS: 200, ID: 2, Session: session.Config{MRAI: 0, CompareLastSent: true}})
		if aggregate {
			provider.ConfigureAggregate(router.AggregateConfig{
				Supernet:           netaddr.MustParsePrefix("198.108.60.0/22"),
				SuppressComponents: true,
			})
		}
		flappy := router.New(sim, router.Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0}})
		steady := router.New(sim, router.Config{AS: 110, ID: 11, Session: session.Config{MRAI: 0}})
		up := router.New(sim, router.Config{AS: 300, ID: 3, Session: session.Config{MRAI: 0}})
		router.Connect(sim, flappy, provider, time.Millisecond)
		router.Connect(sim, steady, provider, time.Millisecond)
		router.Connect(sim, provider, up, time.Millisecond)
		sim.RunFor(5 * time.Second)
		steady.Originate(netaddr.MustParsePrefix("198.108.61.0/24"), bgp.OriginIGP)
		sim.RunFor(5 * time.Second)
		base := up.Session(200, 2).Stats().UpdatesReceived
		for i := 0; i < 20; i++ {
			flappy.Originate(netaddr.MustParsePrefix("198.108.60.0/24"), bgp.OriginIGP)
			sim.RunFor(10 * time.Second)
			flappy.WithdrawOrigin(netaddr.MustParsePrefix("198.108.60.0/24"))
			sim.RunFor(10 * time.Second)
		}
		return up.Session(200, 2).Stats().UpdatesReceived - base
	}
	leaked := run(false)
	hidden := run(true)
	fmt.Fprintln(w, "§4.1 aggregation ablation (20 customer flaps behind a provider):")
	fmt.Fprintf(w, "  unaggregated: upstream heard %d updates\n", leaked)
	fmt.Fprintf(w, "  aggregated:   upstream heard %d updates (instability scoped to the AS)\n", hidden)
}

// synchronyClaim runs the Floyd-Jacobson model with and without jitter.
func synchronyClaim(w io.Writer, seed int64) {
	cfg := synchrony.DefaultConfig()
	unjittered := synchrony.Run(cfg, rand.New(rand.NewSource(seed)))
	cfg.JitterFrac = 0.25
	jittered := synchrony.Run(cfg, rand.New(rand.NewSource(seed)))
	fmt.Fprintln(w, "§4.2 timer self-synchronization (Floyd-Jacobson periodic message model):")
	fmt.Fprintf(w, "  unjittered 30s timers: coherence %.2f, synchronized at period %d, cluster share %.0f%%\n",
		unjittered.PhaseCoherence, unjittered.SyncStep, unjittered.MaxClusterShare*100)
	fmt.Fprintf(w, "  25%% jitter:            coherence %.2f, synchronized: %v\n",
		jittered.PhaseCoherence, jittered.SyncStep >= 0)
}
