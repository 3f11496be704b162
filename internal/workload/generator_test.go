package workload

import (
	"math"
	"testing"
	"time"

	"instability/internal/collector"
	"instability/internal/core"
)

// runSmall classifies a small scenario and returns the accumulator plus the
// classifier.
func runSmall(t *testing.T, mutate func(*Config)) (*core.Accumulator, *core.Classifier, *Generator) {
	t.Helper()
	cfg := SmallConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cls := core.NewClassifier()
	acc := core.NewAccumulator()
	var prev time.Time
	g.Run(func(r collector.Record) {
		if r.Time.Before(prev) {
			t.Fatalf("records out of order: %v after %v", r.Time, prev)
		}
		prev = r.Time
		acc.Add(cls.Classify(r))
	}, func(day int, end time.Time) {
		acc.EndDay(cls, core.DateOf(end.Add(-time.Second)))
	})
	return acc, cls, g
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := SmallConfig()
	g1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var recs1 []collector.Record
	g1.Run(func(r collector.Record) { recs1 = append(recs1, r) }, nil)
	g2, _ := New(cfg)
	i := 0
	mismatch := false
	g2.Run(func(r collector.Record) {
		if i >= len(recs1) || recs1[i].String() != r.String() {
			mismatch = true
		}
		i++
	}, nil)
	if mismatch || i != len(recs1) {
		t.Fatalf("same seed produced different streams (len %d vs %d)", len(recs1), i)
	}
	if len(recs1) == 0 {
		t.Fatal("no records")
	}
}

func TestGeneratorUnknownExchange(t *testing.T) {
	cfg := SmallConfig()
	cfg.Exchange = "LINX"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown exchange accepted")
	}
}

func TestPathologyDominatesInstability(t *testing.T) {
	acc, _, _ := runSmall(t, nil)
	tot := acc.TotalCounts()
	instability := tot[core.AADiff] + tot[core.WADiff] + tot[core.WADup]
	pathological := tot[core.AADup] + tot[core.WWDup]
	if pathological <= instability {
		t.Fatalf("pathological %d should dominate instability %d", pathological, instability)
	}
	if tot[core.WWDup] == 0 || tot[core.AADup] == 0 {
		t.Fatalf("missing pathology classes: %v", tot)
	}
	// All instability classes must be represented.
	for _, c := range []core.Class{core.AADiff, core.WADiff, core.WADup} {
		if tot[c] == 0 {
			t.Fatalf("class %v absent: %v", c, tot)
		}
	}
}

func TestMajorityOfRoutesStable(t *testing.T) {
	acc, _, g := runSmall(t, nil)
	// Skip day 0 (initial table transfer skews coverage).
	dates := acc.Dates()
	for _, d := range dates[1:] {
		s := acc.Days[d]
		if s.TotalTable == 0 {
			continue
		}
		wadiff := s.RoutesAffected(func(c *[core.NumClasses]int) bool { return c[core.WADiff] > 0 })
		aadiff := s.RoutesAffected(func(c *[core.NumClasses]int) bool { return c[core.AADiff] > 0 })
		instab := s.RoutesAffected(func(c *[core.NumClasses]int) bool {
			return c[core.WADiff] > 0 || c[core.AADiff] > 0 || c[core.WADup] > 0
		})
		table := float64(s.TotalTable)
		if frac := float64(wadiff) / table; frac > 0.15 {
			t.Errorf("%v: WADiff touched %.0f%% of routes", d, frac*100)
		}
		if frac := float64(aadiff) / table; frac > 0.30 {
			t.Errorf("%v: AADiff touched %.0f%% of routes", d, frac*100)
		}
		if frac := float64(instab) / table; frac > 0.45 {
			t.Errorf("%v: instability touched %.0f%% of routes (want <45%%, paper: >80%% stable)", d, frac*100)
		}
	}
	_ = g
}

func TestThirtySecondPeriodicity(t *testing.T) {
	acc, _, _ := runSmall(t, nil)
	// Figure 8: the 30s and 1m bins dominate the inter-arrival histograms
	// of the pathological classes.
	var wwBins, aaBins [core.NumBins]int
	for _, s := range acc.Days {
		for b := 0; b < core.NumBins; b++ {
			wwBins[b] += s.InterArrival[core.WWDup][b]
			aaBins[b] += s.InterArrival[core.AADup][b]
		}
	}
	check := func(name string, bins [core.NumBins]int) {
		total, mass3060 := 0, 0
		for b, v := range bins {
			total += v
			if b == 2 || b == 3 { // 30s and 1m bins
				mass3060 += v
			}
		}
		if total == 0 {
			t.Fatalf("%s: empty histogram", name)
		}
		if frac := float64(mass3060) / float64(total); frac < 0.4 {
			t.Errorf("%s: 30s+1m bins carry %.0f%% of mass, want >=40%%", name, frac*100)
		}
	}
	check("WWDup", wwBins)
	check("AADup", aaBins)
}

func TestDiurnalCycle(t *testing.T) {
	acc, _, _ := runSmall(t, func(c *Config) { c.Days = 14 })
	_, hourly := acc.HourlySeries()
	if len(hourly) != 14*24 {
		t.Fatalf("hourly len %d", len(hourly))
	}
	// Aggregate by hour of day (UTC): EST night 00-06 is UTC 05-11.
	var byHour [24]float64
	for i, v := range hourly {
		byHour[i%24] += v
	}
	night := byHour[6] + byHour[7] + byHour[8] + byHour[9] // 01:00-05:00 EST
	day := byHour[17] + byHour[18] + byHour[19] + byHour[20]
	if day <= night*1.3 {
		t.Fatalf("no diurnal cycle: day %v vs night %v", day, night)
	}
}

func TestWeekendDip(t *testing.T) {
	acc, _, _ := runSmall(t, func(c *Config) {
		c.Days = 28
		c.SaturdaySpikeProb = 0 // isolate the weekday/weekend contrast
	})
	var weekSum, weekN, wkndSum, wkndN float64
	dates := acc.Dates()
	for _, d := range dates[1:] {
		s := acc.Days[d]
		v := float64(core.Instability(s.Counts))
		if wd := d.Weekday(); wd == time.Saturday || wd == time.Sunday {
			wkndSum += v
			wkndN++
		} else {
			weekSum += v
			weekN++
		}
	}
	if wkndN == 0 || weekN == 0 {
		t.Fatal("no weekend days in sample")
	}
	if wkndSum/wkndN >= 0.8*weekSum/weekN {
		t.Fatalf("weekend %v not below weekday %v", wkndSum/wkndN, weekSum/weekN)
	}
}

func TestPathologicalFloodIncident(t *testing.T) {
	accBase, _, _ := runSmall(t, func(c *Config) { c.Days = 3 })
	accFlood, _, gf := runSmall(t, func(c *Config) {
		c.Days = 3
		c.Incidents = []Incident{{Kind: PathologicalFlood, Day: 1, Magnitude: 1}}
	})
	if gf.Stats().FloodRecords == 0 {
		t.Fatal("flood generated no records")
	}
	baseTotal := accBase.TotalCounts()
	floodTotal := accFlood.TotalCounts()
	if floodTotal[core.WWDup] < 10*baseTotal[core.WWDup] {
		t.Fatalf("flood WWDup %d not an order of magnitude above base %d",
			floodTotal[core.WWDup], baseTotal[core.WWDup])
	}
}

func TestCollectorOutageDropsAfternoon(t *testing.T) {
	acc, _, g := runSmall(t, func(c *Config) {
		c.Days = 3
		c.Incidents = []Incident{{Kind: CollectorOutage, Day: 1, Magnitude: 1}}
	})
	if !g.Stats().OutageDays[1] {
		t.Fatal("outage day not recorded")
	}
	dates := acc.Dates()
	if len(dates) < 3 {
		t.Fatalf("days %v", dates)
	}
	outDay := acc.Days[dates[1]]
	// Slots after 06:00 UTC must be empty on the outage day.
	for slot := 40; slot < core.TenMinBins; slot++ {
		if outDay.TenMinAll[slot] != 0 {
			t.Fatalf("records present in slot %d of outage day", slot)
		}
	}
}

func TestUpgradeIncidentRaisesActivity(t *testing.T) {
	acc, _, _ := runSmall(t, func(c *Config) {
		c.Days = 6
		c.Incidents = []Incident{{Kind: InfrastructureUpgrade, Day: 3, Days: 2, Magnitude: 1}}
	})
	dates := acc.Dates()
	normal := float64(core.Instability(acc.Days[dates[1]].Counts)+core.Instability(acc.Days[dates[2]].Counts)) / 2
	upgrade := float64(core.Instability(acc.Days[dates[3]].Counts)+core.Instability(acc.Days[dates[4]].Counts)) / 2
	if upgrade < 2*normal {
		t.Fatalf("upgrade days %v not elevated above normal %v", upgrade, normal)
	}
}

func TestMultihomingGrowth(t *testing.T) {
	cfg := SmallConfig()
	cfg.Days = 10
	cfg.MultihomingGrowthPerDay = 5
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := g.Routes()
	g.Run(nil, nil)
	after := g.Routes()
	if after <= before {
		t.Fatal("no route growth")
	}
	if growth := after - before; growth < 30 || growth > 70 {
		t.Fatalf("growth %d over 10 days at 5/day", growth)
	}
}

func TestNoSinglePeerDominatesInstability(t *testing.T) {
	acc, _, _ := runSmall(t, func(c *Config) { c.Days = 10 })
	// Figure 6: instability share should roughly track table share; no peer
	// should contribute the majority of instability across the run.
	instByPeer := map[core.PeerKey]int{}
	total := 0
	for _, s := range acc.Days {
		for p, pd := range s.ByPeer {
			v := pd.Counts[core.AADiff] + pd.Counts[core.WADiff] + pd.Counts[core.WADup]
			instByPeer[p] += v
			total += v
		}
	}
	if total == 0 {
		t.Fatal("no instability")
	}
	for p, v := range instByPeer {
		if frac := float64(v) / float64(total); frac > 0.6 {
			t.Fatalf("peer %v contributes %.0f%% of instability", p, frac*100)
		}
	}
}

func TestInstabilityCorrelatesWithUsage(t *testing.T) {
	// §5.1: "the measured routing instability corresponds so closely to the
	// trends seen in Internet bandwidth usage". The generator couples event
	// rates to the usage curve; the classified hourly profile must correlate
	// strongly with the configured diurnal profile.
	acc, _, g := runSmall(t, func(c *Config) { c.Days = 21 })
	_, hourly := acc.HourlySeries()
	var byHour [24]float64
	for i, v := range hourly {
		byHour[i%24] += v
	}
	profile := g.cfg.DiurnalProfile()
	var usageByHour [24]float64
	for s, v := range profile {
		usageByHour[s/6] += v
	}
	r := pearson(byHour[:], usageByHour[:])
	if r < 0.7 {
		t.Fatalf("instability/usage correlation %v, want strong positive", r)
	}
}

func pearson(xs, ys []float64) float64 {
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(len(xs))
	my /= float64(len(ys))
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / mathSqrt(sxx*syy)
}

func mathSqrt(x float64) float64 { return math.Sqrt(x) }

// Stats returns run statistics (valid after Run).
func (g *Generator) Stats() Stats { return g.stats }
