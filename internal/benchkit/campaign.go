package benchkit

import (
	"time"

	"instability/internal/collector"
	"instability/internal/core"
	"instability/internal/workload"
)

// FullDays is the length of the paper-scale campaign, which every length in
// this package is stated against.
const FullDays = 214

// CampaignConfig is workload.DefaultConfig cut to days, its seed (1996)
// kept: the generator's seed also draws the topology, and campaigns of seeds
// 1-10 differ in size by up to 3.7x, which no rate or latency survives
// within a bound worth having. The scripted incidents keep their relative
// position, so a short campaign still carries the upgrade, the flood and the
// outage. small swaps in workload.SmallConfig's topology, for tests.
func CampaignConfig(days int, small bool) workload.Config {
	cfg := workload.DefaultConfig()
	if small {
		cfg.Topology = workload.SmallConfig().Topology
	}
	cfg.Days = days
	if days != FullDays {
		for i := range cfg.Incidents {
			inc := &cfg.Incidents[i]
			inc.Day = inc.Day * days / FullDays
			inc.Days = max(1, inc.Days*days/FullDays)
		}
	}
	return cfg
}

// Campaign is the generated input held in memory: the only thing the
// program under test ever receives.
type Campaign struct {
	Cfg  workload.Config
	Recs []collector.Record
	// DayOff[d]..DayOff[d+1] index the records the generator emitted for
	// simulated day d; len(DayOff) = Days+1.
	DayOff []int
}

// Generate runs the workload generator to completion.
func Generate(cfg workload.Config) (*Campaign, error) {
	g, err := workload.New(cfg)
	if err != nil {
		return nil, err
	}
	c := &Campaign{Cfg: cfg, DayOff: []int{0}}
	g.Run(
		func(rec collector.Record) { c.Recs = append(c.Recs, rec) },
		func(int, time.Time) { c.DayOff = append(c.DayOff, len(c.Recs)) },
	)
	return c, nil
}

// Days is the campaign length.
func (c *Campaign) Days() int { return len(c.DayOff) - 1 }

// Day returns simulated day d's records.
func (c *Campaign) Day(d int) []collector.Record { return c.Recs[c.DayOff[d]:c.DayOff[d+1]] }

// DayStart is the first instant of simulated day d.
func (c *Campaign) DayStart(d int) time.Time { return c.Cfg.Start.AddDate(0, 0, d) }

// Date is the civil date RunScenario closes day d under.
func (c *Campaign) Date(d int) core.Date { return core.DateOf(c.DayStart(d + 1).Add(-time.Second)) }

// scaled maps a length stated against the 214-day campaign onto this one,
// never below floor.
func (c *Campaign) scaled(full, floor int) int {
	return max(floor, (full*c.Days()+FullDays/2)/FullDays)
}
