// Package workload synthesizes the nine-month BGP update stream a Routing
// Arbiter route server would have logged at a public exchange point. The
// generator composes the mechanisms built elsewhere in this library —
// exogenous link failures, multihomed failovers, policy fluctuation,
// stateless-vendor WWDup floods, unjittered-timer AADup oscillation, usage-
// coupled failure rates, maintenance windows, and named incidents — into a
// timestamp-ordered collector.Record stream whose classified shape matches
// the paper's published figures.
//
// The full nine months of Mae-East traffic (billions of raw updates at 1997
// scale) is far beyond what a laptop-scale discrete-event run can push
// through real session machinery, so the generator emits the *observed*
// stream at the collector directly; the micro-mechanisms that justify each
// pattern are validated separately by the live router/session/exchange
// simulations in their own packages. This substitution is documented in
// DESIGN.md.
package workload

import (
	"fmt"
	"math"
	"time"

	"instability/internal/topology"
)

// IncidentKind names a scripted disturbance.
type IncidentKind int

// Incident kinds.
const (
	// PathologicalFlood reproduces the ISP-I episode: one provider's
	// misconfigured stateless routers emit millions of duplicate
	// withdrawals in a day (Table 1, the 30M-update day).
	PathologicalFlood IncidentKind = iota
	// InfrastructureUpgrade reproduces the major ISP upgrade at the end of
	// May 1996: days of elevated instability across the board (the dark
	// vertical band of Figure 3 and the spike of Figure 10).
	InfrastructureUpgrade
	// CollectorOutage drops the collector for part of a day (the white
	// regions of Figure 3 and the gap in Figure 10).
	CollectorOutage

	// The adversarial scenarios below are the detection benchmark suite
	// (ROADMAP "attack & anomaly scenarios"): each active day emits one
	// scripted episode plus a labeled ground-truth interval retrievable
	// via Generator.GroundTruth. They draw from a dedicated RNG, so
	// adding them to a config never perturbs the background stream.

	// PrefixHijack has one exchange peer originate a set of victim
	// prefixes with itself as origin AS (a multi-origin conflict), hold
	// them for the episode, then withdraw.
	PrefixHijack
	// RouteLeak has one peer re-announce a large set of other peers'
	// routes with itself prepended (origin preserved — no MOAS), the
	// classic full-table leak.
	RouteLeak
	// PathPoisoning rapidly oscillates the AS-path variants of a few
	// targeted routes on a 30-second timer: concentrated AADiff churn.
	PathPoisoning
	// SessionResetStorm repeatedly bounces one peer's session: full
	// withdraw of its routes, session down/up, identical re-announce.
	SessionResetStorm
	// WormPropagation couples the exchange-wide event rate to a logistic
	// infection ramp: global volume novelty with no single culprit.
	WormPropagation
)

// String returns the scenario name used in ground-truth labels and CLI
// flags (background incidents use their Go identifier).
func (k IncidentKind) String() string {
	switch k {
	case PathologicalFlood:
		return "flood"
	case InfrastructureUpgrade:
		return "upgrade"
	case CollectorOutage:
		return "outage"
	case PrefixHijack:
		return "hijack"
	case RouteLeak:
		return "leak"
	case PathPoisoning:
		return "poison"
	case SessionResetStorm:
		return "storm"
	case WormPropagation:
		return "worm"
	}
	return fmt.Sprintf("IncidentKind(%d)", int(k))
}

// AdversaryScenarios lists the adversarial kinds in order, keyed by the
// names accepted by ParseScenario and emitted in ground-truth labels.
var AdversaryScenarios = []IncidentKind{
	PrefixHijack, RouteLeak, PathPoisoning, SessionResetStorm, WormPropagation,
}

// ParseScenario resolves an adversarial scenario name ("hijack", "leak",
// "poison", "storm", "worm").
func ParseScenario(name string) (IncidentKind, error) {
	for _, k := range AdversaryScenarios {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("workload: unknown scenario %q (want hijack|leak|poison|storm|worm)", name)
}

// adversarial reports whether the kind is one of the scripted attack
// scenarios.
func (k IncidentKind) adversarial() bool { return k >= PrefixHijack }

// Incident is one scripted disturbance.
type Incident struct {
	Kind IncidentKind
	// Day is the offset from the scenario start (0-based).
	Day int
	// Days is the duration in days (minimum 1).
	Days int
	// Magnitude scales the disturbance (1 = the paper's canonical episode).
	Magnitude float64
}

// Config parameterizes a scenario.
type Config struct {
	// Topology describes the AS-level Internet; zero value uses
	// topology defaults at full scale.
	Topology topology.Config
	// Exchange is the collection point (default "Mae-East").
	Exchange string
	// Start is the first instant of the scenario (default the paper's
	// March 1 1996).
	Start time.Time
	// Days is the scenario length.
	Days int
	// Seed drives all randomness.
	Seed int64

	// EventsPerRouteDay is the mean number of legitimate exogenous events
	// (link failures, circuit flaps, failovers) per route per day before
	// modulation. The paper's point is that observed updates vastly exceed
	// this underlying rate.
	EventsPerRouteDay float64
	// PolicyPerRouteDay is the mean rate of pure policy fluctuation
	// (attribute-only changes) per route per day.
	PolicyPerRouteDay float64
	// FlapEpisodeFrac is the fraction of events that develop into a
	// multi-cycle flap episode with 30/60 s periodicity (CSU oscillation,
	// IGP/BGP interaction) rather than a single clean transition.
	FlapEpisodeFrac float64
	// WWDupPerWithdraw is the mean number of spurious duplicate
	// withdrawals other (stateless) peers emit per observed legitimate
	// withdrawal.
	WWDupPerWithdraw float64
	// AADupPerAnnounce is the mean number of duplicate announcements an
	// unjittered-timer peer emits per legitimate announcement.
	AADupPerAnnounce float64

	// DiurnalAmplitude in [0,1] scales the day/night swing; WeekendFactor
	// scales weekend activity; TrendPerDay is the multiplicative daily
	// growth (the linear trend detrended in Figure 3).
	DiurnalAmplitude float64
	WeekendFactor    float64
	TrendPerDay      float64
	// MaintenanceBoost multiplies the rate during the ~10:00 EST
	// maintenance window (the horizontal line of Figure 3).
	MaintenanceBoost float64
	// SaturdaySpikeProb is the chance a given Saturday carries a localized
	// burst (the paper's "Saturdays often have high amounts of temporally
	// localized instability").
	SaturdaySpikeProb float64

	// MultihomingGrowthPerDay is the number of newly multihomed prefixes
	// added per day (Figure 10's linear growth).
	MultihomingGrowthPerDay float64

	// Incidents scripts named disturbances.
	Incidents []Incident
}

// DefaultConfig returns the paper-scale seven-month Mae-East scenario
// (March through September 1996), sized down so the whole campaign runs in
// seconds: the topology carries a few thousand routes instead of 42,000 and
// rates are set so pathological updates outnumber instability roughly an
// order of magnitude, as observed.
func DefaultConfig() Config {
	return Config{
		Topology: topology.Config{
			Backbones:           8,
			Regionals:           24,
			Customers:           400,
			PrefixesPerCustomer: 6,
		},
		Exchange: "Mae-East",
		Start:    time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC),
		Days:     214, // March 1 .. September 30
		Seed:     1996,

		// Calibrated against §6: a typical day touches under 20% of routes
		// with forwarding instability (3-10% see a WADiff, 5-20% an AADiff,
		// >80% stay stable) while pathological duplicates dominate volume.
		EventsPerRouteDay: 0.15,
		PolicyPerRouteDay: 0.12,
		FlapEpisodeFrac:   0.35,
		WWDupPerWithdraw:  12,
		AADupPerAnnounce:  4,

		DiurnalAmplitude:  0.65,
		WeekendFactor:     0.45,
		TrendPerDay:       0.0035,
		MaintenanceBoost:  3.0,
		SaturdaySpikeProb: 0.4,

		MultihomingGrowthPerDay: 2,

		Incidents: []Incident{
			// The late-May infrastructure upgrade (paper Figure 3/10).
			{Kind: InfrastructureUpgrade, Day: 87, Days: 12, Magnitude: 1},
			// A canonical pathological flood (Table 1's ISP-I analog).
			{Kind: PathologicalFlood, Day: 40, Days: 1, Magnitude: 1},
			// Collector outages produce the missing-data gaps.
			{Kind: CollectorOutage, Day: 120, Days: 2, Magnitude: 1},
		},
	}
}

// SmallConfig returns a one-week scenario on a small topology for tests.
func SmallConfig() Config {
	cfg := DefaultConfig()
	cfg.Topology = topology.Config{
		Backbones:           6,
		Regionals:           8,
		Customers:           80,
		PrefixesPerCustomer: 3,
	}
	cfg.Days = 7
	cfg.Incidents = nil
	return cfg
}

// scenarioMagnitude is the canonical episode magnitude per scenario in
// the detection benchmark configs (worm runs hotter so the global ramp
// clears the volume floor decisively).
func scenarioMagnitude(kind IncidentKind) float64 {
	if kind == WormPropagation {
		return 1.5
	}
	return 1
}

// ScenarioConfig returns a deterministic detection benchmark: the
// SmallConfig background plus `episodes` consecutive daily episodes of
// one adversarial scenario, starting after the detector's warmup window.
// Saturday spikes are disabled so the only injected anomalies are the
// labeled ones.
func ScenarioConfig(kind IncidentKind, episodes int, seed int64) Config {
	cfg := SmallConfig()
	cfg.Seed = seed
	cfg.SaturdaySpikeProb = 0
	cfg.Days = episodes + 3
	cfg.Incidents = []Incident{
		{Kind: kind, Day: 2, Days: episodes, Magnitude: scenarioMagnitude(kind)},
	}
	return cfg
}

// AdversaryIncidents places one one-day episode of each kind, in order, on
// consecutive days from day 2, after the detector's baselines have
// something to decay from. Episode i lands on day 2+i.
func AdversaryIncidents(kinds []IncidentKind) []Incident {
	out := make([]Incident, len(kinds))
	for i, kind := range kinds {
		out[i] = Incident{Kind: kind, Day: 2 + i, Days: 1, Magnitude: scenarioMagnitude(kind)}
	}
	return out
}

// AdversaryConfig returns the combined detection benchmark: all five
// adversarial scenarios on consecutive days over the SmallConfig
// background.
func AdversaryConfig(seed int64) Config {
	cfg := SmallConfig()
	cfg.Seed = seed
	cfg.SaturdaySpikeProb = 0
	cfg.Days = 9
	cfg.Incidents = AdversaryIncidents(AdversaryScenarios)
	return cfg
}

func (c Config) withDefaults() Config {
	if c.Exchange == "" {
		c.Exchange = "Mae-East"
	}
	if c.Start.IsZero() {
		c.Start = time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Days == 0 {
		c.Days = 7
	}
	return c
}

// DiurnalProfile returns the configured time-of-day usage weights (144
// ten-minute slots, UTC), without incidents or weekend scaling — the
// "network usage" curve against which the paper correlates instability. It
// mirrors the base shape the generator samples event times from.
func (c Config) DiurnalProfile() []float64 {
	w := make([]float64, 144)
	for s := range w {
		hUTC := float64(s) / 6.0
		h := hUTC - 5 // EST
		for h < 0 {
			h += 24
		}
		var base float64
		switch {
		case h < 6:
			base = 0.25
		case h < 9:
			base = 0.55
		case h < 12:
			base = 0.95
		case h < 18:
			base = 1.25
		default:
			base = 1.05
		}
		sin := 1 + c.DiurnalAmplitude*math.Sin(2*math.Pi*(h-9)/24)
		w[s] = (1-c.DiurnalAmplitude)*1 + c.DiurnalAmplitude*base*sin
	}
	return w
}
