package router

import (
	"time"

	"instability/internal/events"
)

// CSUConfig models the Channel Service Units terminating a leased line. The
// paper's §4.2: "Misconfigured CSUs may have clocks which derive from
// different sources. The drift between two clock sources can cause the line
// to oscillate between periods of normal service and corrupted data" — and
// router interface cards, sensitive to millisecond carrier loss, flag the
// link down each time.
//
// The model: the phase error between the two clocks grows at DriftPPM parts
// per million of real time; when it exceeds SlipBudget the line slips
// framing and carrier drops for Resync while the units realign (resetting
// the phase error). The oscillation period is therefore
//
//	SlipBudget / (DriftPPM * 1e-6)
//
// — with a 120 microsecond framing budget and 4 ppm of drift, exactly the
// 30-second period the measured update streams exhibit.
type CSUConfig struct {
	// DriftPPM is the clock frequency difference in parts per million.
	// Zero means both units share a clock source: no oscillation.
	DriftPPM float64
	// SlipBudget is the accumulated phase error that forces a resync.
	SlipBudget time.Duration
	// Resync is the carrier outage while the units realign.
	Resync time.Duration
}

// DefaultCSU returns the misconfigured-pair model producing a 30-second
// oscillation.
func DefaultCSU() CSUConfig {
	return CSUConfig{
		DriftPPM:   4,
		SlipBudget: 120 * time.Microsecond,
		Resync:     2 * time.Second,
	}
}

// Period returns the carrier-loss period (0 when the clocks agree).
func (c CSUConfig) Period() time.Duration {
	if c.DriftPPM <= 0 {
		return 0
	}
	return time.Duration(float64(c.SlipBudget) / (c.DriftPPM * 1e-6))
}

// CSU drives a Link with the clock-drift fault model.
type CSU struct {
	cfg  CSUConfig
	link *Link
	// Slips counts carrier losses.
	Slips   int
	stopped bool
}

// AttachCSU starts the oscillation model on a link. With zero drift it does
// nothing (healthy line).
func AttachCSU(sim *events.Sim, link *Link, cfg CSUConfig) *CSU {
	c := &CSU{cfg: cfg, link: link}
	period := cfg.Period()
	if period <= 0 {
		return c
	}
	var cycle func()
	cycle = func() {
		if c.stopped {
			return
		}
		c.Slips++
		link.Flap(cfg.Resync)
		sim.Schedule(period, cycle)
	}
	sim.Schedule(period, cycle)
	return c
}
