// Package damping implements route flap damping in the style of the
// Villamizar/Chandra/Govindan Internet-Draft cited by the paper (later
// RFC 2439): each flapping route accumulates a penalty that decays
// exponentially; routes whose penalty exceeds a suppress threshold are held
// down until the penalty decays below a reuse threshold.
//
// The paper discusses damping as the principal deployed countermeasure to
// instability — and notes its downside, that legitimate announcements of a
// newly available network may be delayed by earlier damped instability. Both
// effects are measurable with this implementation.
package damping

import (
	"math"
	"time"
)

// Config holds the damping parameters. The zero Config is not valid; use
// DefaultConfig (the draft's commonly deployed values) as a starting point.
type Config struct {
	// WithdrawPenalty is added when a route is withdrawn (a flap).
	WithdrawPenalty float64
	// ReannouncePenalty is added when a route is re-announced after a
	// withdrawal.
	ReannouncePenalty float64
	// AttrChangePenalty is added when a route is re-announced with changed
	// attributes (an implicit withdrawal).
	AttrChangePenalty float64
	// SuppressThreshold is the penalty above which a route is suppressed.
	SuppressThreshold float64
	// ReuseThreshold is the penalty below which a suppressed route is
	// reusable again.
	ReuseThreshold float64
	// HalfLife is the exponential decay half-life of the penalty.
	HalfLife time.Duration
	// MaxSuppress caps how long a route may remain suppressed; the penalty
	// is clamped so it can always decay to ReuseThreshold within this time.
	MaxSuppress time.Duration
}

// DefaultConfig mirrors the draft's widely deployed defaults (Cisco-style
// units: penalty 1000 per flap).
func DefaultConfig() Config {
	return Config{
		WithdrawPenalty:   1000,
		ReannouncePenalty: 0,
		AttrChangePenalty: 500,
		SuppressThreshold: 2000,
		ReuseThreshold:    750,
		HalfLife:          15 * time.Minute,
		MaxSuppress:       60 * time.Minute,
	}
}

// maxPenalty returns the ceiling implied by MaxSuppress: a penalty that
// decays to ReuseThreshold in exactly MaxSuppress.
func (c Config) maxPenalty() float64 {
	if c.HalfLife <= 0 || c.MaxSuppress <= 0 {
		return math.Inf(1)
	}
	return c.ReuseThreshold * math.Pow(2, float64(c.MaxSuppress)/float64(c.HalfLife))
}

// state tracks one route's figure of merit.
type state struct {
	penalty    float64
	lastUpdate time.Time
	suppressed bool
}

// Event is the kind of route change reported to the damper.
type Event int

// Route change events.
const (
	// EventWithdraw is an explicit withdrawal.
	EventWithdraw Event = iota
	// EventReannounce is an announcement of a previously withdrawn route.
	EventReannounce
	// EventAttrChange is a re-announcement with changed path attributes.
	EventAttrChange
)

// Damper applies flap damping per key (typically a (peer, prefix) pair
// rendered to a comparable value by the caller).
type Damper[K comparable] struct {
	cfg    Config
	routes map[K]*state
	// Suppressions counts transitions into the suppressed state.
	Suppressions int
}

// New returns a Damper with the given configuration.
func New[K comparable](cfg Config) *Damper[K] {
	return &Damper[K]{cfg: cfg, routes: make(map[K]*state)}
}

// decayTo brings the penalty forward to time now.
func (d *Damper[K]) decayTo(s *state, now time.Time) {
	if s.lastUpdate.IsZero() || !now.After(s.lastUpdate) {
		s.lastUpdate = now
		return
	}
	dt := now.Sub(s.lastUpdate)
	s.penalty *= math.Pow(0.5, float64(dt)/float64(d.cfg.HalfLife))
	s.lastUpdate = now
	if s.suppressed && s.penalty < d.cfg.ReuseThreshold {
		s.suppressed = false
	}
	// Garbage-collect negligible penalties.
	if s.penalty < 1 {
		s.penalty = 0
	}
}

// Record reports a route change at virtual time now and returns whether the
// route is currently suppressed (i.e. the change should be withheld from
// peers).
func (d *Damper[K]) Record(key K, ev Event, now time.Time) bool {
	s := d.routes[key]
	if s == nil {
		s = &state{lastUpdate: now}
		d.routes[key] = s
	}
	d.decayTo(s, now)
	switch ev {
	case EventWithdraw:
		s.penalty += d.cfg.WithdrawPenalty
	case EventReannounce:
		s.penalty += d.cfg.ReannouncePenalty
	case EventAttrChange:
		s.penalty += d.cfg.AttrChangePenalty
	}
	if maxP := d.cfg.maxPenalty(); s.penalty > maxP {
		s.penalty = maxP
	}
	if !s.suppressed && s.penalty > d.cfg.SuppressThreshold {
		s.suppressed = true
		d.Suppressions++
	}
	return s.suppressed
}

// Suppressed reports whether key is suppressed at time now, applying decay.
func (d *Damper[K]) Suppressed(key K, now time.Time) bool {
	s := d.routes[key]
	if s == nil {
		return false
	}
	d.decayTo(s, now)
	return s.suppressed
}

// ReuseTime predicts when a currently suppressed key becomes reusable; the
// second return is false if the key is not suppressed.
func (d *Damper[K]) ReuseTime(key K, now time.Time) (time.Time, bool) {
	s := d.routes[key]
	if s == nil {
		return time.Time{}, false
	}
	d.decayTo(s, now)
	if !s.suppressed {
		return time.Time{}, false
	}
	// penalty * 0.5^(t/halfLife) = reuse  =>  t = halfLife * log2(p/reuse)
	t := float64(d.cfg.HalfLife) * math.Log2(s.penalty/d.cfg.ReuseThreshold)
	return now.Add(time.Duration(t)), true
}
