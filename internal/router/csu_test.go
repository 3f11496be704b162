package router

import (
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/events"
	"instability/internal/session"
)

func TestCSUPeriod(t *testing.T) {
	if got := DefaultCSU().Period(); got != 30*time.Second {
		t.Fatalf("default period %v, want 30s", got)
	}
	c := CSUConfig{DriftPPM: 2, SlipBudget: 120 * time.Microsecond}
	if got := c.Period(); got != time.Minute {
		t.Fatalf("2ppm period %v, want 1m", got)
	}
	if (CSUConfig{}).Period() != 0 {
		t.Fatal("same-clock CSUs should not oscillate")
	}
}

func TestCSUOscillatesLink(t *testing.T) {
	sim := events.New(41)
	a := newRouter(sim, 100, 1)
	b := newRouter(sim, 200, 2)
	l := Connect(sim, a, b, time.Millisecond)
	sim.RunFor(5 * time.Second)
	csu := AttachCSU(sim, l, DefaultCSU())
	sim.RunFor(5 * time.Minute)
	// ~10 slips in 5 minutes at a 30s period.
	if csu.Slips < 9 || csu.Slips > 11 {
		t.Fatalf("slips %d, want ~10", csu.Slips)
	}
	csu.Stop()
	before := csu.Slips
	sim.RunFor(5 * time.Minute)
	if csu.Slips != before {
		t.Fatal("stopped CSU kept slipping")
	}
}

func TestHealthyCSUDoesNothing(t *testing.T) {
	sim := events.New(42)
	a := newRouter(sim, 100, 1)
	b := newRouter(sim, 200, 2)
	l := Connect(sim, a, b, time.Millisecond)
	sim.RunFor(5 * time.Second)
	csu := AttachCSU(sim, l, CSUConfig{DriftPPM: 0, SlipBudget: 120 * time.Microsecond, Resync: time.Second})
	sim.RunFor(10 * time.Minute)
	if csu.Slips != 0 {
		t.Fatalf("healthy line slipped %d times", csu.Slips)
	}
	if !l.Established() {
		t.Fatal("healthy line lost the session")
	}
}

func TestCSUPeriodicWithdrawalsUpstream(t *testing.T) {
	// The CSU beat on the customer circuit turns into withdrawals and
	// re-announcements at the upstream with the beat's periodicity — the
	// exogenous 30/60s source feeding the Figure 8 bins.
	sim := events.New(43)
	cust := New(sim, Config{AS: 100, ID: 1, Session: session.Config{MRAI: 0, ConnectRetry: 5 * time.Second}})
	border := New(sim, Config{AS: 200, ID: 2, Session: session.Config{MRAI: 0, ConnectRetry: 5 * time.Second}})
	up := New(sim, Config{AS: 300, ID: 3, Session: session.Config{MRAI: 0}})
	custLink := Connect(sim, cust, border, time.Millisecond)
	Connect(sim, border, up, time.Millisecond)
	sim.RunFor(5 * time.Second)
	cust.Originate(pfx("192.42.113.0/24"), bgp.OriginIGP)
	sim.RunFor(5 * time.Second)
	if _, _, ok := up.RIB().Best(pfx("192.42.113.0/24")); !ok {
		t.Fatal("setup: upstream missing route")
	}

	// A slow 60-second beat so the 5s reconnect fits inside each cycle.
	csu := AttachCSU(sim, custLink, CSUConfig{DriftPPM: 2, SlipBudget: 120 * time.Microsecond, Resync: time.Second})
	var wdTimes []time.Duration
	prevWd := 0
	probe := sim.Every(time.Second, func() {
		s := up.Session(200, 2)
		if s == nil {
			return
		}
		if wd := s.Stats().WdReceived; wd != prevWd {
			prevWd = wd
			wdTimes = append(wdTimes, sim.Now().Sub(events.Epoch))
		}
	})
	sim.RunFor(10 * time.Minute)
	probe.Stop()
	csu.Stop()

	if len(wdTimes) < 5 {
		t.Fatalf("only %d withdrawal bursts upstream", len(wdTimes))
	}
	for i := 1; i < len(wdTimes); i++ {
		gap := wdTimes[i] - wdTimes[i-1]
		rem := gap % time.Minute
		if rem > 3*time.Second && rem < 57*time.Second {
			t.Fatalf("withdrawal gap %v off the 60s CSU beat", gap)
		}
	}
}

// Stop halts the oscillation (the CSUs are reconfigured onto one clock
// source).
func (c *CSU) Stop() { c.stopped = true }
