package damping

import (
	"testing"
	"time"
)

var t0 = time.Date(1996, time.August, 1, 0, 0, 0, 0, time.UTC)

func TestSingleFlapNotSuppressed(t *testing.T) {
	d := New[string](DefaultConfig())
	if d.Record("r", EventWithdraw, t0) {
		t.Fatal("one flap should not suppress")
	}
	if d.Penalty("r", t0) != 1000 {
		t.Fatalf("penalty %v", d.Penalty("r", t0))
	}
}

func TestRepeatedFlapsSuppress(t *testing.T) {
	d := New[string](DefaultConfig())
	now := t0
	suppressed := false
	// Flap once a minute: withdraw + attr-change reannounce.
	for i := 0; i < 5 && !suppressed; i++ {
		suppressed = d.Record("r", EventWithdraw, now)
		now = now.Add(30 * time.Second)
		suppressed = d.Record("r", EventAttrChange, now) || suppressed
		now = now.Add(30 * time.Second)
	}
	if !suppressed {
		t.Fatal("persistent flapping should suppress")
	}
	if d.Suppressions != 1 {
		t.Fatalf("suppressions %d", d.Suppressions)
	}
	if !d.Suppressed("r", now) {
		t.Fatal("should remain suppressed immediately after")
	}
}

func TestPenaltyDecaysByHalfLife(t *testing.T) {
	cfg := DefaultConfig()
	d := New[string](cfg)
	d.Record("r", EventWithdraw, t0)
	p := d.Penalty("r", t0.Add(cfg.HalfLife))
	if p < 499 || p > 501 {
		t.Fatalf("after one half-life penalty %v, want ~500", p)
	}
	p = d.Penalty("r", t0.Add(2*cfg.HalfLife))
	if p < 249 || p > 251 {
		t.Fatalf("after two half-lives penalty %v, want ~250", p)
	}
}

func TestReuseAfterDecay(t *testing.T) {
	cfg := DefaultConfig()
	d := New[string](cfg)
	now := t0
	for i := 0; i < 4; i++ {
		d.Record("r", EventWithdraw, now)
		now = now.Add(time.Minute)
	}
	if !d.Suppressed("r", now) {
		t.Fatal("should be suppressed")
	}
	reuse, ok := d.ReuseTime("r", now)
	if !ok {
		t.Fatal("reuse time should exist")
	}
	if !d.Suppressed("r", reuse.Add(-time.Minute)) {
		t.Fatal("should still be suppressed just before reuse time")
	}
	if d.Suppressed("r", reuse.Add(time.Second)) {
		t.Fatal("should be reusable just after reuse time")
	}
	if _, ok := d.ReuseTime("r", reuse.Add(time.Second)); ok {
		t.Fatal("reuse time for unsuppressed route")
	}
}

func TestMaxSuppressCapsHoldDown(t *testing.T) {
	cfg := DefaultConfig()
	d := New[string](cfg)
	now := t0
	// Hammer the route far beyond the suppress threshold.
	for i := 0; i < 500; i++ {
		d.Record("r", EventWithdraw, now)
		now = now.Add(time.Second)
	}
	reuse, ok := d.ReuseTime("r", now)
	if !ok {
		t.Fatal("should be suppressed")
	}
	if held := reuse.Sub(now); held > cfg.MaxSuppress+time.Minute {
		t.Fatalf("held down %v, cap %v", held, cfg.MaxSuppress)
	}
}

func TestStableRouteNeverSuppressed(t *testing.T) {
	d := New[string](DefaultConfig())
	now := t0
	// One withdrawal per day is legitimate topology change.
	for i := 0; i < 30; i++ {
		if d.Record("r", EventWithdraw, now) {
			t.Fatal("daily flap suppressed")
		}
		now = now.Add(24 * time.Hour)
	}
}

func TestKeysIndependent(t *testing.T) {
	d := New[int](DefaultConfig())
	now := t0
	for i := 0; i < 4; i++ {
		d.Record(1, EventWithdraw, now)
		now = now.Add(time.Minute)
	}
	if !d.Suppressed(1, now) {
		t.Fatal("key 1 should be suppressed")
	}
	if d.Suppressed(2, now) {
		t.Fatal("key 2 was never flapped")
	}
	if d.Penalty(2, now) != 0 {
		t.Fatal("untouched key has penalty")
	}
}

func TestPenaltyMonotoneInFlapCount(t *testing.T) {
	// More flaps in the same window never yields a lower penalty.
	cfg := DefaultConfig()
	prev := 0.0
	for n := 1; n <= 10; n++ {
		d := New[string](cfg)
		now := t0
		for i := 0; i < n; i++ {
			d.Record("r", EventWithdraw, now)
			now = now.Add(time.Second)
		}
		p := d.Penalty("r", now)
		if p < prev {
			t.Fatalf("penalty decreased: %d flaps -> %v, %d flaps -> %v", n-1, prev, n, p)
		}
		prev = p
	}
}

func TestLenAndGC(t *testing.T) {
	cfg := DefaultConfig()
	d := New[string](cfg)
	d.Record("r", EventWithdraw, t0)
	if d.Len() != 1 {
		t.Fatalf("len %d", d.Len())
	}
	// After ~10 half-lives the penalty rounds to zero and the state is
	// considered dead.
	if got := d.Penalty("r", t0.Add(11*cfg.HalfLife)); got != 0 {
		t.Fatalf("penalty %v, want 0", got)
	}
	if d.Len() != 0 {
		t.Fatalf("len %d after decay", d.Len())
	}
}

func TestOutOfOrderTimeDoesNotCredit(t *testing.T) {
	d := New[string](DefaultConfig())
	d.Record("r", EventWithdraw, t0)
	// A timestamp in the past must not decay (nor inflate) the penalty.
	p := d.Penalty("r", t0.Add(-time.Hour))
	if p != 1000 {
		t.Fatalf("penalty %v", p)
	}
}

func TestZeroHalfLifeNeverCaps(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HalfLife = 0
	cfg.MaxSuppress = 0
	d := New[string](cfg)
	// Without decay configuration, maxPenalty is +Inf; Record must not
	// panic or clamp.
	for i := 0; i < 10; i++ {
		d.Record("r", EventWithdraw, t0)
	}
	if p := d.routes["r"].penalty; p != 10000 {
		t.Fatalf("penalty %v", p)
	}
}

func BenchmarkRecord(b *testing.B) {
	d := New[int](DefaultConfig())
	now := t0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Record(i%4096, EventWithdraw, now)
		now = now.Add(time.Millisecond)
	}
}

// Penalty returns the current figure of merit for key at time now.
func (d *Damper[K]) Penalty(key K, now time.Time) float64 {
	s := d.routes[key]
	if s == nil {
		return 0
	}
	d.decayTo(s, now)
	return s.penalty
}

// Len returns the number of routes with tracked (nonzero) damping state.
func (d *Damper[K]) Len() int {
	n := 0
	for _, s := range d.routes {
		if s.penalty > 0 || s.suppressed {
			n++
		}
	}
	return n
}
