package session

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"instability/internal/events"
	"instability/internal/faults"
)

// idealBackoff is the uncapped-then-capped delay the schedule centers on at
// attempt n (0-based).
func idealBackoff(b *Backoff, n int) time.Duration {
	d := float64(b.Base)
	for i := 0; i < n; i++ {
		d *= b.Factor
	}
	return time.Duration(math.Min(d, float64(b.Max)))
}

func assertDelayInBounds(t *testing.T, b *Backoff, n int, d time.Duration) {
	t.Helper()
	ideal := idealBackoff(b, n)
	lo := time.Duration(float64(ideal) * (1 - b.Jitter))
	hi := time.Duration(float64(ideal) * (1 + b.Jitter))
	if d < lo || d > hi {
		t.Fatalf("attempt %d: delay %v outside [%v, %v]", n, d, lo, hi)
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := &Backoff{
		Base:   100 * time.Millisecond,
		Max:    2 * time.Second,
		Factor: 2,
		Jitter: 0.25,
		Rand:   rng.Float64,
	}
	for n := 0; n < 12; n++ {
		assertDelayInBounds(t, b, n, b.Next())
	}
	if b.Attempts() != 12 {
		t.Fatalf("attempts = %d, want 12", b.Attempts())
	}
	// Reset-on-success restores the fast first step.
	b.Reset()
	if b.Attempts() != 0 {
		t.Fatalf("attempts after reset = %d", b.Attempts())
	}
	d := b.Next()
	assertDelayInBounds(t, b, 0, d)
	if d >= 200*time.Millisecond {
		t.Fatalf("post-reset delay %v did not return to the first step", d)
	}
}

func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	d := b.Next()
	if d < 400*time.Millisecond || d > 600*time.Millisecond {
		t.Fatalf("zero-value first delay %v outside 500ms ± 20%%", d)
	}
	// The cap binds eventually and jitter stays relative to the cap.
	for i := 0; i < 20; i++ {
		d = b.Next()
	}
	if d < 48*time.Second || d > 72*time.Second {
		t.Fatalf("capped delay %v outside 1m ± 20%%", d)
	}
}

// TestChaosPipeBackoffWithinBounds runs a session over a chaotic link —
// random drops, duplicates, delays, and full transport resets — with the
// environment restoring the link after a Backoff-chosen delay on every
// reconnect attempt. It asserts the chaos actually fired, every sleep the
// backoff chose was within its jitter bounds, and the session is established
// again once the chaos stops.
func TestChaosPipeBackoffWithinBounds(t *testing.T) {
	sim := events.New(11)
	pipe := NewPipe(sim, 5*time.Millisecond)
	pipe.Verify = true
	chaos := faults.NewTransport(faults.Plan{Seed: 99, ResetProb: 0.05, DropProb: 0.01, DupProb: 0.03, MaxOpDelay: 2 * time.Millisecond})
	pipe.Chaos = chaos

	rng := rand.New(rand.NewSource(7))
	bo := &Backoff{
		Base:   2 * time.Second,
		Max:    30 * time.Second,
		Factor: 2,
		Jitter: 0.25,
		Rand:   rng.Float64,
	}
	type sleep struct {
		attempt int
		d       time.Duration
	}
	var sleeps []sleep
	restorePending := false
	var a, b *Peer
	a = New(cfg(690, 1), SimClock(sim, "a"), Callbacks{
		Send: pipe.SendA,
		Connect: func() {
			// The dialer side of a reconnect: tear down any stale link,
			// sleep a backoff-chosen delay, then bring the transport up.
			// Scheduled rather than run inline because Down/Up re-enter
			// both FSMs and Connect is called from inside a transition.
			if restorePending {
				return
			}
			restorePending = true
			n := bo.Attempts()
			d := bo.Next()
			sleeps = append(sleeps, sleep{attempt: n, d: d})
			sim.Schedule(0, pipe.Down)
			sim.Schedule(d, func() {
				restorePending = false
				pipe.Up()
			})
		},
	})
	b = New(cfg(701, 2), SimClock(sim, "b"), Callbacks{Send: pipe.SendB})
	pipe.Bind(a, b)
	if !Establish(sim, pipe, a, b, time.Minute) {
		t.Fatal("no establishment")
	}

	// Two hours of chaotic operation; reset the backoff whenever the session
	// is up, as the collector dial loop does on success.
	for i := 0; i < 720; i++ {
		sim.RunFor(10 * time.Second)
		if a.State() == Established {
			bo.Reset()
		}
	}
	if chaos.Resets < 3 {
		t.Fatalf("chaos injected only %d resets in two hours", chaos.Resets)
	}
	if len(sleeps) < 3 {
		t.Fatalf("backoff consulted only %d times for %d resets", len(sleeps), chaos.Resets)
	}
	for _, s := range sleeps {
		assertDelayInBounds(t, bo, s.attempt, s.d)
	}

	// Calm the link; the session must come back on its own.
	pipe.Chaos = nil
	if !pipe.IsUp() && !restorePending {
		sim.Schedule(0, pipe.Up)
	}
	sim.RunFor(10 * time.Minute)
	if a.State() != Established || b.State() != Established {
		t.Fatalf("session did not recover after chaos: a=%v b=%v", a.State(), b.State())
	}
	if a.Stats().EstablishedCount < 2 {
		t.Fatalf("session never re-established through chaos: count %d", a.Stats().EstablishedCount)
	}
}

// Attempts reports how many delays have been handed out since the last Reset.
func (b *Backoff) Attempts() int { return b.attempts }
