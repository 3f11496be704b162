package session

import (
	"math/rand"
	"time"

	"instability/internal/obs"
)

// Reconnect instrumentation, shared by every dial loop in the process. The
// histogram records the delays actually slept, so a collector stuck in a
// redial storm is visible as mass accumulating at the backoff cap.
var (
	obsRedials = obs.Default().Counter("irtl_session_redials_total",
		"Transport dial attempts made by reconnect loops.")
	obsBackoffSeconds = obs.Default().Histogram("irtl_session_backoff_seconds",
		"Delay chosen before each redial attempt.",
		[]float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120})
)

// Backoff computes jittered exponential retry delays for transport dials.
// The zero value is usable and defaults to 500ms growing 2x per attempt up
// to 1 minute, with ±20% jitter. It is the collector-side answer to the
// paper's observation that synchronized retry timers turn one outage into a
// self-reinforcing storm: jitter decorrelates the herd, the cap bounds the
// recovery delay once the peer returns, and Reset restores fast retries
// after a success.
//
// Backoff is not safe for concurrent use; give each dial loop its own.
type Backoff struct {
	Base   time.Duration // first delay; default 500ms
	Max    time.Duration // delay cap, applied before jitter; default 1m
	Factor float64       // per-attempt growth; default 2
	Jitter float64       // ± fraction of the capped delay; default 0.2
	// Rand supplies uniform [0,1) variates for jitter. Nil means the global
	// math/rand source; tests seed it for reproducible schedules.
	Rand func() float64

	attempts int
}

// Next returns the delay to sleep before the next dial attempt and advances
// the schedule. The result is always within ±Jitter of min(Max, Base·Factorⁿ).
func (b *Backoff) Next() time.Duration {
	base := b.Base
	if base <= 0 {
		base = 500 * time.Millisecond
	}
	max := b.Max
	if max <= 0 {
		max = time.Minute
	}
	factor := b.Factor
	if factor <= 1 {
		factor = 2
	}
	jitter := b.Jitter
	if jitter == 0 {
		jitter = 0.2
	}
	rnd := b.Rand
	if rnd == nil {
		rnd = rand.Float64
	}

	d := float64(base)
	for i := 0; i < b.attempts && d < float64(max); i++ {
		d *= factor
	}
	if d > float64(max) {
		d = float64(max)
	}
	b.attempts++
	d *= 1 + jitter*(2*rnd()-1)
	delay := time.Duration(d)
	obsRedials.Inc()
	obsBackoffSeconds.Observe(delay.Seconds())
	return delay
}

// Reset restores the schedule to its first step. Call it after a successful
// session establishment so the next failure retries quickly.
func (b *Backoff) Reset() { b.attempts = 0 }
