// Package events provides the deterministic discrete-event simulation kernel
// that drives every scenario in this library. Virtual time lets a nine-month
// measurement campaign like the paper's run in seconds, and seeding makes
// every run byte-for-byte reproducible.
package events

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"
)

// Sim is a single-threaded discrete-event simulator. Handlers scheduled on
// the simulator run in strict timestamp order; ties are broken by scheduling
// order, so execution is deterministic.
type Sim struct {
	now     time.Time
	queue   eventHeap
	seq     uint64
	seed    int64
	streams map[string]*rand.Rand
	// Stop condition; when set, Run returns once now passes the horizon.
	horizon time.Time
	stopped bool
	// processed counts events executed, for progress accounting and runaway
	// detection in tests.
	processed uint64
}

// Timer is a handle for a scheduled event that can be cancelled.
type Timer struct {
	ev *event
}

// Stop cancels the timer. It reports whether the event was still pending.
func (t *Timer) Stop() bool {
	if t == nil || t.ev == nil || t.ev.cancelled {
		return false
	}
	t.ev.cancelled = true
	return true
}

type event struct {
	at        time.Time
	seq       uint64
	fn        func()
	cancelled bool
	index     int
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Epoch is the default simulation start: the first day of the paper's
// seven-month analysis window.
var Epoch = time.Date(1996, time.March, 1, 0, 0, 0, 0, time.UTC)

// New returns a simulator starting at Epoch with the given master seed.
func New(seed int64) *Sim {
	return NewAt(seed, Epoch)
}

// NewAt returns a simulator starting at the given instant.
func NewAt(seed int64, start time.Time) *Sim {
	return &Sim{now: start, seed: seed, streams: make(map[string]*rand.Rand)}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Time { return s.now }

// Schedule runs fn after delay of virtual time. Negative delays run
// immediately (at the current instant, after already-queued events for that
// instant). It returns a cancellable Timer.
func (s *Sim) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return s.ScheduleAt(s.now.Add(delay), fn)
}

// ScheduleAt runs fn at the given virtual instant. Instants in the past are
// clamped to now.
func (s *Sim) ScheduleAt(at time.Time, fn func()) *Timer {
	if fn == nil {
		panic("events: nil handler")
	}
	if at.Before(s.now) {
		at = s.now
	}
	e := &event{at: at, seq: s.seq, fn: fn}
	s.seq++
	heap.Push(&s.queue, e)
	return &Timer{ev: e}
}

// Every schedules fn at a fixed period, starting one period from now. The
// returned Timer cancels the recurrence. Period must be positive.
func (s *Sim) Every(period time.Duration, fn func()) *Timer {
	if period <= 0 {
		panic(fmt.Sprintf("events: non-positive period %v", period))
	}
	t := &Timer{}
	var tick func()
	tick = func() {
		fn()
		if !t.ev.cancelled {
			t.ev = s.Schedule(period, tick).ev
		}
	}
	t.ev = s.Schedule(period, tick).ev
	return t
}

// Run executes events until the queue is empty or virtual time would pass
// until. It returns the number of events processed.
func (s *Sim) Run(until time.Time) uint64 {
	s.horizon = until
	s.stopped = false
	start := s.processed
	for len(s.queue) > 0 {
		e := s.queue[0]
		if e.at.After(until) {
			break
		}
		heap.Pop(&s.queue)
		if e.cancelled {
			continue
		}
		s.now = e.at
		e.fn()
		s.processed++
		if s.stopped {
			break
		}
	}
	if s.now.Before(until) && !s.stopped {
		s.now = until
	}
	return s.processed - start
}

// RunFor advances virtual time by d.
func (s *Sim) RunFor(d time.Duration) uint64 {
	return s.Run(s.now.Add(d))
}

// Pending returns the number of live events in the queue.
func (s *Sim) Pending() int {
	n := 0
	for _, e := range s.queue {
		if !e.cancelled {
			n++
		}
	}
	return n
}

// RNG returns the named deterministic random stream, creating it on first
// use. Distinct names yield independent streams derived from the master seed,
// so adding randomness to one subsystem does not perturb another.
func (s *Sim) RNG(name string) *rand.Rand {
	if r, ok := s.streams[name]; ok {
		return r
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	r := rand.New(rand.NewSource(s.seed ^ int64(h.Sum64())))
	s.streams[name] = r
	return r
}

// Jitter returns a duration uniformly distributed in [d*(1-frac), d*(1+frac)]
// drawn from the named stream. frac of 0 returns d unchanged; this is the
// knob that distinguishes jittered from unjittered protocol timers in the
// paper's self-synchronization discussion.
func (s *Sim) Jitter(name string, d time.Duration, frac float64) time.Duration {
	if frac <= 0 {
		return d
	}
	r := s.RNG(name)
	lo := float64(d) * (1 - frac)
	hi := float64(d) * (1 + frac)
	return time.Duration(lo + r.Float64()*(hi-lo))
}
