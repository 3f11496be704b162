package events

import (
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.Schedule(3*time.Second, func() { got = append(got, 3) })
	s.Schedule(1*time.Second, func() { got = append(got, 1) })
	s.Schedule(2*time.Second, func() { got = append(got, 2) })
	s.RunFor(10 * time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { got = append(got, i) })
	}
	s.RunFor(2 * time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order %v", got)
		}
	}
}

func TestNowAdvancesToEventTime(t *testing.T) {
	s := New(1)
	var at time.Time
	s.Schedule(90*time.Second, func() { at = s.Now() })
	s.RunFor(5 * time.Minute)
	if want := Epoch.Add(90 * time.Second); !at.Equal(want) {
		t.Fatalf("handler ran at %v, want %v", at, want)
	}
	if !s.Now().Equal(Epoch.Add(5 * time.Minute)) {
		t.Fatalf("now %v", s.Now())
	}
}

func TestHorizonStopsBeforeLaterEvents(t *testing.T) {
	s := New(1)
	ran := false
	s.Schedule(time.Hour, func() { ran = true })
	n := s.RunFor(time.Minute)
	if n != 0 || ran {
		t.Fatal("event beyond horizon ran")
	}
	n = s.RunFor(2 * time.Hour)
	if n != 1 || !ran {
		t.Fatal("event did not run after extending horizon")
	}
}

func TestTimerStop(t *testing.T) {
	s := New(1)
	ran := false
	tm := s.Schedule(time.Second, func() { ran = true })
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	s.RunFor(time.Minute)
	if ran {
		t.Fatal("cancelled event ran")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending %d", s.Pending())
	}
}

func TestEvery(t *testing.T) {
	s := New(1)
	count := 0
	var tm *Timer
	tm = s.Every(30*time.Second, func() {
		count++
		if count == 5 {
			tm.Stop()
		}
	})
	s.RunFor(time.Hour)
	if count != 5 {
		t.Fatalf("count %d", count)
	}
}

func TestEveryPeriodicity(t *testing.T) {
	s := New(1)
	var times []time.Time
	s.Every(30*time.Second, func() { times = append(times, s.Now()) })
	s.RunFor(5 * time.Minute)
	if len(times) != 10 {
		t.Fatalf("%d ticks", len(times))
	}
	for i, at := range times {
		want := Epoch.Add(time.Duration(i+1) * 30 * time.Second)
		if !at.Equal(want) {
			t.Fatalf("tick %d at %v want %v", i, at, want)
		}
	}
}

func TestScheduleInsideHandler(t *testing.T) {
	s := New(1)
	depth := 0
	var recur func()
	recur = func() {
		depth++
		if depth < 100 {
			s.Schedule(time.Second, recur)
		}
	}
	s.Schedule(time.Second, recur)
	s.RunFor(time.Hour)
	if depth != 100 {
		t.Fatalf("depth %d", depth)
	}
	if s.Processed() != 100 {
		t.Fatalf("processed %d", s.Processed())
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	ran2 := false
	s.Schedule(time.Second, func() { s.Stop() })
	s.Schedule(2*time.Second, func() { ran2 = true })
	s.RunFor(time.Minute)
	if ran2 {
		t.Fatal("event after Stop ran")
	}
	// A fresh Run resumes.
	s.RunFor(time.Minute)
	if !ran2 {
		t.Fatal("event did not run on resumed Run")
	}
}

func TestPastScheduleClamped(t *testing.T) {
	s := New(1)
	ran := false
	s.Schedule(time.Second, func() {
		s.ScheduleAt(s.Now().Add(-time.Hour), func() { ran = true })
	})
	s.RunFor(2 * time.Second)
	if !ran {
		t.Fatal("past-scheduled event should run at now")
	}
}

func TestRNGDeterminismAndIndependence(t *testing.T) {
	s1 := New(42)
	s2 := New(42)
	a1 := s1.RNG("a").Uint64()
	if a2 := s2.RNG("a").Uint64(); a1 != a2 {
		t.Fatal("same seed+name must match")
	}
	s3 := New(42)
	// Drawing from stream b first must not perturb stream a.
	_ = s3.RNG("b").Uint64()
	if a3 := s3.RNG("a").Uint64(); a3 != a1 {
		t.Fatal("streams are not independent")
	}
	if s1.RNG("a") != s1.RNG("a") {
		t.Fatal("RNG must be cached per name")
	}
	sDiff := New(43)
	if sDiff.RNG("a").Uint64() == a1 {
		t.Fatal("different seeds should differ (overwhelmingly likely)")
	}
}

func TestJitter(t *testing.T) {
	s := New(7)
	if got := s.Jitter("x", 30*time.Second, 0); got != 30*time.Second {
		t.Fatalf("zero jitter changed duration: %v", got)
	}
	for i := 0; i < 1000; i++ {
		d := s.Jitter("x", 30*time.Second, 0.25)
		if d < 22500*time.Millisecond || d > 37500*time.Millisecond {
			t.Fatalf("jitter out of range: %v", d)
		}
	}
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Schedule(time.Second, nil)
}

func TestNonPositivePeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Every(0, func() {})
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(time.Duration(i%1000)*time.Millisecond, func() {})
	}
	s.RunFor(time.Hour)
}

// Stop halts Run after the current handler returns.
func (s *Sim) Stop() { s.stopped = true }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }
