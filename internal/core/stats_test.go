package core

import (
	"testing"
	"time"
)

func TestDateOf(t *testing.T) {
	d := DateOf(time.Date(1996, 8, 1, 23, 59, 59, 0, time.UTC))
	if d.String() != "1996-08-01" {
		t.Fatalf("got %s", d)
	}
	if DateOf(time.Date(1996, 8, 2, 0, 0, 0, 0, time.UTC)) != d+1 {
		t.Fatal("next day should be d+1")
	}
	if d.Weekday() != time.Thursday {
		t.Fatalf("1996-08-01 was a Thursday, got %v", d.Weekday())
	}
	if !d.Time().Equal(time.Date(1996, 8, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("Time() = %v", d.Time())
	}
	// Before the epoch DateOf floors, as the detector's windows do: noon on
	// the last day of 1969 is day -1, not 1970-01-01.
	for _, tm := range []time.Time{
		time.Date(1969, 12, 31, 12, 0, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 0, 0, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 23, 59, 59, 999999999, time.UTC),
	} {
		if got := DateOf(tm); got != -1 || got.String() != "1969-12-31" {
			t.Errorf("DateOf(%v) = %d (%s), want -1 (1969-12-31)", tm, got, got)
		}
	}
	if got := DateOf(time.Date(1969, 12, 30, 23, 59, 59, 0, time.UTC)); got != -2 {
		t.Errorf("DateOf(1969-12-30 23:59:59) = %d, want -2", got)
	}
}

func TestBinOf(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{500 * time.Millisecond, 0},
		{time.Second, 0},
		{3 * time.Second, 1},
		{30 * time.Second, 2}, // the paper's dominant bin
		{60 * time.Second, 3}, // and its second
		{31 * time.Second, 3},
		{4 * time.Minute, 4},
		{23 * time.Hour, 11},
		{48 * time.Hour, 11}, // clamped
	}
	for _, c := range cases {
		if got := BinOf(c.d); got != c.want {
			t.Errorf("BinOf(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	if len(BinEdges) != NumBins || len(BinLabels) != NumBins {
		t.Fatal("bin tables inconsistent")
	}
}

func TestAccumulatorCounts(t *testing.T) {
	c := NewClassifier()
	a := NewAccumulator()
	// Day 1: announce, dup, withdraw, spurious withdraw.
	a.Add(c.Classify(ann(t0, peerA, pfxX, attrs1())))
	a.Add(c.Classify(ann(t0.Add(30*time.Second), peerA, pfxX, attrs1())))
	a.Add(c.Classify(wd(t0.Add(time.Minute), peerA, pfxX)))
	a.Add(c.Classify(wd(t0.Add(2*time.Minute), peerA, pfxX)))
	a.EndDay(c, DateOf(t0))

	s := a.Day(DateOf(t0))
	if s.Counts[Other] != 2 || s.Counts[AADup] != 1 || s.Counts[WWDup] != 1 {
		t.Fatalf("counts %+v", s.Counts)
	}
	if s.Total() != 4 {
		t.Fatalf("total %d", s.Total())
	}
	if Instability(s.Counts) != 0 || Pathological(s.Counts) != 2 {
		t.Fatalf("instability %d pathological %d", Instability(s.Counts), Pathological(s.Counts))
	}
	if s.TotalTable != 0 { // everything withdrawn by end of day
		t.Fatalf("table %d", s.TotalTable)
	}
}

func TestAccumulatorTenMinSlots(t *testing.T) {
	c := NewClassifier()
	a := NewAccumulator()
	// An instability event at 12:05 lands in slot 72 (12*6).
	c.Classify(ann(t0, peerA, pfxX, attrs1()))
	c.Classify(wd(t0.Add(time.Minute), peerA, pfxX))
	ev := c.Classify(ann(t0.Add(5*time.Minute), peerA, pfxX, attrs1())) // WADup at 12:05
	if ev.Class != WADup {
		t.Fatalf("class %v", ev.Class)
	}
	a.Add(ev)
	s := a.Day(DateOf(t0))
	slot := (12*60 + 5) / 10
	if s.TenMinInstability[slot] != 1 || s.TenMinAll[slot] != 1 {
		t.Fatalf("slot %d counts %d/%d", slot, s.TenMinInstability[slot], s.TenMinAll[slot])
	}
}

func TestAccumulatorPerPeerPerPrefixAS(t *testing.T) {
	c := NewClassifier()
	a := NewAccumulator()
	a.Add(c.Classify(ann(t0, peerA, pfxX, attrs1())))
	a.Add(c.Classify(ann(t0.Add(time.Second), peerA, pfxX, attrs1())))
	a.Add(c.Classify(wd(t0.Add(2*time.Second), peerB, pfxY)))
	s := a.Day(DateOf(t0))
	if s.ByPeer[peerA].Counts[AADup] != 1 || s.ByPeer[peerB].Counts[WWDup] != 1 {
		t.Fatal("per-peer counts wrong")
	}
	if s.ByPeer[peerA].Announcements != 2 || s.ByPeer[peerB].Withdrawals != 1 {
		t.Fatal("per-peer announce/withdraw splits wrong")
	}
	if s.ByPrefixAS[PrefixAS{Prefix: pfxX, AS: peerA.AS}][AADup] != 1 {
		t.Fatal("per-prefixAS counts wrong")
	}
	n := s.RoutesAffected(func(counts *[NumClasses]int) bool { return counts[AADup] > 0 })
	if n != 1 {
		t.Fatalf("routes affected %d", n)
	}
}

func TestAccumulatorInterArrivalHistogram(t *testing.T) {
	c := NewClassifier()
	a := NewAccumulator()
	c.Classify(ann(t0, peerA, pfxX, attrs1()))
	// Three duplicates exactly 30 s apart: two measurable inter-arrivals.
	for i := 1; i <= 3; i++ {
		a.Add(c.Classify(ann(t0.Add(time.Duration(i)*30*time.Second), peerA, pfxX, attrs1())))
	}
	s := a.Day(DateOf(t0))
	// Each duplicate arrives 30 s after the previous update of the pair, so
	// all three land in the 30 s bin.
	if s.InterArrival[AADup][BinOf(30*time.Second)] != 3 {
		t.Fatalf("30s bin = %d", s.InterArrival[AADup][BinOf(30*time.Second)])
	}
}

func TestAccumulatorDaySplit(t *testing.T) {
	c := NewClassifier()
	a := NewAccumulator()
	a.Add(c.Classify(ann(t0, peerA, pfxX, attrs1())))
	nextDay := t0.Add(24 * time.Hour)
	a.Add(c.Classify(ann(nextDay, peerA, pfxX, attrs1())))
	if len(a.Days) != 2 {
		t.Fatalf("%d days", len(a.Days))
	}
	dates := a.Dates()
	if len(dates) != 2 || dates[0] >= dates[1] {
		t.Fatalf("dates %v", dates)
	}
	tot := a.TotalCounts()
	if tot[Other]+tot[AADup] != 2 {
		t.Fatalf("totals %v", tot)
	}
}

func TestMonthlyCounts(t *testing.T) {
	c := NewClassifier()
	a := NewAccumulator()
	aug := time.Date(1996, 8, 15, 12, 0, 0, 0, time.UTC)
	sep := time.Date(1996, 9, 15, 12, 0, 0, 0, time.UTC)
	a.Add(c.Classify(ann(aug, peerA, pfxX, attrs1())))
	a.Add(c.Classify(ann(sep, peerA, pfxX, attrs1()))) // AADup in September
	m := a.MonthlyCounts()
	if len(m) != 2 {
		t.Fatalf("%d months", len(m))
	}
	augK := MonthKey{1996, time.August}
	sepK := MonthKey{1996, time.September}
	if m[augK][Other] != 1 || m[sepK][AADup] != 1 {
		t.Fatalf("monthly %v", m)
	}
	if augK.String() != "August 1996" {
		t.Fatalf("month name %q", augK.String())
	}
}

func TestHourlyAndTenMinSeries(t *testing.T) {
	c := NewClassifier()
	a := NewAccumulator()
	// Create instability at hours 0 and 25 (next day, 01:00).
	base := time.Date(1996, 8, 1, 0, 5, 0, 0, time.UTC)
	c.Classify(ann(base.Add(-time.Hour), peerA, pfxX, attrs1()))
	c.Classify(wd(base.Add(-30*time.Minute), peerA, pfxX))
	a.Add(c.Classify(ann(base, peerA, pfxX, attrs1()))) // WADup day 1 hour 0
	c.Classify(wd(base.Add(time.Hour), peerA, pfxX))
	a.Add(c.Classify(ann(base.Add(25*time.Hour), peerA, pfxX, attrs1()))) // WADup day 2 hour 1

	start, hourly := a.HourlySeries()
	if len(hourly) != 48 {
		t.Fatalf("hourly len %d", len(hourly))
	}
	if !start.Equal(time.Date(1996, 8, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatalf("start %v", start)
	}
	if hourly[0] != 1 || hourly[25] != 1 {
		t.Fatalf("hourly %v", hourly[:26])
	}
	_, tenmin := a.TenMinSeries()
	if len(tenmin) != 2*TenMinBins {
		t.Fatalf("tenmin len %d", len(tenmin))
	}
	if tenmin[0] != 1 { // 00:05 is slot 0
		t.Fatal("tenmin slot 0 missing event")
	}
	sum := 0.0
	for _, v := range tenmin {
		sum += v
	}
	if sum != 2 {
		t.Fatalf("tenmin sum %v", sum)
	}
}

func TestEmptyAccumulatorSeries(t *testing.T) {
	a := NewAccumulator()
	if _, s := a.HourlySeries(); s != nil {
		t.Fatal("empty accumulator should yield nil series")
	}
	if _, s := a.TenMinSeries(); s != nil {
		t.Fatal("empty accumulator should yield nil series")
	}
	if len(a.Dates()) != 0 {
		t.Fatal("empty accumulator has dates")
	}
}
