package core

import (
	"sort"
	"sync/atomic"
	"time"

	"instability/internal/collector"
)

// Date is a UTC civil date, counted in days since the Unix epoch. It is the
// aggregation key for all per-day statistics.
type Date int

// DateOf returns the Date containing t (UTC), flooring before the epoch.
func DateOf(t time.Time) Date {
	sec := t.Unix()
	if sec < 0 && sec%86400 != 0 {
		sec -= 86400
	}
	return Date(sec / 86400)
}

// Time returns midnight UTC of d.
func (d Date) Time() time.Time { return time.Unix(int64(d)*86400, 0).UTC() }

// String formats the date as YYYY-MM-DD.
func (d Date) String() string { return d.Time().Format("2006-01-02") }

// Weekday returns the day of week.
func (d Date) Weekday() time.Weekday { return d.Time().Weekday() }

// Inter-arrival histogram bins, matching the paper's Figure 8 log-time axis.
// A duration is assigned to the first bin whose upper edge is >= d, so an
// exactly 30-second periodic process fills the "30s" bin and a 60-second one
// the "1m" bin.
var (
	// BinEdges are the upper edges of the inter-arrival bins.
	BinEdges = []time.Duration{
		time.Second, 5 * time.Second, 30 * time.Second, time.Minute,
		5 * time.Minute, 10 * time.Minute, 30 * time.Minute, time.Hour,
		2 * time.Hour, 4 * time.Hour, 8 * time.Hour, 24 * time.Hour,
	}
	// BinLabels name the bins for display.
	BinLabels = []string{"1s", "5s", "30s", "1m", "5m", "10m", "30m", "1h", "2h", "4h", "8h", "24h"}
)

// NumBins is the number of inter-arrival histogram bins.
const NumBins = 12

// BinOf returns the histogram bin index for an inter-arrival duration.
// Durations beyond 24 h clamp into the last bin.
func BinOf(d time.Duration) int {
	for i, edge := range BinEdges {
		if d <= edge {
			return i
		}
	}
	return NumBins - 1
}

// TenMinBins is the number of ten-minute aggregation slots per day, the
// resolution of the paper's Figures 3 and 4.
const TenMinBins = 144

// DayStats aggregates one day of classified updates at one collection point.
type DayStats struct {
	Date Date

	// Counts tallies events per class.
	Counts [NumClasses]int
	// PolicyShifts counts AADup events whose non-tuple attributes changed
	// (routing policy fluctuation).
	PolicyShifts int

	// TenMinInstability counts instability events (AADiff+WADiff+WADup) per
	// ten-minute slot; TenMinAll counts all update events.
	TenMinInstability [TenMinBins]int
	TenMinAll         [TenMinBins]int

	// ByPeer tallies per-peer class counts and raw announce/withdraw splits
	// (Table 1's columns).
	ByPeer map[PeerKey]*PeerDay
	// ByPrefixAS tallies per-Prefix+AS class counts.
	ByPrefixAS map[PrefixAS]*[NumClasses]int
	// InterArrival histograms, by each event's class, the time since the
	// route's previous update of any class (Event.SinceAny), this day.
	InterArrival [NumClasses][NumBins]int

	// PeerTable and TotalTable snapshot each peer's announced-route count at
	// the end of the day (the Figure 6 denominator). Populated by EndDay.
	PeerTable  map[PeerKey]int
	TotalTable int

	// PeakSecond is the largest number of updates observed in any single
	// second of the day — the paper's "bursts of updates at rates exceeding
	// 100 prefix announcements a second".
	PeakSecond int
	curSecond  int64
	curCount   int
}

// PeerDay is one peer's tallies for one day.
type PeerDay struct {
	Counts        [NumClasses]int
	Announcements int
	Withdrawals   int
}

// newDayStats returns an empty day with its maps sized like prev's.
func newDayStats(d Date, prev *DayStats) *DayStats {
	if prev == nil {
		prev = &DayStats{}
	}
	return &DayStats{
		Date:       d,
		ByPeer:     make(map[PeerKey]*PeerDay, len(prev.ByPeer)),
		ByPrefixAS: make(map[PrefixAS]*[NumClasses]int, len(prev.ByPrefixAS)),
	}
}

// Instability returns a class tally's instability total
// (AADiff+WADiff+WADup).
func Instability(c [NumClasses]int) int { return c[AADiff] + c[WADiff] + c[WADup] }

// Pathological returns a class tally's pathological total (AADup+WWDup).
func Pathological(c [NumClasses]int) int { return c[AADup] + c[WWDup] }

// Total returns all classified events including Other.
func (s *DayStats) Total() int {
	n := 0
	for _, v := range s.Counts {
		n += v
	}
	return n
}

// RoutesAffected counts the distinct Prefix+AS pairs with at least one event
// matching keep.
func (s *DayStats) RoutesAffected(keep func(counts *[NumClasses]int) bool) int {
	n := 0
	for _, counts := range s.ByPrefixAS {
		if keep(counts) {
			n++
		}
	}
	return n
}

// Accumulator folds classified events into per-day statistics.
//
// The accumulator itself is single-writer (Add is not safe for concurrent
// use), but its running class totals are kept in atomics so a concurrent
// reader — a metrics exposition handler, a progress display — can snapshot
// them at any time without stopping ingest or taking a lock.
type Accumulator struct {
	Days map[Date]*DayStats

	// cur is the day the last Add landed in, starting at Unix second
	// curStart: records arrive in time order, so Add rarely probes Days.
	cur      *DayStats
	curStart int64

	// totals are the live cross-day class tallies, maintained by Add and
	// read lock-free by TotalCounts, TotalEvents and the obs gauges.
	totals [NumClasses]atomic.Int64
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{Days: make(map[Date]*DayStats)}
}

// Day returns (creating if necessary) the stats bucket for d.
func (a *Accumulator) Day(d Date) *DayStats {
	s := a.Days[d]
	if s == nil {
		s = newDayStats(d, a.cur)
		a.Days[d] = s
	}
	return s
}

// Add folds one classified event in; it is AddEvent on a copy.
func (a *Accumulator) Add(ev Event) { a.AddEvent(&ev) }

// AddEvent folds one classified event in, reading it in place. Only a
// route's first event of a day probes ByPeer and ByPrefixAS: AddEvent caches
// those counters in the classifier slot the event carries, so it must run
// where that classifier's Classify does.
func (a *Accumulator) AddEvent(ev *Event) {
	sec := ev.Record.Time.Unix()
	s := a.cur
	if s == nil || sec < a.curStart || sec-a.curStart >= 86400 {
		s = a.Day(DateOf(ev.Record.Time))
		a.cur, a.curStart = s, int64(s.Date)*86400
	}
	s.Counts[ev.Class]++
	a.totals[ev.Class].Add(1)
	if ev.PolicyShift {
		s.PolicyShifts++
	}

	// Burst accounting: records arrive in time order, so a simple
	// current-second counter suffices.
	if sec != s.curSecond {
		s.curSecond, s.curCount = sec, 0
	}
	s.curCount++
	if s.curCount > s.PeakSecond {
		s.PeakSecond = s.curCount
	}

	slot := (sec - a.curStart) / 600
	s.TenMinAll[slot]++
	if ev.Class.IsInstability() {
		s.TenMinInstability[slot]++
	}

	var pc *PeerDay
	var pac *[NumClasses]int
	if r := ev.route; r != nil && r.day == s {
		pc, pac = r.peerDay, r.prefixAS
	} else {
		rec := &ev.Record
		peer, pa := PeerKey{AS: rec.PeerAS, Addr: rec.PeerAddr}, PrefixAS{Prefix: rec.Prefix, AS: rec.PeerAS}
		if pc = s.ByPeer[peer]; pc == nil {
			pc = new(PeerDay)
			s.ByPeer[peer] = pc
		}
		if pac = s.ByPrefixAS[pa]; pac == nil {
			pac = new([NumClasses]int)
			s.ByPrefixAS[pa] = pac
		}
		if r != nil {
			r.day, r.peerDay, r.prefixAS = s, pc, pac
		}
	}
	pc.Counts[ev.Class]++
	switch ev.Record.Type {
	case collector.Announce:
		pc.Announcements++
	case collector.Withdraw:
		pc.Withdrawals++
	}
	pac[ev.Class]++

	// The paper's Figure 8 measures the spacing between consecutive updates
	// for a Prefix+AS, attributed to the class of the later update.
	if ev.SinceAny > 0 {
		s.InterArrival[ev.Class][BinOf(ev.SinceAny)]++
	}
}

// EndDay snapshots the routing-table shares from the classifier into the
// day's stats. Call once per simulated day, after the day's records.
func (a *Accumulator) EndDay(c *Classifier, d Date) {
	s := a.Day(d)
	s.PeerTable = c.ActiveByPeer()
	s.TotalTable = 0
	for _, n := range s.PeerTable {
		s.TotalTable += n
	}
	// Day boundaries are the natural publication points for the interner's
	// batched hit/miss tallies: short runs never reach the batch threshold,
	// so without this the process-wide intern.Stats() would read zero.
	c.Interner().FlushStats()
}

// Dates returns the days present, sorted.
func (a *Accumulator) Dates() []Date {
	out := make([]Date, 0, len(a.Days))
	for d := range a.Days {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TotalCounts returns the class counts summed across all days. It reads
// the live atomic totals, so it is O(1), safe to call concurrently with
// Add, and equal to summing Days' Counts.
func (a *Accumulator) TotalCounts() [NumClasses]int {
	var total [NumClasses]int
	for i := range total {
		total[i] = int(a.totals[i].Load())
	}
	return total
}

// TotalEvents returns the number of events folded in so far (the sum of
// TotalCounts), readable concurrently with Add.
func (a *Accumulator) TotalEvents() int64 {
	var n int64
	for i := range a.totals {
		n += a.totals[i].Load()
	}
	return n
}

// MonthKey identifies a calendar month.
type MonthKey struct {
	Year  int
	Month time.Month
}

// String formats the month as "January 1996".
func (m MonthKey) String() string {
	return time.Date(m.Year, m.Month, 1, 0, 0, 0, 0, time.UTC).Format("January 2006")
}

// MonthlyCounts sums class counts per calendar month (Figure 2's series).
func (a *Accumulator) MonthlyCounts() map[MonthKey][NumClasses]int {
	out := make(map[MonthKey][NumClasses]int)
	for d, s := range a.Days {
		t := d.Time()
		k := MonthKey{Year: t.Year(), Month: t.Month()}
		counts := out[k]
		for i, v := range s.Counts {
			counts[i] += v
		}
		out[k] = counts
	}
	return out
}

// HourlySeries returns the instability count per hour across the full range
// of days, in time order — the input for the paper's spectral analysis
// (Figure 5). Missing days contribute zero-filled hours.
func (a *Accumulator) HourlySeries() (start time.Time, series []float64) {
	dates := a.Dates()
	if len(dates) == 0 {
		return time.Time{}, nil
	}
	first, last := dates[0], dates[len(dates)-1]
	n := int(last-first+1) * 24
	series = make([]float64, n)
	for d, s := range a.Days {
		base := int(d-first) * 24
		for slot, v := range s.TenMinInstability {
			series[base+slot/6] += float64(v)
		}
	}
	return first.Time(), series
}

// TenMinSeries returns the instability count per ten-minute slot across the
// full day range (Figures 3 and 4).
func (a *Accumulator) TenMinSeries() (start time.Time, series []float64) {
	dates := a.Dates()
	if len(dates) == 0 {
		return time.Time{}, nil
	}
	first, last := dates[0], dates[len(dates)-1]
	n := int(last-first+1) * TenMinBins
	series = make([]float64, n)
	for d, s := range a.Days {
		base := int(d-first) * TenMinBins
		for slot, v := range s.TenMinInstability {
			series[base+slot] = float64(v)
		}
	}
	return first.Time(), series
}
