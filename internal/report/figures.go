package report

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"instability/internal/analysis"
	"instability/internal/bgp"
	"instability/internal/core"
	"instability/internal/rib"
	"instability/internal/topology"
)

// ---------------------------------------------------------------- Table 1

// PeerDayTotals is one provider's row of Table 1.
type PeerDayTotals struct {
	Peer     core.PeerKey
	Announce int
	Withdraw int
	Unique   int // distinct prefixes touched
}

// Table1Result reproduces the paper's Table 1: per-provider update totals
// for one day at one exchange.
type Table1Result struct {
	Date core.Date
	Rows []PeerDayTotals
}

// Table1 computes per-provider announce/withdraw/unique totals for the
// given day.
func Table1(acc *core.Accumulator, date core.Date) Table1Result {
	s := acc.Day(date)
	uniq := make(map[bgp.ASN]map[string]struct{})
	for pa := range s.ByPrefixAS {
		set := uniq[pa.AS]
		if set == nil {
			set = make(map[string]struct{})
			uniq[pa.AS] = set
		}
		set[pa.Prefix.String()] = struct{}{}
	}
	res := Table1Result{Date: date}
	for peer, pd := range s.ByPeer {
		res.Rows = append(res.Rows, PeerDayTotals{
			Peer:     peer,
			Announce: pd.Announcements,
			Withdraw: pd.Withdrawals,
			Unique:   len(uniq[peer.AS]),
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool { return res.Rows[i].Peer.AS < res.Rows[j].Peer.AS })
	return res
}

// String renders Table 1.
func (r Table1Result) String() string {
	t := Table{
		Title:  fmt.Sprintf("Table 1: update totals per provider on %s", r.Date),
		Header: []string{"Provider", "Announce", "Withdraw", "Unique"},
		Note:   "Totals reflect customers and aggregation quality, not provider performance.",
	}
	for i, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("Provider %c (%v)", 'A'+i%26, row.Peer.AS),
			FormatCount(row.Announce), FormatCount(row.Withdraw), FormatCount(row.Unique),
		})
	}
	return t.String()
}

// ---------------------------------------------------------------- Figure 1

// Fig1Result lists the exchange points and their route-server peer counts.
type Fig1Result struct {
	Exchanges []string
	Peers     []int
}

// Fig1 reports the measured exchange points (the paper's map becomes a peer
// census).
func Fig1(topo *topology.Topology) Fig1Result {
	var r Fig1Result
	for _, e := range topo.Exchanges {
		r.Exchanges = append(r.Exchanges, e.Name)
		r.Peers = append(r.Peers, len(e.Peers))
	}
	return r
}

// String renders Figure 1.
func (r Fig1Result) String() string {
	t := Table{
		Title:  "Figure 1: measured exchange points",
		Header: []string{"Exchange", "Route-server peers"},
	}
	for i := range r.Exchanges {
		t.Rows = append(t.Rows, []string{r.Exchanges[i], fmt.Sprintf("%d", r.Peers[i])})
	}
	return t.String()
}

// ---------------------------------------------------------------- Figure 2

// Fig2Result is the monthly class breakdown (WWDup excluded, as in the
// paper's Figure 2).
type Fig2Result struct {
	Months []core.MonthKey
	// Counts[m][class] for the classes AADiff, WADiff, WADup, AADup, Other.
	Counts map[core.MonthKey][core.NumClasses]int
}

// Fig2 computes the monthly breakdown of update classes.
func Fig2(acc *core.Accumulator) Fig2Result {
	counts := acc.MonthlyCounts()
	r := Fig2Result{Counts: counts}
	for m := range counts {
		r.Months = append(r.Months, m)
	}
	sort.Slice(r.Months, func(i, j int) bool {
		a, b := r.Months[i], r.Months[j]
		if a.Year != b.Year {
			return a.Year < b.Year
		}
		return a.Month < b.Month
	})
	return r
}

// String renders Figure 2 as a table plus bars.
func (r Fig2Result) String() string {
	t := Table{
		Title:  "Figure 2: monthly breakdown of routing updates (WWDup excluded)",
		Header: []string{"Month", "AADiff", "WADiff", "WADup", "AADup", "Other"},
	}
	for _, m := range r.Months {
		c := r.Counts[m]
		t.Rows = append(t.Rows, []string{
			m.String(),
			FormatCount(c[core.AADiff]), FormatCount(c[core.WADiff]),
			FormatCount(c[core.WADup]), FormatCount(c[core.AADup]),
			FormatCount(c[core.Other]),
		})
	}
	return t.String()
}

// ---------------------------------------------------------------- Figure 3

// Fig3Result is the update density matrix: one row per day, 144 ten-minute
// slots, thresholded on the detrended log of instability.
type Fig3Result struct {
	Start time.Time
	// Grid[d][s] is the raw instability count for day d, slot s.
	Grid [][]float64
	// Above[d][s] marks slots above the detrended threshold.
	Above [][]bool
	// Missing[d][s] marks slots with no data on outage days.
	Missing [][]bool
	// TrendSlope is the fitted linear growth of log instability per slot.
	TrendSlope float64
	// Weekend[d] marks Saturdays and Sundays.
	Weekend []bool
}

// Fig3 computes the density matrix with log detrending, mirroring §5.1.
func Fig3(acc *core.Accumulator, outageDays map[core.Date]bool) Fig3Result {
	start, series := acc.TenMinSeries()
	days := len(series) / core.TenMinBins
	res, slope := analysis.LogDetrend(series)
	// Threshold above the mean of the detrended data (the paper picks a
	// point above the mean).
	threshold := analysis.Mean(res) + 0.5
	out := Fig3Result{Start: start, TrendSlope: slope * core.TenMinBins} // per day
	for d := 0; d < days; d++ {
		date := core.DateOf(start.AddDate(0, 0, d))
		row := series[d*core.TenMinBins : (d+1)*core.TenMinBins]
		resRow := res[d*core.TenMinBins : (d+1)*core.TenMinBins]
		above := make([]bool, core.TenMinBins)
		missing := make([]bool, core.TenMinBins)
		for s := range above {
			above[s] = resRow[s] > threshold
			missing[s] = outageDays[date] && row[s] == 0
		}
		out.Grid = append(out.Grid, row)
		out.Above = append(out.Above, above)
		out.Missing = append(out.Missing, missing)
		wd := date.Weekday()
		out.Weekend = append(out.Weekend, wd == time.Saturday || wd == time.Sunday)
	}
	return out
}

// String renders the density matrix, one text row per day (time runs across).
func (r Fig3Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 3: instability density (rows=days from %s, cols=10-minute slots; '#' above detrended threshold)\n",
		r.Start.Format("2006-01-02"))
	fmt.Fprintf(&sb, "fitted log-linear trend: %+.4f per day\n", r.TrendSlope)
	for d := range r.Above {
		marker := ' '
		if r.Weekend[d] {
			marker = 'w'
		}
		vals := r.Grid[d]
		thresholded := make([]float64, len(vals))
		for i := range vals {
			if r.Above[d][i] {
				thresholded[i] = 1
			}
		}
		sb.WriteByte(byte(marker))
		sb.WriteByte(' ')
		sb.WriteString(DensityRow(thresholded, 0.5, r.Missing[d]))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ---------------------------------------------------------------- Figure 4

// Fig4Result is one week of ten-minute instability aggregates.
type Fig4Result struct {
	Start  time.Time
	Series []float64 // 7*144 slots
}

// Fig4 extracts a representative week starting at the given date.
func Fig4(acc *core.Accumulator, weekStart core.Date) Fig4Result {
	start, series := acc.TenMinSeries()
	first := core.DateOf(start)
	offset := int(weekStart-first) * core.TenMinBins
	out := Fig4Result{Start: weekStart.Time()}
	for i := 0; i < 7*core.TenMinBins; i++ {
		if idx := offset + i; idx >= 0 && idx < len(series) {
			out.Series = append(out.Series, series[idx])
		}
	}
	return out
}

// String renders the week as a per-2-hour bar chart.
func (r Fig4Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Figure 4: week of instability starting %s (2-hour bars)\n", r.Start.Format("2006-01-02 Monday"))
	max := 0.0
	agg := make([]float64, len(r.Series)/12)
	for i := range agg {
		for j := 0; j < 12; j++ {
			agg[i] += r.Series[i*12+j]
		}
		if agg[i] > max {
			max = agg[i]
		}
	}
	for i, v := range agg {
		day := r.Start.AddDate(0, 0, i/12)
		fmt.Fprintf(&sb, "%s %02d:00 %6.0f %s\n", day.Format("Mon"), (i%12)*2, v, Bar(v, max, 50))
	}
	return sb.String()
}

// ---------------------------------------------------------------- Figure 5

// Fig5Result carries the spectral analysis of hourly instability.
type Fig5Result struct {
	// FFTPeaks and MEMPeaks are the top spectral peaks (period in hours).
	FFTPeaks []analysis.Peak
	MEMPeaks []analysis.Peak
	// SSA lists the top singular-spectrum components.
	SSA []analysis.SSAComponent
	// Significant are the FFT peaks exceeding the 99% white-noise level.
	Significant []analysis.Peak
}

// Fig5 runs the paper's §5.1 time-series analysis on the accumulator's
// hourly instability series (log-detrended, as in the paper).
func Fig5(acc *core.Accumulator, seed int64) Fig5Result {
	_, hourly := acc.HourlySeries()
	detrended, _ := analysis.LogDetrend(hourly)
	var out Fig5Result
	if len(detrended) < 64 {
		return out
	}
	freqs, power := analysis.CorrelogramFFT(detrended, min(len(detrended)/3, 24*21))
	out.FFTPeaks = analysis.TopPeaks(freqs, power, 5)
	mf, mp := analysis.MEMSpectrum(detrended, min(len(detrended)/4, 96), 1024)
	out.MEMPeaks = analysis.TopPeaks(mf, mp, 5)
	window := 24 * 8
	if len(detrended) >= 2*window {
		out.SSA = analysis.SSA(detrended, window, 5)
	}
	rng := rand.New(rand.NewSource(seed))
	out.Significant = analysis.SignificantPeaks(detrended, 5, 30, 0.99, rng)
	return out
}

// HasPeriod reports whether any of the peaks corresponds to a period within
// tol (fractional) of the target period in samples.
func HasPeriod(peaks []analysis.Peak, period, tol float64) bool {
	for _, p := range peaks {
		got := analysis.PeriodOf(p.Freq)
		if got > period*(1-tol) && got < period*(1+tol) {
			return true
		}
	}
	return false
}

// String renders Figure 5.
func (r Fig5Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 5: spectral analysis of hourly instability (periods in hours)\n")
	write := func(name string, peaks []analysis.Peak) {
		fmt.Fprintf(&sb, "%-12s", name)
		for _, p := range peaks {
			fmt.Fprintf(&sb, "  %.1fh", analysis.PeriodOf(p.Freq))
		}
		sb.WriteByte('\n')
	}
	write("FFT peaks:", r.FFTPeaks)
	write("MEM peaks:", r.MEMPeaks)
	write("99% sig.:", r.Significant)
	sb.WriteString("SSA components (variance share @ period):\n")
	for i, c := range r.SSA {
		fmt.Fprintf(&sb, "  %d: %.1f%% @ %.1fh\n", i+1, c.VarianceShare*100, c.Period)
	}
	return sb.String()
}

// ---------------------------------------------------------------- Figure 6

// Fig6Point is one (peer, day) observation: share of the routing table vs
// share of that day's updates in one class.
type Fig6Point struct {
	Peer        core.PeerKey
	Date        core.Date
	TableShare  float64
	UpdateShare float64
}

// Fig6Result holds the scatter per class.
type Fig6Result struct {
	Points map[core.Class][]Fig6Point
	// Correlation is the Pearson correlation between table share and update
	// share per class; the paper finds no strong correlation.
	Correlation map[core.Class]float64
}

// Fig6 computes the AS-contribution scatter for AADiff, WADiff, AADup,
// WADup.
func Fig6(acc *core.Accumulator) Fig6Result {
	classes := []core.Class{core.AADiff, core.WADiff, core.AADup, core.WADup}
	out := Fig6Result{
		Points:      make(map[core.Class][]Fig6Point),
		Correlation: make(map[core.Class]float64),
	}
	for _, d := range acc.Dates() {
		s := acc.Days[d]
		if s.TotalTable == 0 {
			continue
		}
		var dayTotals [core.NumClasses]int
		for _, pd := range s.ByPeer {
			for c, v := range pd.Counts {
				dayTotals[c] += v
			}
		}
		for peer, pd := range s.ByPeer {
			tableShare := float64(s.PeerTable[peer]) / float64(s.TotalTable)
			for _, c := range classes {
				if dayTotals[c] == 0 {
					continue
				}
				out.Points[c] = append(out.Points[c], Fig6Point{
					Peer: peer, Date: d,
					TableShare:  tableShare,
					UpdateShare: float64(pd.Counts[c]) / float64(dayTotals[c]),
				})
			}
		}
	}
	for _, c := range classes {
		pts := out.Points[c]
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i], ys[i] = p.TableShare, p.UpdateShare
		}
		out.Correlation[c] = analysis.Correlation(xs, ys)
	}
	return out
}

// String summarizes Figure 6.
func (r Fig6Result) String() string {
	t := Table{
		Title:  "Figure 6: AS contribution to updates vs routing-table share",
		Header: []string{"Class", "Points", "corr(table share, update share)"},
		Note:   "The paper finds no correlation between AS size and update share.",
	}
	for _, c := range []core.Class{core.AADiff, core.WADiff, core.AADup, core.WADup} {
		t.Rows = append(t.Rows, []string{
			c.String(), fmt.Sprintf("%d", len(r.Points[c])), fmt.Sprintf("%+.3f", r.Correlation[c]),
		})
	}
	return t.String()
}

// ---------------------------------------------------------------- Figure 7

// Fig7Result holds daily cumulative distributions of Prefix+AS update
// counts per class.
type Fig7Result struct {
	// Support is the evaluation grid (update-count thresholds).
	Support []int
	// Curves[class][day] is the CDF evaluated on Support.
	Curves map[core.Class][][]float64
	// MedianAtTen[class] is the median (across days) share of events from
	// Prefix+AS pairs seen <= 10 times.
	MedianAtTen map[core.Class]float64
	// MedianAtFifty is the same at <= 50 events.
	MedianAtFifty map[core.Class]float64
}

// Fig7 computes the daily Prefix+AS cumulative distributions.
func Fig7(acc *core.Accumulator) Fig7Result {
	classes := []core.Class{core.AADiff, core.WADiff, core.AADup, core.WADup}
	support := []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
	out := Fig7Result{
		Support:       support,
		Curves:        make(map[core.Class][][]float64),
		MedianAtTen:   make(map[core.Class]float64),
		MedianAtFifty: make(map[core.Class]float64),
	}
	idxOf := func(v int) int {
		for i, s := range support {
			if s == v {
				return i
			}
		}
		return -1
	}
	at10, at50 := idxOf(10), idxOf(50)
	perClassAt10 := make(map[core.Class][]float64)
	perClassAt50 := make(map[core.Class][]float64)
	for _, d := range acc.Dates() {
		s := acc.Days[d]
		for _, c := range classes {
			var counts []int
			for _, pc := range s.ByPrefixAS {
				if pc[c] > 0 {
					counts = append(counts, pc[c])
				}
			}
			if len(counts) == 0 {
				continue
			}
			curve := analysis.CDF(counts, support)
			out.Curves[c] = append(out.Curves[c], curve)
			perClassAt10[c] = append(perClassAt10[c], curve[at10])
			perClassAt50[c] = append(perClassAt50[c], curve[at50])
		}
	}
	for _, c := range classes {
		out.MedianAtTen[c] = analysis.Quantile(perClassAt10[c], 0.5)
		out.MedianAtFifty[c] = analysis.Quantile(perClassAt50[c], 0.5)
	}
	return out
}

// String summarizes Figure 7.
func (r Fig7Result) String() string {
	t := Table{
		Title:  "Figure 7: cumulative distribution of Prefix+AS update counts",
		Header: []string{"Class", "days", "median share from pairs <=10/day", "<=50/day"},
	}
	for _, c := range []core.Class{core.AADiff, core.WADiff, core.AADup, core.WADup} {
		t.Rows = append(t.Rows, []string{
			c.String(), fmt.Sprintf("%d", len(r.Curves[c])),
			fmt.Sprintf("%.0f%%", r.MedianAtTen[c]*100),
			fmt.Sprintf("%.0f%%", r.MedianAtFifty[c]*100),
		})
	}
	return t.String()
}

// ---------------------------------------------------------------- Figure 8

// Fig8Result holds the inter-arrival histograms with per-day quartiles.
type Fig8Result struct {
	// Median/Q1/Q3[class][bin] are the daily-proportion quartiles.
	Median map[core.Class][]float64
	Q1     map[core.Class][]float64
	Q3     map[core.Class][]float64
	// ThirtyAndSixty[class] is the median combined share of the 30s and 1m
	// bins (the paper: about half).
	ThirtyAndSixty map[core.Class]float64
}

// Fig8 computes inter-arrival histogram quartiles across days.
func Fig8(acc *core.Accumulator) Fig8Result {
	classes := []core.Class{core.AADiff, core.WADiff, core.AADup, core.WADup}
	out := Fig8Result{
		Median:         make(map[core.Class][]float64),
		Q1:             make(map[core.Class][]float64),
		Q3:             make(map[core.Class][]float64),
		ThirtyAndSixty: make(map[core.Class]float64),
	}
	for _, c := range classes {
		perBin := make([][]float64, core.NumBins)
		var combined []float64
		for _, d := range acc.Dates() {
			s := acc.Days[d]
			total := 0
			for _, v := range s.InterArrival[c] {
				total += v
			}
			if total == 0 {
				continue
			}
			for b, v := range s.InterArrival[c] {
				perBin[b] = append(perBin[b], float64(v)/float64(total))
			}
			combined = append(combined, float64(s.InterArrival[c][2]+s.InterArrival[c][3])/float64(total))
		}
		med := make([]float64, core.NumBins)
		q1 := make([]float64, core.NumBins)
		q3 := make([]float64, core.NumBins)
		for b := range perBin {
			q1[b], med[b], q3[b] = analysis.Quartiles(perBin[b])
		}
		out.Median[c], out.Q1[c], out.Q3[c] = med, q1, q3
		out.ThirtyAndSixty[c] = analysis.Quantile(combined, 0.5)
	}
	return out
}

// String renders Figure 8.
func (r Fig8Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 8: inter-arrival time histograms (median daily proportion per bin)\n")
	fmt.Fprintf(&sb, "%-8s", "bin")
	for _, l := range core.BinLabels {
		fmt.Fprintf(&sb, "%6s", l)
	}
	sb.WriteByte('\n')
	for _, c := range []core.Class{core.AADiff, core.WADiff, core.AADup, core.WADup} {
		fmt.Fprintf(&sb, "%-8s", c)
		for _, v := range r.Median[c] {
			fmt.Fprintf(&sb, "%6.2f", v)
		}
		fmt.Fprintf(&sb, "   [30s+1m share: %.0f%%]\n", r.ThirtyAndSixty[c]*100)
	}
	return sb.String()
}

// ---------------------------------------------------------------- Figure 9

// Fig9Day is one day's proportions of routes affected.
type Fig9Day struct {
	Date core.Date
	// WADiffFrac etc. are fractions of the routing table touched by at
	// least one event of the class.
	WADiffFrac float64
	AADiffFrac float64
	AnyFrac    float64
	StableFrac float64
}

// Fig9Result is the daily series of affected-route proportions.
type Fig9Result struct {
	Days []Fig9Day
}

// Fig9 computes the proportion of routes affected per day, skipping days
// with collector outages (the paper keeps days with >=80% of data).
func Fig9(acc *core.Accumulator, skip map[core.Date]bool) Fig9Result {
	var out Fig9Result
	for _, d := range acc.Dates() {
		if skip[d] {
			continue
		}
		s := acc.Days[d]
		if s.TotalTable == 0 {
			continue
		}
		table := float64(s.TotalTable)
		day := Fig9Day{Date: d}
		day.WADiffFrac = float64(s.RoutesAffected(func(c *[core.NumClasses]int) bool { return c[core.WADiff] > 0 })) / table
		day.AADiffFrac = float64(s.RoutesAffected(func(c *[core.NumClasses]int) bool { return c[core.AADiff] > 0 })) / table
		day.AnyFrac = float64(s.RoutesAffected(func(c *[core.NumClasses]int) bool {
			for _, v := range c {
				if v > 0 {
					return true
				}
			}
			return false
		})) / table
		instab := float64(s.RoutesAffected(func(c *[core.NumClasses]int) bool {
			return c[core.WADiff] > 0 || c[core.AADiff] > 0 || c[core.WADup] > 0
		}))
		day.StableFrac = 1 - instab/table
		out.Days = append(out.Days, day)
	}
	return out
}

// String renders Figure 9 medians.
func (r Fig9Result) String() string {
	var wa, aa, any, stable []float64
	for _, d := range r.Days {
		wa = append(wa, d.WADiffFrac)
		aa = append(aa, d.AADiffFrac)
		any = append(any, d.AnyFrac)
		stable = append(stable, d.StableFrac)
	}
	t := Table{
		Title:  "Figure 9: proportion of routes affected by updates per day",
		Header: []string{"Metric", "Q1", "Median", "Q3"},
	}
	row := func(name string, xs []float64) {
		q1, med, q3 := analysis.Quartiles(xs)
		t.Rows = append(t.Rows, []string{name,
			fmt.Sprintf("%.0f%%", q1*100), fmt.Sprintf("%.0f%%", med*100), fmt.Sprintf("%.0f%%", q3*100)})
	}
	row(">=1 WADiff", wa)
	row(">=1 AADiff", aa)
	row(">=1 any event", any)
	row("stable (no instability)", stable)
	return t.String()
}

// --------------------------------------------------------------- Figure 10

// Fig10Result is the multihomed-prefix census time series.
type Fig10Result struct {
	Dates      []core.Date
	Multihomed []int
	Prefixes   []int
	// GrowthPerDay is the least-squares slope of the multihomed count.
	GrowthPerDay float64
	// FinalShare is multihomed/prefixes on the last day.
	FinalShare float64
}

// Fig10 builds the multihoming series from per-day censuses.
func Fig10(census map[core.Date]rib.Census) Fig10Result {
	var out Fig10Result
	for d := range census {
		out.Dates = append(out.Dates, d)
	}
	sort.Slice(out.Dates, func(i, j int) bool { return out.Dates[i] < out.Dates[j] })
	series := make([]float64, 0, len(out.Dates))
	for _, d := range out.Dates {
		c := census[d]
		out.Multihomed = append(out.Multihomed, c.Multihomed)
		out.Prefixes = append(out.Prefixes, c.Prefixes)
		series = append(series, float64(c.Multihomed))
	}
	_, out.GrowthPerDay = analysis.LinearFit(series)
	if n := len(out.Dates); n > 0 && out.Prefixes[n-1] > 0 {
		out.FinalShare = float64(out.Multihomed[n-1]) / float64(out.Prefixes[n-1])
	}
	return out
}

// String renders Figure 10.
func (r Fig10Result) String() string {
	var sb strings.Builder
	sb.WriteString("Figure 10: multihomed prefixes in the routing table\n")
	fmt.Fprintf(&sb, "growth: %+.2f prefixes/day; final multihomed share: %.0f%%\n",
		r.GrowthPerDay, r.FinalShare*100)
	step := len(r.Dates) / 12
	if step == 0 {
		step = 1
	}
	max := 0.0
	for _, v := range r.Multihomed {
		if float64(v) > max {
			max = float64(v)
		}
	}
	for i := 0; i < len(r.Dates); i += step {
		fmt.Fprintf(&sb, "%s %6d %s\n", r.Dates[i], r.Multihomed[i], Bar(float64(r.Multihomed[i]), max, 40))
	}
	return sb.String()
}
