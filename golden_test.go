package instability_test

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"instability"
	"instability/internal/core"
	"instability/internal/detect"
	"instability/internal/rib"
	"instability/internal/workload"
)

// analyzeGolden is the checked-in rendering of the analysis outputs on the
// golden campaigns: every per-day statistic, every day's table census, and
// the detector's alert list.
const analyzeGolden = "analyze-golden.txt"

// goldenCampaigns are the streams the golden pins: the five adversarial
// scenarios on consecutive days, and a small week with a flood and a
// collector outage.
func goldenCampaigns() []struct {
	name string
	cfg  workload.Config
} {
	week := workload.SmallConfig()
	week.Days = 7
	week.Incidents = []workload.Incident{
		{Kind: workload.PathologicalFlood, Day: 2, Magnitude: 0.5},
		{Kind: workload.CollectorOutage, Day: 5, Magnitude: 1},
	}
	return []struct {
		name string
		cfg  workload.Config
	}{
		{"adversary-2", workload.AdversaryConfig(2)},
		{"small-flood-outage", week},
	}
}

// TestAnalyzeGolden runs each golden campaign through the pipeline, with the
// detector on its hooks, and diffs the rendered outputs against the
// checked-in file.
// Regenerate (only when the analysis is meant to change) with
//
//	ANALYZE_WRITE_GOLDEN=1 go test -run TestAnalyzeGolden .
func TestAnalyzeGolden(t *testing.T) {
	render := func() string {
		var b strings.Builder
		for _, c := range goldenCampaigns() {
			p := instability.NewPipeline()
			det := attachDetector(p)
			if _, _, err := instability.RunScenario(c.cfg, p); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "campaign %s\n", c.name)
			renderAnalysis(&b, p.Acc, p.CensusByDay, det.Finish())
		}
		return b.String()
	}

	path := filepath.Join("testdata", analyzeGolden)
	if os.Getenv("ANALYZE_WRITE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(render()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (regenerate with ANALYZE_WRITE_GOLDEN=1): %v", err)
	}
	t.Run("serial", func(t *testing.T) {
		got := render()
		if got == string(want) {
			return
		}
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
			}
		}
	})
}

// renderAnalysis writes every exported DayStats field (maps in key order),
// the day's census, and the alert list, one fact per line.
func renderAnalysis(b *strings.Builder, acc *core.Accumulator, census map[core.Date]rib.Census, alerts []detect.Alert) {
	peerCmp := func(x, y core.PeerKey) int {
		return cmp.Or(cmp.Compare(x.AS, y.AS), cmp.Compare(x.Addr, y.Addr))
	}
	for _, d := range acc.Dates() {
		s := acc.Days[d]
		fmt.Fprintf(b, "day %s\n", d)
		fmt.Fprintf(b, " counts %v policy-shifts %d peak-second %d total-table %d\n",
			s.Counts, s.PolicyShifts, s.PeakSecond, s.TotalTable)
		fmt.Fprintf(b, " tenmin-instability %v\n", s.TenMinInstability)
		fmt.Fprintf(b, " tenmin-all %v\n", s.TenMinAll)
		fmt.Fprintf(b, " inter-arrival %v\n", s.InterArrival)
		for _, p := range sortedKeys(s.ByPeer, peerCmp) {
			pd := s.ByPeer[p]
			fmt.Fprintf(b, " peer %d %s %v A %d W %d\n", p.AS, p.Addr, pd.Counts, pd.Announcements, pd.Withdrawals)
		}
		for _, pa := range sortedKeys(s.ByPrefixAS, func(x, y core.PrefixAS) int {
			return cmp.Or(x.Prefix.Compare(y.Prefix), cmp.Compare(x.AS, y.AS))
		}) {
			fmt.Fprintf(b, " prefix-as %s %d %v\n", pa.Prefix, pa.AS, *s.ByPrefixAS[pa])
		}
		for _, p := range sortedKeys(s.PeerTable, peerCmp) {
			fmt.Fprintf(b, " table %d %s %d\n", p.AS, p.Addr, s.PeerTable[p])
		}
		fmt.Fprintf(b, " census %+v\n", census[d])
	}
	fmt.Fprintf(b, "alerts %d\n", len(alerts))
	for _, a := range alerts {
		fmt.Fprintf(b, " %+v\n", a)
	}
}

// sortedKeys returns m's keys in cmp order.
func sortedKeys[K comparable, V any](m map[K]V, cmp func(K, K) int) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, cmp)
	return keys
}
