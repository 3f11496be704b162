package instability_test

import (
	"fmt"
	"reflect"
	"testing"

	"instability"
	"instability/internal/core"
	"instability/internal/workload"
)

// equivalenceConfig is the campaign the determinism contract is tested on:
// the full 49-day benchmark campaign with all three scripted incidents (the
// same one bench_test.go measures), shrunk to one small week under -short so
// `go test -short -race` stays quick.
func equivalenceConfig(t *testing.T) workload.Config {
	t.Helper()
	if testing.Short() {
		cfg := workload.SmallConfig()
		cfg.Days = 7
		cfg.Incidents = []workload.Incident{
			{Kind: workload.PathologicalFlood, Day: 2, Magnitude: 0.5},
			{Kind: workload.CollectorOutage, Day: 5, Magnitude: 1},
		}
		return cfg
	}
	cfg := workload.DefaultConfig()
	cfg.Days = 49
	cfg.Incidents = []workload.Incident{
		{Kind: workload.PathologicalFlood, Day: 12, Magnitude: 1},
		{Kind: workload.InfrastructureUpgrade, Day: 25, Days: 5, Magnitude: 1},
		{Kind: workload.CollectorOutage, Day: 40, Magnitude: 1},
	}
	return cfg
}

// TestParallelEquivalence is the determinism contract of the sharded
// pipeline: over the whole campaign, every published statistic — total
// counts, per-day stats (Table 1's inputs), ten-minute series (Fig 2-5),
// per-peer and per-prefix tallies, inter-arrival histograms, peak seconds,
// table censuses — must be identical to the serial pipeline's, for any shard
// count.
func TestParallelEquivalence(t *testing.T) {
	cfg := equivalenceConfig(t)
	serial := instability.NewPipeline()
	if _, _, err := instability.RunScenario(cfg, serial); err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			pp := instability.NewShardedPipeline(shards)
			defer pp.Close()
			if _, _, err := instability.RunScenario(cfg, pp); err != nil {
				t.Fatal(err)
			}
			pp.Close()
			compareToSerial(t, serial, pp)
		})
	}
}

func compareToSerial(t *testing.T, serial, pp *instability.Pipeline) {
	t.Helper()
	if got, want := pp.Acc.TotalCounts(), serial.Acc.TotalCounts(); got != want {
		t.Fatalf("TotalCounts: parallel %v, serial %v", got, want)
	}
	if got, want := pp.Acc.Dates(), serial.Acc.Dates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Dates: parallel %v, serial %v", got, want)
	}
	for _, d := range serial.Acc.Dates() {
		ss, ps := serial.Acc.Days[d], pp.Acc.Days[d]
		compareDay(t, d, ss, ps)
	}
	if got, want := pp.CensusByDay, serial.CensusByDay; !reflect.DeepEqual(got, want) {
		t.Fatalf("CensusByDay: parallel %v, serial %v", got, want)
	}
	if got, want := pp.Census(), serial.Census(); got != want {
		t.Fatalf("final census: parallel %+v, serial %+v", got, want)
	}
}

// compareDay checks every exported DayStats field. The struct also has
// unexported in-progress burst counters that legitimately differ (the
// parallel feeder tracks bursts outside the accumulator), so the comparison
// is per-field, not DeepEqual of the whole struct.
func compareDay(t *testing.T, d core.Date, ss, ps *core.DayStats) {
	t.Helper()
	if (ss == nil) != (ps == nil) {
		t.Fatalf("day %v: serial nil=%v parallel nil=%v", d, ss == nil, ps == nil)
	}
	if ss == nil {
		return
	}
	if ss.Counts != ps.Counts {
		t.Errorf("day %v Counts: parallel %v, serial %v", d, ps.Counts, ss.Counts)
	}
	if ss.PolicyShifts != ps.PolicyShifts {
		t.Errorf("day %v PolicyShifts: parallel %d, serial %d", d, ps.PolicyShifts, ss.PolicyShifts)
	}
	if ss.TenMinInstability != ps.TenMinInstability {
		t.Errorf("day %v TenMinInstability differs", d)
	}
	if ss.TenMinAll != ps.TenMinAll {
		t.Errorf("day %v TenMinAll differs", d)
	}
	if !reflect.DeepEqual(ss.ByPeer, ps.ByPeer) {
		t.Errorf("day %v ByPeer differs", d)
	}
	if !reflect.DeepEqual(ss.ByPrefixAS, ps.ByPrefixAS) {
		t.Errorf("day %v ByPrefixAS differs", d)
	}
	if ss.InterArrival != ps.InterArrival {
		t.Errorf("day %v InterArrival differs", d)
	}
	if !reflect.DeepEqual(ss.PeerTable, ps.PeerTable) {
		t.Errorf("day %v PeerTable differs: parallel %v, serial %v", d, ps.PeerTable, ss.PeerTable)
	}
	if ss.TotalTable != ps.TotalTable {
		t.Errorf("day %v TotalTable: parallel %d, serial %d", d, ps.TotalTable, ss.TotalTable)
	}
	if ss.PeakSecond != ps.PeakSecond {
		t.Errorf("day %v PeakSecond: parallel %d, serial %d", d, ps.PeakSecond, ss.PeakSecond)
	}
}
