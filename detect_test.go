package instability_test

import (
	"reflect"
	"testing"
	"time"

	"instability"
	"instability/internal/core"
	"instability/internal/detect"
	"instability/internal/workload"
)

// attachDetector wires a fresh detector into p's hooks: every classified
// event feeds the detector and every day barrier finalizes its windows.
func attachDetector(p *instability.Pipeline) *detect.Detector {
	det := detect.New(detect.Config{})
	p.Events = det.Add
	p.DayEnd = func(d core.Date) { det.Advance(d.Time().AddDate(0, 0, 1)) }
	return det
}

// runDetection runs cfg through the serial pipeline with a detector
// attached and returns the closed alert stream plus ground truth.
func runDetection(t *testing.T, cfg workload.Config) ([]detect.Alert, []detect.Truth) {
	t.Helper()
	p := instability.NewPipeline()
	det := attachDetector(p)
	_, g, err := instability.RunScenario(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return det.Finish(), g.GroundTruth()
}

// TestGoldenScenarioDetection is the detection quality contract: each
// adversarial scenario, injected as three consecutive daily episodes over
// the small background, must be detected at >= 0.9 precision AND >= 0.9
// recall, across seeds. Detection latency per scenario is reported.
func TestGoldenScenarioDetection(t *testing.T) {
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, kind := range workload.AdversaryScenarios {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for _, seed := range seeds {
				cfg := workload.ScenarioConfig(kind, 3, seed)
				alerts, truths := runDetection(t, cfg)
				sc := detect.Evaluate(alerts, truths, 15*time.Minute)
				for _, s := range sc.Scenarios {
					t.Logf("seed=%d %s: %d/%d episodes detected by %d alerts, detection latency mean=%s max=%s",
						seed, s.Scenario, s.Detected, s.Truths, s.Alerts, s.MeanLatency, s.MaxLatency)
				}
				if sc.Precision >= 0.9 && sc.Recall >= 0.9 {
					continue
				}
				t.Errorf("seed=%d precision=%.3f recall=%.3f, want >= 0.9 on both", seed, sc.Precision, sc.Recall)
				for _, a := range alerts {
					t.Logf("  alert %-6s %s peer=%d prefix=%s %s .. %s windows=%d records=%d peak=%.1f",
						a.Channel, a.Class, a.Peer, a.Prefix,
						a.Start.Format("01-02 15:04"), a.End.Format("01-02 15:04"),
						a.Windows, a.Records, a.Peak)
				}
			}
		})
	}
}

// TestGoldenCombinedCampaign runs all five scenarios on consecutive days
// of one campaign and holds the same quality bar.
func TestGoldenCombinedCampaign(t *testing.T) {
	alerts, truths := runDetection(t, workload.AdversaryConfig(1))
	sc := detect.Evaluate(alerts, truths, 15*time.Minute)
	t.Logf("combined: %s", sc)
	if sc.Precision < 0.9 || sc.Recall < 0.9 {
		t.Errorf("precision=%.3f recall=%.3f, want >= 0.9 on both", sc.Precision, sc.Recall)
	}
	for _, s := range sc.Scenarios {
		if s.Detected < s.Truths {
			t.Errorf("%s: detected %d of %d episodes", s.Scenario, s.Detected, s.Truths)
		}
	}
}

// TestDetectorSerialParallelEquivalence is the detector's determinism
// contract, and — under -race — the hammer on its concurrent Add path: a
// sharded pipeline calls det.Add from every shard goroutine, and the
// alert stream must still be identical to the serial feed's.
func TestDetectorSerialParallelEquivalence(t *testing.T) {
	cfg := workload.AdversaryConfig(2)

	p := instability.NewPipeline()
	serialDet := attachDetector(p)
	if _, _, err := instability.RunScenario(cfg, p); err != nil {
		t.Fatal(err)
	}
	serial := serialDet.Finish()

	for _, shards := range []int{2, 8} {
		pp := instability.NewShardedPipeline(shards)
		parDet := attachDetector(pp)
		if _, _, err := instability.RunScenario(cfg, pp); err != nil {
			t.Fatal(err)
		}
		pp.Close()
		parallel := parDet.Finish()

		if len(serial) != len(parallel) {
			t.Fatalf("shards=%d: serial emitted %d alerts, parallel %d", shards, len(serial), len(parallel))
		}
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("shards=%d alert %d differs:\n  serial   %+v\n  parallel %+v", shards, i, serial[i], parallel[i])
			}
		}
	}
}
