package instability

import (
	"runtime"
	"testing"

	"instability/internal/workload"
)

// TestCloseReleasesShards: once a sharded pipeline is closed and dropped,
// nothing process-wide (the obs registry's queue-depth gauges) keeps its
// shards' classifiers and accumulators reachable.
func TestCloseReleasesShards(t *testing.T) {
	const shards = 2
	freed := make(chan struct{}, shards)
	func() {
		p := NewShardedPipeline(shards)
		cfg := workload.SmallConfig()
		cfg.Days = 2
		if _, _, err := RunScenario(cfg, p); err != nil {
			t.Fatal(err)
		}
		p.Close()
		for _, sh := range p.shards {
			runtime.SetFinalizer(sh.p, func(*Pipeline) { freed <- struct{}{} })
		}
	}()
	for i := 0; i < 20 && len(freed) < shards; i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if n := len(freed); n != shards {
		t.Fatalf("%d of %d closed shard pipelines freed", n, shards)
	}
}
