package obs

import (
	"runtime"
	"time"
)

// Runtime health gauges, sampled by a background collector started with the
// exposition server (Serve) or explicitly via StartRuntimeCollector:
//
//	irtl_runtime_goroutines        live goroutine count
//	irtl_runtime_heap_bytes        heap in use (MemStats.HeapAlloc)
//	irtl_runtime_gomaxprocs        GOMAXPROCS at last sample
//	irtl_runtime_gc_total          completed GC cycles
//	irtl_runtime_gc_pause_seconds  histogram of individual GC pause times
//
// Before this, runtime health was invisible outside /debug/pprof.

// runtimePauseBuckets spans 10µs..1s, the plausible range of Go STW pauses.
var runtimePauseBuckets = ExpBuckets(10e-6, 10, 6)

// StartRuntimeCollector samples runtime stats into r every interval (default
// 10s) until the returned stop function is called. Stop is idempotent.
func StartRuntimeCollector(r *Registry, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	goroutines := r.Gauge("irtl_runtime_goroutines", "Live goroutines at last sample.")
	heap := r.Gauge("irtl_runtime_heap_bytes", "Heap bytes in use at last sample.")
	maxprocs := r.Gauge("irtl_runtime_gomaxprocs", "GOMAXPROCS at last sample.")
	gcTotal := r.Gauge("irtl_runtime_gc_total", "Completed GC cycles.")
	pauses := r.Histogram("irtl_runtime_gc_pause_seconds", "Individual GC stop-the-world pause times.", runtimePauseBuckets)

	var lastGC uint32
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(float64(runtime.NumGoroutine()))
		heap.Set(float64(ms.HeapAlloc))
		maxprocs.Set(float64(runtime.GOMAXPROCS(0)))
		gcTotal.Set(float64(ms.NumGC))
		// Feed each pause seen since the last sample into the histogram.
		// PauseNs is a 256-entry ring indexed by cycle number.
		n := ms.NumGC - lastGC
		if n > uint32(len(ms.PauseNs)) {
			n = uint32(len(ms.PauseNs))
		}
		for i := uint32(0); i < n; i++ {
			idx := (ms.NumGC - i + uint32(len(ms.PauseNs)) - 1) % uint32(len(ms.PauseNs))
			pauses.Observe(float64(ms.PauseNs[idx]) / 1e9)
		}
		lastGC = ms.NumGC
	}
	sample()

	done := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sample()
			case <-done:
				return
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		close(done)
		<-stopped
	}
}
