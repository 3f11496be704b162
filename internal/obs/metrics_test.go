package obs

import (
	"math"
	"sync"
	"testing"
)

// TestConcurrentHammer batters every instrument type from many goroutines;
// run under -race this is the data-race proof, and the final values prove
// no increments are lost.
func TestConcurrentHammer(t *testing.T) {
	reg := NewRegistry()
	const goroutines = 16
	const perG = 5000

	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Get-or-create races on the same names on purpose.
			c := reg.Counter("hammer_total", "hammered counter")
			g := reg.Gauge("hammer_gauge", "hammered gauge")
			h := reg.Histogram("hammer_seconds", "hammered histogram", nil)
			cl := reg.Counter("hammer_labeled_total", "labeled", L("shard", string(rune('a'+id%4))))
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(j%100) / 1000) // 0..0.099s
				cl.Add(2)
			}
		}(i)
	}
	// Concurrent readers while writers run.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				reg.Value("hammer_total")
				reg.Sum("hammer_labeled_total")
				reg.Counter("hammer_total", "").Value()
				reg.Histogram("hammer_seconds", "", nil).Quantile(0.99)
				var sink [0]byte
				_ = sink
				_ = reg.snapshot()
			}
		}()
	}
	wg.Wait()

	want := int64(goroutines * perG)
	if got := reg.Counter("hammer_total", "").Value(); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	if got := reg.Gauge("hammer_gauge", "").Value(); got != float64(want) {
		t.Errorf("gauge = %g, want %d", got, want)
	}
	h := reg.Histogram("hammer_seconds", "", nil)
	if got := h.Count(); got != uint64(want) {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got := reg.Sum("hammer_labeled_total"); got != float64(2*want) {
		t.Errorf("labeled sum = %g, want %d", got, 2*want)
	}
}

func TestGaugeSetAndDec(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Inc()
	g.Dec()
	g.Dec()
	if got := g.Value(); got != 9 {
		t.Fatalf("gauge = %g, want 9", got)
	}
	g.SetInt(-3)
	if got := g.Value(); got != -3 {
		t.Fatalf("gauge = %g, want -3", got)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-7)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform in (0,1]: all land in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	// Within the first bucket [0,1], p50 interpolates to ~0.5.
	if p := h.Quantile(0.5); math.Abs(p-0.5) > 0.02 {
		t.Errorf("p50 = %g, want ~0.5", p)
	}
	if p := h.Quantile(1); p != 1 {
		t.Errorf("p100 = %g, want 1", p)
	}

	// Add 100 in (1,2]: p75 lands near the 1..2 bucket midpoint region.
	for i := 1; i <= 100; i++ {
		h.Observe(1 + float64(i)/100)
	}
	if p := h.Quantile(0.75); p < 1 || p > 2 {
		t.Errorf("p75 = %g, want in (1,2]", p)
	}
	if got := h.Count(); got != 200 {
		t.Errorf("count = %d, want 200", got)
	}

	// Overflow clamps to the last edge.
	h.Observe(100)
	if p := h.Quantile(1); p != 8 {
		t.Errorf("overflow p100 = %g, want 8", p)
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	h := newHistogram(DurationBuckets)
	if p := h.Quantile(0.99); p != 0 {
		t.Fatalf("empty quantile = %g, want 0", p)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("mixed", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	reg.Gauge("mixed", "")
}

func TestFuncBackedSeries(t *testing.T) {
	reg := NewRegistry()
	v := 41.0
	reg.CounterFunc("fn_total", "func counter", func() float64 { return v }, L("class", "AADup"))
	v = 42
	if got := reg.Value("fn_total", L("class", "AADup")); got != 42 {
		t.Fatalf("CounterFunc value = %g, want 42", got)
	}
	// Re-registration replaces the function.
	reg.CounterFunc("fn_total", "", func() float64 { return 7 }, L("class", "AADup"))
	if got := reg.Value("fn_total", L("class", "AADup")); got != 7 {
		t.Fatalf("replaced CounterFunc value = %g, want 7", got)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := newHistogram(DurationBuckets)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-5)
			i++
		}
	})
}
