package benchkit

import (
	"math"
	"sort"
)

// Samples is a local histogram: every observation is kept, so any
// percentile can be read exactly when the run ends.
type Samples []float64

// Add records one observation.
func (s *Samples) Add(v float64) { *s = append(*s, v) }

// Sum returns the total of the observations.
func (s Samples) Sum() float64 {
	t := 0.0
	for _, v := range s {
		t += v
	}
	return t
}

// Max returns the largest observation, 0 when empty.
func (s Samples) Max() float64 {
	m := 0.0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// Quantile returns the nearest-rank q-quantile (0 < q <= 1) of the
// observations, 0 when empty. The receiver is not modified.
func (s Samples) Quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sorted := append(Samples(nil), s...)
	sort.Float64s(sorted)
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Median is Quantile(0.5).
func (s Samples) Median() float64 { return s.Quantile(0.5) }

// tailPercentiles are the candidates of the reporting rule, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.90, 0.50}

// TailPercentile implements the reporting rule: the highest percentile that
// still has at least ten samples beyond it. With fewer than twenty samples
// nothing but the median qualifies.
func TailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		// The epsilon absorbs the binary rounding of 1-p: exactly ten
		// samples beyond must qualify.
		if float64(n)*(1-p) >= 10-1e-9 {
			return p
		}
	}
	return 0.50
}

// share is a/b, 0 when b is 0 — ratios of idle layers read as zero.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
