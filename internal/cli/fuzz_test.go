package cli

import (
	"math"
	"testing"
)

// FuzzParseConnChaos holds bgpcollect's -chaos grammar to its documented
// ranges: a spec it accepts has resetp in [0,1] and maxdelay not negative,
// so a NaN probability is refused.
func FuzzParseConnChaos(f *testing.F) {
	f.Add("seed=1,resetp=0.01,maxdelay=5ms")
	f.Add("resetp=NaN")
	f.Add("resetp=1,resetp=1.5")
	f.Add("maxdelay=-5ms")
	f.Add(" seed=-3 , maxdelay=0")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		k, err := parseConnChaos(spec)
		if err != nil || k == nil {
			return
		}
		if math.IsNaN(k.resetP) || k.resetP < 0 || k.resetP > 1 || k.maxDelay < 0 {
			t.Fatalf("%q accepted with resetp %v, maxdelay %v", spec, k.resetP, k.maxDelay)
		}
	})
}
