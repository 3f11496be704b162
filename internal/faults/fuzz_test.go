package faults

import (
	"math"
	"testing"
)

// FuzzParseSpec checks the -chaos parser against its own documentation:
// every Plan it accepts has no negative count or delay and every
// probability in [0,1].
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=42,failsync=3,flipreadp=0.01")
	f.Add("seed=7,tornwrite=5,crashop=40,opdelay=2ms")
	f.Add("writeerr=7")
	f.Add("flipreadp=NaN")
	f.Add("failwrite=-1,opdelay=-1s")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for _, n := range []int{p.FailOpenN, p.FailWriteN, p.TornWriteN, p.FailSyncN, p.CrashAtOp, p.FlipReadBitN} {
			if n < 0 {
				t.Fatalf("%q accepted with a negative count: %+v", spec, p)
			}
		}
		for _, prob := range []float64{p.WriteErrProb, p.ShortWriteProb, p.FlipReadBitProb} {
			if math.IsNaN(prob) || prob < 0 || prob > 1 {
				t.Fatalf("%q accepted with probability %v: %+v", spec, prob, p)
			}
		}
		if p.MaxOpDelay < 0 {
			t.Fatalf("%q accepted with a negative delay: %+v", spec, p)
		}
	})
}
