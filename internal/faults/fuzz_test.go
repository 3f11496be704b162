package faults

import (
	"math"
	"testing"
)

// FuzzParseSpec checks the -chaos parser against its own documentation:
// every Plan it accepts has no negative count or delay and every
// probability, the link keys resetp, dropp and dupp included, in [0,1].
func FuzzParseSpec(f *testing.F) {
	f.Add("seed=42,failsync=3,flipreadp=0.01")
	f.Add("seed=7,tornwrite=5,crashop=40,opdelay=2ms")
	f.Add("writeerr=7")
	f.Add("flipreadp=NaN")
	f.Add("failwrite=-1,opdelay=-1s")
	f.Add("")
	f.Add("seed=1,resetp=0.01,dropp=0.5,dupp=1,opdelay=5ms")
	f.Add("resetp=1.5")
	f.Add("dupp=NaN,dropp=-0.1")
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
		for _, prob := range []float64{p.WriteErrProb, p.ShortWriteProb, p.FlipReadBitProb, p.ResetProb, p.DropProb, p.DupProb} {
			if math.IsNaN(prob) || prob < 0 || prob > 1 {
				t.Fatalf("%q accepted with probability %v: %+v", spec, prob, p)
			}
		}
		if p.MaxOpDelay < 0 {
			t.Fatalf("%q accepted with a negative delay: %+v", spec, p)
		}
	})
}
