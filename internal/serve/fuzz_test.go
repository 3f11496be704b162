package serve

import (
	"maps"
	"math"
	"testing"
)

// FuzzParseQuotas checks the -tenant-quotas parser: every table it accepts
// is finite, with rates above 0 and bursts of at least 1 — a NaN or infinite
// bucket would shed or admit its tenant forever — and the table's rendering
// parses back to the same table.
func FuzzParseQuotas(f *testing.F) {
	f.Add("dashboards=50:100,batch=2:10,*=5:5")
	f.Add("a=NaN:NaN")
	f.Add("*=Inf:1")
	f.Add("a=0x1p-2:1e3, b = 1:1")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		quotas, def, err := ParseQuotas(spec)
		if err != nil {
			return
		}
		check := func(name string, q Quota) {
			if !(q.Rate > 0) || !(q.Burst >= 1) || math.IsInf(q.Rate, 0) || math.IsInf(q.Burst, 0) {
				t.Fatalf("%q accepted with quota %s=%v:%v", spec, name, q.Rate, q.Burst)
			}
		}
		for name, q := range quotas {
			check(name, q)
		}
		if !def.unlimited() {
			check("*", def)
		}
		if len(quotas) == 0 && def.unlimited() {
			return // renders as "unlimited", which is no spec
		}
		s := quotasString(quotas, def)
		quotas2, def2, err := ParseQuotas(s)
		if err != nil || !maps.Equal(quotas, quotas2) || def != def2 {
			t.Fatalf("%q renders as %q, which parses to %v %v (%v), not %v %v", spec, s, quotas2, def2, err, quotas, def)
		}
	})
}
