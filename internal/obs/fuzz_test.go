package obs

import "testing"

// FuzzTraceHeader guards X-Irtl-Trace, the only carrier of trace context
// between client and server: parsing any string never panics, what
// FormatTraceHeader writes parses back to its inputs, and what parses
// re-formats to a header that parses to the same context.
func FuzzTraceHeader(f *testing.F) {
	f.Add("deadbeefcafef00d-0123456789abcdef-1", uint64(0xdeadbeefcafef00d), uint64(0x0123456789abcdef), true)
	f.Add("0000000000000000-0000000000000001-1", uint64(0), uint64(1), false)
	f.Add("000000000000000g-0000000000000001-1", uint64(1), uint64(0), true)
	f.Add("00000000000000010000000000000001-1", uint64(1<<63), uint64(1<<63), false)
	f.Add("", uint64(1), uint64(2), false)
	f.Fuzz(func(t *testing.T, s string, traceID, spanID uint64, sampled bool) {
		if tid, sid, smp, ok := ParseTraceHeader(s); ok {
			h := FormatTraceHeader(tid, sid, smp)
			if t2, s2, smp2, ok2 := ParseTraceHeader(h); !ok2 || t2 != tid || s2 != sid || smp2 != smp {
				t.Fatalf("%q parsed to (%x, %x, %v), re-formatted as %q, which parses to (%x, %x, %v, %v)",
					s, tid, sid, smp, h, t2, s2, smp2, ok2)
			}
			if tid == 0 {
				t.Fatalf("%q accepted with a zero trace ID", s)
			}
		}
		h := FormatTraceHeader(traceID, spanID, sampled)
		gotT, gotS, gotSampled, ok := ParseTraceHeader(h)
		if traceID == 0 {
			if ok {
				t.Fatalf("%q (zero trace ID) accepted", h)
			}
			return
		}
		if !ok || gotT != traceID || gotS != spanID || gotSampled != sampled {
			t.Fatalf("(%x, %x, %v) via %q parsed to (%x, %x, %v, %v)", traceID, spanID, sampled, h, gotT, gotS, gotSampled, ok)
		}
	})
}
