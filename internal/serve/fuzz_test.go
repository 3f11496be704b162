package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"maps"
	"math"
	"runtime"
	"testing"
	"time"

	"instability/internal/collector"
	"instability/internal/store"
)

// irtqBody encodes recs as the server sends them: batches, then the end
// frame, or an error frame when serr is set.
func irtqBody(tb testing.TB, recs []collector.Record, serr error) []byte {
	tb.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	enc := &irtqEncoder{bw: bw}
	for _, rec := range recs {
		if err := enc.record(rec); err != nil {
			tb.Fatal(err)
		}
	}
	enc.end(wireEnd{Records: len(recs), Explain: store.Explain{Generation: 7}}, serr)
	if err := bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRemoteReader feeds arbitrary response bodies to the IRTQ decoder,
// which reads untrusted network bytes: Next must end in io.EOF or an error
// without panicking, decode no record from nothing, and allocate no more than
// one maximal frame beyond what the body itself accounts for.
func FuzzRemoteReader(f *testing.F) {
	base := time.Date(1996, 5, 1, 0, 0, 0, 0, time.UTC)
	var recs []collector.Record
	for i := 0; i < batchRecords+3; i++ {
		recs = append(recs, testRecord(base.Add(time.Duration(i)*time.Minute), i))
	}
	// Seeds stay small: the engine minimizes every new input it finds
	// interesting, and that takes long on a stream of full batches.
	small := irtqBody(f, recs[:3], nil)
	f.Add(small)
	f.Add(irtqBody(f, recs[:0], nil))
	f.Add(irtqBody(f, recs[:2], errors.New("store: partial scan")))
	f.Add(small[:len(small)/2])
	f.Add(append(bytes.Clone(small), 0))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, frameBatch})
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, frameBatch, 0x80})

	// A stream of more than one batch decodes to exactly what was encoded.
	whole := irtqBody(f, recs, nil)
	r := newRemoteReader(io.NopCloser(bytes.NewReader(whole)), nil)
	got := 0
	for ; ; got++ {
		if _, err := r.Next(); err == io.EOF {
			break
		} else if err != nil {
			f.Fatalf("seed stream: record %d: %v", got, err)
		}
	}
	if got != len(recs) || r.Generation() != 7 {
		f.Fatalf("seed stream: %d records generation %d, want %d and 7", got, r.Generation(), len(recs))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := newRemoteReader(io.NopCloser(bytes.NewReader(body)), nil)
		for n := 0; ; n++ {
			if _, err := r.Next(); err != nil {
				break
			}
			if n > len(body) {
				t.Fatalf("%d records from %d bytes", n, len(body))
			}
		}
		r.Close()
		runtime.ReadMemStats(&after)
		if n, bound := after.TotalAlloc-before.TotalAlloc, uint64(maxFramePayload+1<<20+64*len(body)); n > bound {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(body), n, bound)
		}
	})
}

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
