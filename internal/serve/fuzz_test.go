package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
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
