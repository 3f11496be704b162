package collector

import (
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// readAllBounded drains next until it fails, as a reader of untrusted bytes
// must: it fails the test when next yields more records than data has bytes
// (a record from nothing) or the read allocates more than bound beyond what
// the input itself accounts for.
func readAllBounded(t *testing.T, data []byte, bound int, open func(io.Reader) (RecordReader, error)) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if r, err := open(bytes.NewReader(data)); err == nil {
		for n := 0; ; n++ {
			if _, err := r.Next(); err != nil {
				break
			}
			if n >= len(data) {
				t.Fatalf("%d records from %d bytes", n+1, len(data))
			}
		}
	}
	runtime.ReadMemStats(&after)
	if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(bound+1<<20+64*len(data)); n > limit {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(data), n, limit)
	}
}

// FuzzLogReader feeds arbitrary bytes to the IRTL log reader, v2 and the
// read-only v1 alike (the header's version byte picks the decoder): Next must
// end in io.EOF or an error without panicking, decode no record from nothing,
// and allocate no more than one maximal frame beyond what the input accounts
// for.
func FuzzLogReader(f *testing.F) {
	recs := sampleRecords()
	v2 := encodeLog(f, recs)
	f.Add(v2)
	f.Add(v2[:len(v2)/2])
	f.Add(encodeLog(f, nil))
	f.Add([]byte("IRTL\x02\x00\xff\xff\xff\xff"))
	v1, err := os.ReadFile(filepath.Join("testdata", v1LogFixture))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1[:200]) // a few whole records and a torn one: seeds stay small
	f.Fuzz(func(t *testing.T, data []byte) {
		readAllBounded(t, data, maxLogFrame, func(r io.Reader) (RecordReader, error) {
			return NewReader(r)
		})
	})
}

// FuzzMRTReader does the same for the MRT reader, the format real archives
// arrive in, where the bound is one maximal MRT record.
func FuzzMRTReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewMRTWriter(&buf)
	for _, rec := range sampleRecords() {
		if err := w.Write(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	var huge [12]byte
	binary.BigEndian.PutUint16(huge[4:6], mrtTypeBGP4MP)
	binary.BigEndian.PutUint32(huge[8:12], mrtMaxRecordLen)
	f.Add(huge[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		readAllBounded(t, data, mrtMaxRecordLen, func(r io.Reader) (RecordReader, error) {
			return NewMRTReader(r), nil
		})
	})
}
