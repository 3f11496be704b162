package collector

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

func sampleRecords() []Record {
	t0 := time.Date(1996, 8, 1, 12, 0, 0, 0, time.UTC)
	return []Record{
		{
			Time: t0, Type: SessionUp,
			PeerAS: 690, PeerAddr: netaddr.MustParseAddr("198.32.186.1"),
		},
		{
			Time: t0.Add(time.Second), Type: Announce,
			PeerAS: 690, PeerAddr: netaddr.MustParseAddr("198.32.186.1"),
			Prefix: netaddr.MustParsePrefix("35.0.0.0/8"),
			Attrs: bgp.Attrs{
				Origin:  bgp.OriginIGP,
				Path:    bgp.PathFromASNs(690, 237),
				NextHop: netaddr.MustParseAddr("198.32.186.1"),
			},
		},
		{
			Time: t0.Add(31 * time.Second), Type: Withdraw,
			PeerAS: 701, PeerAddr: netaddr.MustParseAddr("198.32.186.7"),
			Prefix: netaddr.MustParsePrefix("192.42.113.0/24"),
		},
		{
			Time: t0.Add(time.Minute), Type: SessionDown,
			PeerAS: 701, PeerAddr: netaddr.MustParseAddr("198.32.186.7"),
		},
	}
}

func TestRoundTripBuffer(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "Mae-East")
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := WriteAll(w, recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(recs) {
		t.Fatalf("count %d", w.Count())
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Exchange() != "Mae-East" {
		t.Fatalf("exchange %q", r.Exchange())
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip mismatch\ngot  %+v\nwant %+v", got, recs)
	}
}

func TestRoundTripGzipFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "updates.19960801.irtl.gz")
	w, err := Create(path, "AADS")
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	if err := WriteAll(w, recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Exchange() != "AADS" {
		t.Fatalf("exchange %q", r.Exchange())
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("gzip round trip mismatch")
	}
	// Compression header sanity: the file must actually be gzip.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("file is not gzip-framed")
	}
}

func TestRoundTripPlainFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "updates.irtl")
	w, err := Create(path, "PacBell")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(w, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := ReadAll(r)
	if err != nil || len(got) != 4 {
		t.Fatalf("got %d records, err %v", len(got), err)
	}
}

func TestRejectsBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOPE..garbage"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

func TestRejectsBadVersion(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "X")
	_ = w.Close()
	b := buf.Bytes()
	b[4] = 99
	if _, err := NewReader(bytes.NewReader(b)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "X")
	_ = WriteAll(w, sampleRecords())
	_ = w.Close()
	full := buf.Bytes()
	// Chop mid-record: reading should yield some records then an error
	// (never a panic, never fabricated data).
	for cut := 7; cut < len(full); cut += 3 {
		r, err := NewReader(bytes.NewReader(full[:cut]))
		if err != nil {
			continue
		}
		for {
			_, err := r.Next()
			if err == io.EOF || err != nil {
				break
			}
		}
	}
}

func TestCorruptTypeByte(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "X")
	_ = WriteAll(w, sampleRecords())
	_ = w.Close()
	b := buf.Bytes()
	b[19] = 200 // first record's type byte (after 7-byte header "IRTL",ver,len,"X", frame length, time)
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Fatal("corrupt type accepted")
	}
}

func TestLargeLogRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	t0 := time.Date(1996, 5, 25, 0, 0, 0, 0, time.UTC)
	recs := make([]Record, 5000)
	for i := range recs {
		r := Record{
			Time:     t0.Add(time.Duration(i) * 37 * time.Millisecond),
			PeerAS:   bgp.ASN(rng.Intn(3000) + 1),
			PeerAddr: netaddr.Addr(rng.Uint32()),
			Prefix:   netaddr.MustPrefix(netaddr.Addr(rng.Uint32()), 8+rng.Intn(17)),
		}
		if rng.Intn(2) == 0 {
			r.Type = Announce
			r.Attrs = bgp.Attrs{
				Origin:  bgp.OriginCode(rng.Intn(3)),
				Path:    bgp.PathFromASNs(bgp.ASN(rng.Intn(3000)+1), bgp.ASN(rng.Intn(3000)+1)),
				NextHop: netaddr.Addr(rng.Uint32()),
			}
		} else {
			r.Type = Withdraw
		}
		recs[i] = r
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "Mae-West")
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteAll(w, recs); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records", len(got))
	}
	for i := range recs {
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Fatalf("record %d mismatch:\ngot  %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}

func TestRecordString(t *testing.T) {
	recs := sampleRecords()
	a := recs[1].String()
	if a == "" || recs[2].String() == "" {
		t.Fatal("empty String()")
	}
	if want := "1996-08-01 12:00:01|A|AS690|35.0.0.0/8|198.32.186.1|690 237"; a != want {
		t.Fatalf("got %q want %q", a, want)
	}
	if RecType(9).String() == "" {
		t.Fatal("unknown type should print")
	}
}

func BenchmarkWriteRecord(b *testing.B) {
	w, err := NewWriter(io.Discard, "Mae-East")
	if err != nil {
		b.Fatal(err)
	}
	rec := sampleRecords()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadRecord(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "Mae-East")
	rec := sampleRecords()[1]
	for i := 0; i < 10000; i++ {
		_ = w.Write(rec)
	}
	_ = w.Close()
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	var r *Reader
	for i := 0; i < b.N; i++ {
		if i%10000 == 0 {
			var err error
			r, err = NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
		}
		if _, err := r.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
