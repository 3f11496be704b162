package collector

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

// legacyLogRecords is the record set inside testdata/log-v1.irtl: the sample
// records, then 300 random announcements and withdrawals.
func legacyLogRecords() []Record {
	recs := sampleRecords()
	rng := rand.New(rand.NewSource(1996))
	t0 := time.Date(1996, 8, 1, 13, 0, 0, 0, time.UTC)
	for i := 0; i < 300; i++ {
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
		recs = append(recs, r)
	}
	return recs
}

const v1LogFixture = "log-v1.irtl"

// TestV1LogFixturePinned: a rewritten fixture cannot pass review unnoticed.
// The fixture is frozen: it was written by the last version 1 writer, and
// nothing in this tree can regenerate it.
func TestV1LogFixturePinned(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("testdata", v1LogFixture))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(b)), "08ed4acf361515b88cecc17399b1e78be08662267ceab88edc1b8aa5ca7d3518"; got != want {
		t.Errorf("%s: sha256 %s, pinned %s", v1LogFixture, got, want)
	}
}

// TestV1LogFixture is the read-compatibility contract: a version 1 log reads
// back record for record.
func TestV1LogFixture(t *testing.T) {
	r, err := Open(filepath.Join("testdata", v1LogFixture))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Exchange() != "Mae-East" {
		t.Fatalf("exchange %q", r.Exchange())
	}
	got, err := ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	assertPrefix(t, "v1 fixture", got, legacyLogRecords())
	if want := len(legacyLogRecords()); len(got) != want {
		t.Fatalf("%d records, want %d", len(got), want)
	}
}

// assertPrefix fails unless got is want[:len(got)], record for record.
func assertPrefix(t *testing.T, what string, got, want []Record) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: %d records, only %d written", what, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: record %d changed:\ngot  %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
}

func encodeLog(tb testing.TB, recs []Record) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "Mae-East")
	if err != nil {
		tb.Fatal(err)
	}
	if err := WriteAll(w, recs); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func decodeLog(b []byte) ([]Record, error) {
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	return ReadAll(r)
}

// TestLogEveryBitFlipIsAccounted flips every bit after the header of an
// uncompressed v2 log, one at a time. Each flip must end the read in an error
// wrapping ErrCorrupt, after a prefix of the written records: never a changed
// record, never a clean end. It runs over the writer's own log (one frame),
// and over the same records framed five at a time, so that flips land in
// later frames too. The header's exchange name is not checksummed, in v2 as
// in v1, so the flips start after it.
func TestLogEveryBitFlipIsAccounted(t *testing.T) {
	recs := append(sampleRecords(), legacyLogRecords()[4:40]...)
	written := encodeLog(t, recs)
	hdrLen := 6 + len("Mae-East")
	framed := slices.Clone(written[:hdrLen])
	for lo := 0; lo < len(recs); lo += 5 {
		var lenAt int
		framed, lenAt = BeginFrame(framed)
		for _, rec := range recs[lo:min(lo+5, len(recs))] {
			var err error
			if framed, err = AppendRecord(framed, rec); err != nil {
				t.Fatal(err)
			}
		}
		framed = EndFrame(framed, lenAt)
	}
	for _, tc := range []struct {
		name string
		log  []byte
	}{{"writer", written}, {"frames of five", framed}} {
		got, err := decodeLog(tc.log)
		if err != nil || len(got) != len(recs) {
			t.Fatalf("%s: intact log read %d of %d records, err %v", tc.name, len(got), len(recs), err)
		}
		assertPrefix(t, tc.name, got, recs)
		longest := 0
		for bit := hdrLen * 8; bit < len(tc.log)*8; bit++ {
			mutated := slices.Clone(tc.log)
			mutated[bit/8] ^= 1 << (bit % 8)
			got, err := decodeLog(mutated)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("%s: bit %d flipped: read %d records, err %v; want ErrCorrupt", tc.name, bit, len(got), err)
			}
			assertPrefix(t, fmt.Sprintf("%s, bit %d flipped", tc.name, bit), got, recs)
			longest = max(longest, len(got))
		}
		if tc.name == "frames of five" && longest != (len(recs)-1)/5*5 {
			t.Fatalf("%s: a flip in the last frame kept %d records, want every earlier frame's", tc.name, longest)
		}
	}
}

// TestTruncatedGzipLogClosesFile reads a ".gz" log cut off mid-stream —
// what a killed collector leaves behind — to its error and closes it, many
// times over, in both formats: no file descriptor may leak, though Close
// reports the damaged stream. Garbage collection is off, so no finalizer
// closes a leaked file behind the test's back.
func TestTruncatedGzipLogClosesFile(t *testing.T) {
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("cannot count open files: %v", err)
		}
		return len(ents)
	}
	fds()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dir := t.TempDir()
	recs := legacyLogRecords()
	for _, name := range []string{"cut.irtl.gz", "cut.mrt.gz"} {
		path := filepath.Join(dir, name)
		if name == "cut.irtl.gz" {
			w, err := Create(path, "Mae-East")
			if err != nil {
				t.Fatal(err)
			}
			if err := WriteAll(w, recs); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		} else {
			w, err := CreateMRT(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if err := w.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
		before := fds()
		for i := 0; i < 20; i++ {
			r, _, err := OpenAny(path)
			if err != nil {
				t.Fatal(err)
			}
			for err == nil {
				_, err = r.Next()
			}
			r.Close()
		}
		if after := fds(); after != before {
			t.Fatalf("%s: %d open files before 20 reads of the cut log, %d after", name, before, after)
		}
	}
}
