package store

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// fixtureRecords is the deterministic record set inside the checked-in legacy
// segment fixture, testdata/seg-v2.irts. The fixture is frozen: it was
// written by the last commit whose writer produced that format, and nothing
// in this tree can regenerate it.
func fixtureRecords() []collector.Record {
	start := time.Date(1996, 5, 1, 12, 0, 0, 0, time.UTC)
	var recs []collector.Record
	for i := 0; i < 300; i++ {
		ts := start.Add(time.Duration(i) * time.Second)
		peer := bgp.ASN(100 + i%3)
		origin := bgp.ASN(7000 + i%5)
		prefix := netaddr.MustPrefix(netaddr.Addr(0xc6000000+uint32(i%40)<<8), 24)
		recs = append(recs, mkRecord(ts, peer, origin, prefix, i%4 != 0))
	}
	return recs
}

const v2FixtureName = "seg-v2.irts"

// TestLegacyFixturesPinned: a rewritten fixture cannot pass review unnoticed.
func TestLegacyFixturesPinned(t *testing.T) {
	for name, want := range map[string]string{
		v2FixtureName:    "dc6426072d1d44bef2dfc856e6b7fdf0d449c3d637ac8f4ccf57eabec777b93b",
		walV1FixtureName: "ced5bc2fda1909767b017379cb892c0538436f85634bee764ac4e7fbfe2888d2",
	} {
		b, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != want {
			t.Errorf("%s: sha256 %s, pinned %s", name, got, want)
		}
	}
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// openFixture copies a checked-in legacy segment into a fresh store directory
// and opens it (under whatever options the caller wants layered on top).
func openFixture(t *testing.T, name string, opts Options) *Store {
	t.Helper()
	dir := t.TempDir()
	if err := copyFile(filepath.Join("testdata", name), filepath.Join(dir, segName(1))); err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestV2SegmentFixture is the compatibility contract: a store sealed by the v2
// (deflated rows behind an attribute dictionary) block format, the one
// before this build's, must read back identically under the current code,
// indexed predicates included, with the block cache off and on.
func TestV2SegmentFixture(t *testing.T) {
	want := fixtureRecords()
	origin := bgp.ASN(7002)
	var wantOrigin []collector.Record
	for _, rec := range want {
		if o, ok := originOf(rec); ok && o == origin {
			wantOrigin = append(wantOrigin, rec)
		}
	}
	for _, cache := range []int64{0, 8 << 20} {
		opts := testOptions()
		opts.BlockCacheBytes = cache
		s := openFixture(t, v2FixtureName, opts)
		if st := s.Stats(); st.SegmentsV2 != 1 || st.SegmentsV3 != 0 {
			t.Fatalf("want one v2 segment, got %+v", st)
		}
		for pass := 0; pass < 2; pass++ { // the second is served from the cache, when on
			got, st := queryAll(t, s, Query{})
			assertSameRecords(t, got, want)
			if st.BlocksV2 != st.BlocksScanned || st.BlocksV2 == 0 {
				t.Fatalf("cache %d: scanned %d blocks, %d as v2", cache, st.BlocksScanned, st.BlocksV2)
			}
			got, _ = queryAll(t, s, Query{OriginAS: []bgp.ASN{origin}})
			assertSameRecords(t, got, wantOrigin)
		}
	}
}

// v1Segment returns the v2 fixture's bytes relabelled as format v1.
func v1Segment(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", v2FixtureName))
	if err != nil {
		tb.Fatal(err)
	}
	b[segHdrLen-1], b[len(b)-1] = 1, 1
	return b
}

// TestV1SegmentRefused: reads support this build's format and the one before
// it, so a v1 segment fails Open with an error that names its version and
// the way to upgrade it, instead of reading as a damaged header.
func TestV1SegmentRefused(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segName(1)), v1Segment(t), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, testOptions())
	if err == nil || !strings.Contains(err.Error(), "segment format v1 is older than this build reads") || !strings.Contains(err.Error(), "bgpstore compact") {
		t.Fatalf("opening a v1 segment: %v", err)
	}
}

// TestFutureSegmentVersion: a segment from a newer build says so, instead of
// reading as a damaged header.
func TestFutureSegmentVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Writer().AppendBatch(fixtureRecords()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[segHdrLen-1], b[len(b)-1] = segVersionV3+1, segVersionV3+1
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err = Open(dir, testOptions()); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "newer than this build") {
		t.Fatalf("opening a v%d segment: %v", segVersionV3+1, err)
	}
}

// TestCompactUpgradesLegacySegments: compaction is the upgrade path, simply
// by being the writer. A window holding only its legacy segment is left
// alone; once a seal adds a second segment to the window, Compact merges the
// two into one v3 segment holding exactly the fixture's and the new records.
func TestCompactUpgradesLegacySegments(t *testing.T) {
	t.Run(v2FixtureName, func(t *testing.T) {
		s := openFixture(t, v2FixtureName, testOptions())
		if cst, err := s.Compact(); err != nil || cst.SegmentsMerged != 0 {
			t.Fatalf("lone legacy segment: compaction %+v, err %v", cst, err)
		}
		if st := s.Stats(); st.SegmentsV2 != 1 || st.SegmentsV3 != 0 {
			t.Fatalf("lone legacy segment was rewritten: %+v", st)
		}
		want := fixtureRecords()
		for i := 0; i < 100; i++ { // same one-hour window, interleaved in time
			ts := want[3*i].Time.Add(500 * time.Millisecond)
			want = append(want, mkRecord(ts, bgp.ASN(200+i%2), bgp.ASN(7100+i%3), want[i].Prefix, i%3 != 0))
		}
		w := s.Writer()
		if err := w.AppendBatch(want[300:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Seal(); err != nil {
			t.Fatal(err)
		}
		cst, err := s.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if cst.SegmentsMerged != 2 || cst.SegmentsAfter != 1 {
			t.Fatalf("unexpected compaction shape: %+v", cst)
		}
		if st := s.Stats(); st.SegmentsV2 != 0 || st.SegmentsV3 != 1 {
			t.Fatalf("compaction did not rewrite to v3: %+v", st)
		}
		slices.SortStableFunc(want, func(a, b collector.Record) int { return a.Time.Compare(b.Time) })
		got, st := queryAll(t, s, Query{})
		assertSameRecords(t, got, want)
		if st.BlocksV3 != st.BlocksScanned {
			t.Fatalf("scanned %d blocks, %d as v3", st.BlocksScanned, st.BlocksV3)
		}
	})
}
