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
// segment fixtures, testdata/seg-v1.irts and testdata/seg-v2.irts. The
// fixtures are frozen: each was written by the last commit whose writer
// produced that format, and nothing in this tree can regenerate them.
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

const (
	v1FixtureName = "seg-v1.irts"
	v2FixtureName = "seg-v2.irts"
)

// TestLegacyFixturesPinned: a rewritten fixture cannot pass review unnoticed.
func TestLegacyFixturesPinned(t *testing.T) {
	for name, want := range map[string]string{
		v1FixtureName: "e32eb7ef73f932fc7d52bb5b8bb3bb19a525d7b52801f03a28f28ee310836b15",
		v2FixtureName: "dc6426072d1d44bef2dfc856e6b7fdf0d449c3d637ac8f4ccf57eabec777b93b",
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

func openV1Fixture(t *testing.T, opts Options) *Store {
	t.Helper()
	return openFixture(t, v1FixtureName, opts)
}

// TestV1SegmentFixture is the forward-compatibility contract: a store sealed
// by the v1 (inline attributes) block format must read back identically under
// the current code.
func TestV1SegmentFixture(t *testing.T) {
	s := openV1Fixture(t, testOptions())
	if st := s.Stats(); st.SegmentsV1 != 1 || st.SegmentsV2 != 0 {
		t.Fatalf("want one v1 segment, got %+v", st)
	}
	want := fixtureRecords()

	got, _ := queryAll(t, s, Query{})
	assertSameRecords(t, got, want)

	// Indexed predicates work on v1 segments too (the index format is
	// version-independent).
	origin := bgp.ASN(7002)
	var wantOrigin []collector.Record
	for _, rec := range want {
		if o, ok := originOf(rec); ok && o == origin {
			wantOrigin = append(wantOrigin, rec)
		}
	}
	gotOrigin, _ := queryAll(t, s, Query{OriginAS: []bgp.ASN{origin}})
	assertSameRecords(t, gotOrigin, wantOrigin)
}

// TestV2SegmentFixture is the same contract for the v2 (deflated rows behind
// an attribute dictionary) block format, with the block cache off and on.
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
		if st := s.Stats(); st.SegmentsV1 != 0 || st.SegmentsV2 != 1 || st.SegmentsV3 != 0 {
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
	for _, name := range []string{v1FixtureName, v2FixtureName} {
		t.Run(name, func(t *testing.T) {
			s := openFixture(t, name, testOptions())
			if cst, err := s.Compact(); err != nil || cst.SegmentsMerged != 0 {
				t.Fatalf("lone legacy segment: compaction %+v, err %v", cst, err)
			}
			if st := s.Stats(); st.SegmentsV1+st.SegmentsV2 != 1 || st.SegmentsV3 != 0 {
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
			if st := s.Stats(); st.SegmentsV1 != 0 || st.SegmentsV2 != 0 || st.SegmentsV3 != 1 {
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
}
