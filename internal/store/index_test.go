package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// TestDecodeIndexBoundsCounts feeds decodeIndex an index whose postings count
// claims far more entries than the bytes behind it hold. Only v3 indexes
// carry a checksum, so one flipped byte in a v1 or v2 segment's index reaches
// this decoder: it must report ErrCorrupt before allocating for the claimed
// count, not after.
func TestDecodeIndexBoundsCounts(t *testing.T) {
	for _, count := range []uint32{1 << 16, 1 << 20, 1 << 31} {
		for _, list := range []string{"peers", "origins"} {
			ix := binary.BigEndian.AppendUint32(nil, 0) // no blocks
			if list == "origins" {
				ix = binary.BigEndian.AppendUint32(ix, 0) // no peer postings
			}
			ix = binary.BigEndian.AppendUint32(ix, count)
			t.Run(fmt.Sprintf("%s-%d", list, count), func(t *testing.T) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				_, err := decodeIndex(ix)
				runtime.ReadMemStats(&after)
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("decodeIndex(%x) = %v, want ErrCorrupt", ix, err)
				}
				if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
					t.Fatalf("decodeIndex(%x) allocated %d bytes before rejecting it", ix, got)
				}
			})
		}
	}
}

// TestIndexFoldedFromBlockDictionaries holds writeSegment's index, folded
// from the dictionaries each block encodes, to the reference fold over every
// row in block order: the same peer and origin postings and the same prefix
// filter. The rows repeat peers, origins and prefixes within and across
// blocks, and some announcements' paths end in an AS set (no origin).
func TestIndexFoldedFromBlockDictionaries(t *testing.T) {
	opts := testOptions().withDefaults()
	tab := newLockedTable()
	t0 := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	var rows []memRec
	for i := 0; i < 1000; i++ {
		prefix := netaddr.MustPrefix(netaddr.Addr(0xc6000000+uint32(i%97)<<8), 24)
		rec := mkRecord(t0.Add(time.Duration(i)*time.Second), bgp.ASN(100+i%13), bgp.ASN(7000+i%29), prefix, i%5 != 0)
		if i%7 == 0 && rec.Type == collector.Announce {
			rec.Attrs.Path.Segments = append(rec.Attrs.Path.Segments, bgp.PathSegment{Type: bgp.ASSet, ASNs: []bgp.ASN{1, 2}})
		}
		tab.mu.Lock()
		r, err := tab.rowLocked(&rec)
		tab.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	g, err := writeSegment(opts.FS, t.TempDir(), 1, 0, 1, rows, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := &segIndex{peers: make(postings), origins: make(postings), filter: newBloom(len(rows))}
	for i := range rows {
		r, bi := &rows[i], int32(i/opts.BlockRecords)
		want.peers.add(r.peerAS, bi)
		if r.attrs != nil && r.attrs.Origin() >= 0 {
			want.origins.add(bgp.ASN(r.attrs.Origin()), bi)
		}
		want.filter.add(prefixKey(r.prefix))
	}
	if !reflect.DeepEqual(g.index.peers, want.peers) {
		t.Errorf("peer postings %v, per-row fold %v", g.index.peers, want.peers)
	}
	if !reflect.DeepEqual(g.index.origins, want.origins) {
		t.Errorf("origin postings %v, per-row fold %v", g.index.origins, want.origins)
	}
	if !slices.Equal(g.index.filter.bits, want.filter.bits) || g.index.filter.k != want.filter.k {
		t.Error("prefix filter differs from the per-row fold")
	}
	if n := len(g.index.encode(nil)); n != g.index.encodedLen() {
		t.Errorf("index encodes to %d bytes, encodedLen says %d", n, g.index.encodedLen())
	}
	if len(want.origins) == 0 || len(g.index.blocks) < 2 {
		t.Fatalf("fixture too small: %d origins, %d blocks", len(want.origins), len(g.index.blocks))
	}
}
