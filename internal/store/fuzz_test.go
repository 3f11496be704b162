package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/faults"
	"instability/internal/netaddr"
)

// fuzzDict is the two attribute tuples the fuzz seeds announce.
func fuzzDict() []bgp.Attrs {
	return []bgp.Attrs{
		{Origin: bgp.OriginIGP, Path: bgp.PathFromASNs(3561, 701), NextHop: 0x0a000001},
		{
			Origin:      bgp.OriginEGP,
			Path:        bgp.PathFromASNs(1239, 690),
			NextHop:     0xc0a80101,
			Communities: []bgp.Community{0x02bd0001},
		},
	}
}

func fuzzSeedRecords(tb testing.TB) [][]byte {
	dict := fuzzDict()
	recs := []collector.Record{
		{
			Type: collector.Announce, PeerAS: 3561, PeerAddr: 0x0a000001,
			Prefix: mustPrefix(tb, 0xc0a80000, 16), Attrs: dict[0],
		},
		{
			Type: collector.Withdraw, PeerAS: 690, PeerAddr: 0x0a000002,
			Prefix: mustPrefix(tb, 0x0a000000, 8),
		},
		{Type: collector.SessionUp, PeerAS: 1239, PeerAddr: 0x0a000003, Prefix: mustPrefix(tb, 0, 0)},
	}
	var out [][]byte
	for _, rec := range recs {
		enc, err := collector.AppendRecord(nil, rec)
		if err != nil {
			tb.Fatal(err)
		}
		// The record as the WAL logs it, and its time followed by a v2 row.
		out = append(out, enc, appendRecordTailV2(enc[:8:8], rec, 0))
	}
	return out
}

func mustPrefix(tb testing.TB, addr netaddr.Addr, bits int) netaddr.Prefix {
	tb.Helper()
	p, err := netaddr.PrefixFrom(addr, bits)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// FuzzDecodeRecord exercises the record decoder under every WAL entry on
// arbitrary bytes: it must reject or round-trip, never panic. Anything that
// decodes is re-encoded and decoded again, and both decodes must agree.
func FuzzDecodeRecord(f *testing.F) {
	for _, b := range fuzzSeedRecords(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, rest, err := collector.DecodeRecord(data)
		if err != nil {
			return
		}
		used := len(data) - len(rest)
		enc, err := collector.AppendRecord(nil, rec)
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %v", err)
		}
		rec2, rest2, err := collector.DecodeRecord(enc)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encoded record failed to decode cleanly: %v (%d trailing)", err, len(rest2))
		}
		if !sameRecord(rec, rec2) || !rec.Time.Equal(rec2.Time) {
			t.Fatalf("round-trip changed record: %+v != %+v", rec, rec2)
		}
		if used <= 0 {
			t.Fatalf("decode consumed %d bytes", used)
		}
	})
}

// appendRecordTailV2 encodes a record tail in block format v2, which nothing
// writes any more: announce records reference a per-block attribute
// dictionary entry by index; non-announce records carry nothing.
func appendRecordTailV2(b []byte, rec collector.Record, dictIdx int) []byte {
	enc := collector.AppendRecordAttrs(nil, rec, nil)
	b = append(b, enc[8:len(enc)-1]...) // without the time and the zero attribute length
	if rec.Type == collector.Announce {
		b = binary.AppendUvarint(b, uint64(dictIdx))
	}
	return b
}

// fuzzBlockV2 encodes recs as one inflated v2 block body — the dictionary in
// first-seen order, then delta-timed rows — the way the v2 writer did, and
// returns it with the blockMeta fields the decoder reads.
func fuzzBlockV2(tb testing.TB, recs []collector.Record) ([]byte, uint16, int64) {
	tb.Helper()
	var dict [][]byte
	var rows []byte
	prev := recs[0].Time.UnixNano()
	for _, rec := range recs {
		idx := 0
		if rec.Type == collector.Announce {
			w, err := bgp.MarshalAttrs(rec.Attrs)
			if err != nil {
				tb.Fatal(err)
			}
			if idx = slices.IndexFunc(dict, func(d []byte) bool { return bytes.Equal(d, w) }); idx < 0 {
				idx, dict = len(dict), append(dict, w)
			}
		}
		rows = binary.AppendUvarint(rows, uint64(rec.Time.UnixNano()-prev))
		rows = appendRecordTailV2(rows, rec, idx)
		prev = rec.Time.UnixNano()
	}
	body := binary.AppendUvarint(nil, uint64(len(dict)))
	for _, w := range dict {
		body = append(binary.AppendUvarint(body, uint64(len(w))), w...)
	}
	return append(body, rows...), uint16(len(recs)), recs[0].Time.UnixNano()
}

// fuzzSegment is a segment of the given format whose index says its one block
// holds count records starting at minTime.
func fuzzSegment(ver byte, count uint16, minTime int64) *segment {
	return &segment{ver: ver, tab: newLockedTable(), index: &segIndex{
		blocks: []blockMeta{{count: int32(count), minTime: minTime}},
	}}
}

// blockRows parses data as the one v3 block of g and materializes every row.
func blockRows(g *segment, data []byte) (*colBlock, []collector.Record, error) {
	cb := new(colBlock)
	if err := parseColBlock(g, 0, data, false, cb); err != nil {
		return nil, nil, err
	}
	recs := make([]collector.Record, cb.rows())
	for i := range recs {
		if err := cb.intern(i); err != nil {
			return nil, nil, err
		}
		cb.fill(&recs[i], i)
	}
	return cb, recs, nil
}

// encodeBlockV3 encodes recs through the seal path's encoder, as rows a
// fresh attribute table interned.
func encodeBlockV3(tb testing.TB, recs []collector.Record) []byte {
	tb.Helper()
	tab := newLockedTable()
	rows := make([]memRec, len(recs))
	for i := range recs {
		var err error
		if rows[i], err = tab.rowLocked(&recs[i]); err != nil {
			tb.Fatal(err)
		}
	}
	sc := getSealScratch()
	defer putSealScratch(sc)
	data, err := encodeSegmentBlock(sc, nil, rows)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// rowRecords materializes memtable rows as the records they stand for.
func rowRecords(rows []memRec) []collector.Record {
	recs := make([]collector.Record, len(rows))
	for i := range rows {
		recs[i] = rows[i].record()
	}
	return recs
}

func assertSameRows(t *testing.T, what string, got, want []collector.Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !want[i].Time.Equal(got[i].Time) || !sameRecord(want[i], got[i]) {
			t.Fatalf("%s changed row %d: %+v != %+v", what, i, got[i], want[i])
		}
	}
}

// fuzzSeedBlocks is the row sets the two block fuzz targets start from.
func fuzzSeedBlocks(tb testing.TB) [][]collector.Record {
	dict := fuzzDict()
	t0 := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	ann := func(dt time.Duration, attrs bgp.Attrs) collector.Record {
		return collector.Record{
			Time: t0.Add(dt), Type: collector.Announce, PeerAS: 3561, PeerAddr: 0x0a000001,
			Prefix: mustPrefix(tb, 0xc0a80000, 16), Attrs: attrs,
		}
	}
	wd := collector.Record{
		Time: t0.Add(time.Second), Type: collector.Withdraw, PeerAS: 690, PeerAddr: 0x0a000002,
		Prefix: mustPrefix(tb, 0x0a000000, 8),
	}
	up := collector.Record{Time: t0.Add(2 * time.Second), Type: collector.SessionUp, PeerAS: 1239, PeerAddr: 0x0a000003}
	return [][]collector.Record{
		{ann(0, dict[0])},
		{wd},
		{up},
		{ann(0, dict[0]), wd, up},
		{ann(0, dict[0]), ann(time.Millisecond, dict[0]), ann(time.Second, dict[1])}, // shared dictionary entry
		{wd, up}, // empty dictionary
	}
}

// FuzzDecodeRecordTailV2 exercises the legacy v2 block decoder (dictionary
// header, then delta-timed rows referencing it by index) on arbitrary block
// bodies: it must reject or round-trip, never panic. A body that decodes has
// exactly the indexed row count; re-encoding its rows as v2 decodes to the
// same rows, and so does the v3 transcoding a scan reads them through.
func FuzzDecodeRecordTailV2(f *testing.F) {
	for _, recs := range fuzzSeedBlocks(f) {
		data, count, minTime := fuzzBlockV2(f, recs)
		f.Add(data, count, minTime)
	}
	f.Fuzz(func(t *testing.T, data []byte, count uint16, minTime int64) {
		bm := blockMeta{count: int32(count), minTime: minTime}
		rows, err := decodeLegacyRows(newLockedTable(), bm, data)
		if err != nil {
			return
		}
		recs := rowRecords(rows)
		if len(recs) != int(count) {
			t.Fatalf("decoded %d rows, index says %d", len(recs), count)
		}
		if count == 0 || !slices.IsSortedFunc(recs, func(a, b collector.Record) int { return a.Time.Compare(b.Time) }) {
			return // a delta overflowed int64: every encoder refuses unsorted rows
		}
		body2, count2, minTime2 := fuzzBlockV2(t, recs)
		rows2, err := decodeLegacyRows(newLockedTable(), blockMeta{count: int32(count2), minTime: minTime2}, body2)
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		assertSameRows(t, "v2 round-trip", rowRecords(rows2), recs)
		_, recs3, err := blockRows(fuzzSegment(segVersionV3, count, minTime), encodeBlockV3(t, recs))
		if err != nil {
			t.Fatalf("transcoded block failed to parse: %v", err)
		}
		assertSameRows(t, "v3 transcoding", recs3, recs)
	})
}

// FuzzColBlockV3 exercises the v3 block parser and the gather through its
// dictionaries on arbitrary bytes: never a panic, never a dictionary indexed
// out of range (fill would panic). An accepted block has one encoding:
// re-encoding its rows through the seal path's encoder yields the identical
// bytes — provided its attribute entries are themselves in the canonical wire
// form, which bgp.UnmarshalAttrs does not insist on (it drops unknown
// optional attributes); either way the re-encoding parses to the same rows.
// The input is the block without its trailing CRC, which the harness
// supplies: a fuzzer cannot guess a checksum, and would explore nothing past
// it.
func FuzzColBlockV3(f *testing.F) {
	for _, recs := range fuzzSeedBlocks(f) {
		data := encodeBlockV3(f, recs)
		f.Add(data[:len(data)-4], uint16(len(recs)), recs[0].Time.UnixNano())
	}
	f.Fuzz(func(t *testing.T, body []byte, count uint16, minTime int64) {
		g := fuzzSegment(segVersionV3, count, minTime)
		if _, _, err := blockRows(g, append(body[:len(body):len(body)], 0, 0, 0, 0)); err == nil && collector.Checksum(body) != 0 {
			t.Fatal("block accepted behind a wrong checksum")
		}
		data := binary.BigEndian.AppendUint32(body[:len(body):len(body)], collector.Checksum(body))
		cb, recs, err := blockRows(g, data)
		if err != nil {
			return
		}
		if len(recs) != int(count) || !slices.IsSorted(cb.times) {
			t.Fatalf("accepted %d rows (sorted %v), index says %d", len(recs), slices.IsSorted(cb.times), count)
		}
		canonical := true
		for j, a := range cb.dict {
			w, err := bgp.MarshalAttrs(*a.Attrs())
			if err != nil {
				t.Fatalf("dictionary entry %d does not re-marshal: %v", j, err)
			}
			canonical = canonical && bytes.Equal(w, cb.dictWire[j])
		}
		data2 := encodeBlockV3(t, recs)
		if canonical && !bytes.Equal(data2, data) {
			t.Fatalf("accepted block is not the encoding of its rows:\n got  %x\n want %x", data, data2)
		}
		_, recs2, err := blockRows(g, data2)
		if err != nil {
			t.Fatalf("re-encoded block failed to parse: %v", err)
		}
		assertSameRows(t, "round-trip", recs2, recs)
	})
}

// FuzzSelectRowsMatchesQuery holds the kernels to Query.Matches, which no
// later stage of the sealed read path applies again. The fuzzer's seed drives
// the block and predicate generators (genBlockShapes, genQuery); selectRows
// plus a cursor's fill must return exactly the rows Matches accepts, in
// order, from the aliasing parse a scanner makes and the owning one the
// cache holds.
func FuzzSelectRowsMatchesQuery(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		shapes := genBlockShapes(rng)
		var names []string
		for name := range shapes {
			names = append(names, name)
		}
		slices.Sort(names)
		name := names[rng.Intn(len(names))]
		recs := shapes[name]
		data := encodeBlockV3(t, recs)
		g := fuzzSegment(segVersionV3, uint16(len(recs)), recs[0].Time.UnixNano())
		for _, own := range []bool{false, true} {
			cb := new(colBlock)
			if err := parseColBlock(g, 0, data, own, cb); err != nil {
				t.Fatalf("%s own=%v: %v", name, own, err)
			}
			var ks kernelScratch
			var got []collector.Record
			for k := 0; k < 8; k++ {
				q := genQuery(rng, recs)
				var want []collector.Record
				for i := range recs {
					if q.Matches(&recs[i]) {
						want = append(want, recs[i])
					}
				}
				var err error
				if got, err = appendSelected(cb, &q, &ks, got[:0]); err != nil {
					t.Fatalf("%s own=%v %+v: %v", name, own, q, err)
				}
				assertSameRows(t, fmt.Sprintf("%s own=%v query %+v", name, own, q), got, want)
			}
		}
	})
}

// recordWALFrame appends rec's one-entry WAL frame as the record codec
// writes it: a commit of one append, and every frame of a WAL written before
// group-commit frames. Its payload is the reference a memtable row's WAL
// entry must match byte for byte.
func recordWALFrame(b []byte, window int64, seq uint64, rec collector.Record) ([]byte, error) {
	b, lenAt := collector.BeginFrame(b)
	b = binary.BigEndian.AppendUint64(b, uint64(window))
	b = binary.BigEndian.AppendUint64(b, seq)
	b, err := collector.AppendRecord(b, rec)
	if err != nil {
		return nil, err
	}
	return collector.EndFrame(b, lenAt), nil
}

// FuzzMemRecRoundTrip holds the memtable row to the record it stands for.
// Records decoded from the fuzzer's bytes become rows through one long-lived
// attribute table, as in a store. Each row must read back as its record and write the
// WAL entry the record codec writes for it; the rows, sorted, must encode the
// same v3 block a fresh table makes of the records.
func FuzzMemRecRoundTrip(f *testing.F) {
	dict := fuzzDict()
	t0 := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	var all []byte
	for _, rec := range []collector.Record{
		{Time: t0, Type: collector.Announce, PeerAS: 3561, PeerAddr: 0x0a000001, Prefix: mustPrefix(f, 0xc0a80000, 16), Attrs: dict[0]},
		{Time: t0.Add(time.Second), Type: collector.Announce, PeerAS: 690, PeerAddr: 0x0a000002, Prefix: mustPrefix(f, 0x0a000000, 8), Attrs: dict[1]},
		{Time: t0, Type: collector.Withdraw, PeerAS: 690, PeerAddr: 0x0a000002, Prefix: mustPrefix(f, 0x0a000000, 8)},
		{Time: t0.Add(time.Second), Type: collector.Announce, PeerAS: 3561, PeerAddr: 0x0a000001, Prefix: mustPrefix(f, 0xc0a80000, 16), Attrs: dict[0]},
		{Time: t0.Add(-time.Hour), Type: collector.SessionUp, PeerAS: 1239, PeerAddr: 0x0a000003, Prefix: mustPrefix(f, 0, 0)},
	} {
		b, err := collector.AppendRecord(nil, rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		all = append(all, b...)
	}
	f.Add(all)
	tab := newLockedTable()
	for _, a := range dict[1:] { // tuples a fresh table would not hold
		if _, err := tab.rowLocked(&collector.Record{Type: collector.Announce, Attrs: a}); err != nil {
			f.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tab.mu.Lock()
		defer tab.mu.Unlock()
		var recs []collector.Record
		var rows []memRec
		for len(data) > 0 && len(recs) < 64 {
			rec, rest, err := collector.DecodeRecord(data)
			if err != nil {
				break
			}
			data = rest
			seq := uint64(len(recs))
			want, werr := recordWALFrame(nil, 7, seq, rec)
			r, err := tab.rowLocked(&rec)
			if (err != nil) != (werr != nil) {
				t.Fatalf("row error %v, record codec error %v", err, werr)
			}
			if err != nil {
				return
			}
			if got := r.record(); !got.Time.Equal(rec.Time) || got.Time.Location() != time.UTC || !sameRecord(got, rec) {
				t.Fatalf("row reads back %+v, want %+v", got, rec)
			}
			if got := appendWALPayload(nil, 7, seq, &r); !bytes.Equal(got, want[4:len(want)-4]) {
				t.Fatalf("row's WAL entry %x, record's %x", got, want[4:len(want)-4])
			}
			recs, rows = append(recs, rec), append(rows, r)
		}
		if len(recs) == 0 {
			return
		}
		slices.SortStableFunc(recs, func(a, b collector.Record) int { return a.Time.Compare(b.Time) })
		slices.SortStableFunc(rows, func(a, b memRec) int { return cmp.Compare(a.ns, b.ns) })
		sc := getSealScratch()
		defer putSealScratch(sc)
		got, err := encodeSegmentBlock(sc, nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		if want := encodeBlockV3(t, recs); !bytes.Equal(got, want) {
			t.Fatalf("block from rows differs from a fresh table's:\n%x\n%x", got, want)
		}
	})
}

// segTail splits a segment file at its index: the offset the footer names,
// and the index section that runs from there to the footer. ok is false when
// the trailer or footer cannot say.
func segTail(data []byte) (indexOff int, index []byte, ok bool) {
	if len(data) < segHdrLen+segTailLen {
		return 0, nil, false
	}
	end := len(data) - segTailLen
	flen := int(binary.BigEndian.Uint32(data[end:]))
	if flen < 8 || flen > end-segHdrLen {
		return 0, nil, false
	}
	end -= flen
	off := binary.BigEndian.Uint64(data[end:])
	if off < segHdrLen || off > uint64(end) {
		return 0, nil, false
	}
	return int(off), data[off:end], true
}

// FuzzOpenSegment mutates what follows a segment's blocks — the index, the
// footer and the trailer — of a fresh v3 segment, of the v2 fixture and of
// that fixture relabelled v1, which this build refuses. openSegment must return a segment or an error wrapping
// ErrCorrupt, and never panic; on a segment it accepts, readBlock must read
// each block or reject it with ErrCorrupt, through a mapping and through a
// file. Only a v3 index carries a checksum: the harness recomputes it, so a
// mutation reaches the index decoder instead of stopping at the CRC.
func FuzzOpenSegment(f *testing.F) {
	dir := f.TempDir()
	s, err := Open(dir, testOptions())
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Writer().AppendBatch(hourlyWorkload(1, 150)); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join(dir, segName(0)))
	if err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join("testdata", v2FixtureName))
	if err != nil {
		f.Fatal(err)
	}
	var bases [][]byte
	for i, data := range [][]byte{v3, v1Segment(f), v2} { // v1: a format this build refuses
		off, _, ok := segTail(data)
		if !ok {
			f.Fatalf("base %d: no index", i)
		}
		f.Add(uint8(len(bases)), data[off:])
		// The same index with block 0 at an offset its length overflows.
		tail := bytes.Clone(data[off:])
		binary.BigEndian.PutUint64(tail[4:], math.MaxInt64)
		f.Add(uint8(len(bases)), tail)
		bases = append(bases, data[:off:off])
	}
	path := filepath.Join(f.TempDir(), segName(1)) // one per fuzzing process
	f.Fuzz(func(t *testing.T, base uint8, tail []byte) {
		data := append(bases[int(base)%len(bases)], tail...)
		if _, index, ok := segTail(data); ok && data[segHdrLen-1] == segVersionV3 && len(index) >= 4 {
			n := len(index) - 4
			binary.BigEndian.PutUint32(index[n:], collector.Checksum(index[:n]))
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := openSegment(faults.Disk{}, path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("openSegment: %v, want ErrCorrupt", err)
			}
			return
		}
		file, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		var buf []byte
		for bi := range g.index.blocks {
			for _, mm := range []*segMap{nil, {data: data}} {
				if _, err := g.readBlock(&buf, file, mm, bi); err != nil && !errors.Is(err, ErrCorrupt) {
					t.Fatalf("block %d (mapped %v): %v, want ErrCorrupt", bi, mm != nil, err)
				}
			}
		}
	})
}

// FuzzFrameScan exercises the one frame scanner under the WAL and the
// sidecar log on arbitrary bytes: it must never panic, the offset it returns
// is a frame boundary (re-scanning just the accepted prefix accepts all of
// it and yields the same payloads), and what follows that offset is not an
// intact frame. Its WAL arm decodes frames as openWAL does: a frame is
// accepted whole, and an accepted frame is exactly its entries as the writer
// encodes them.
func FuzzFrameScan(f *testing.F) {
	frame := func(b []byte, payload string) []byte {
		b, lenAt := collector.BeginFrame(b)
		return collector.EndFrame(append(b, payload...), lenAt)
	}
	two := frame(frame(nil, "first"), "second entry")
	f.Add([]byte(nil))
	f.Add(two)
	f.Add(two[:len(two)-3])                            // torn tail
	f.Add(append(two[:len(two):len(two)], 0, 0, 0, 0)) // zero-length frame ends the log
	flipped := append([]byte(nil), two...)
	flipped[6] ^= 0x40 // corrupt first payload
	f.Add(flipped)
	rec := collector.Record{Time: time.Unix(825638400, 0).UTC(), Type: collector.Withdraw, PeerAS: 690, PeerAddr: 0x0a000002, Prefix: mustPrefix(f, 0x0a000000, 8)}
	oneEntry, err := recordWALFrame(nil, 0, 1, rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(oneEntry)
	three := []collector.Record{rec, mkRecord(rec.Time, 3561, 7000, rec.Prefix, true), mkRecord(rec.Time.Add(time.Second), 690, 701, rec.Prefix, true)}
	f.Add(walFrame(f, 0, 1, 0, three...))
	f.Add(walFrame(f, 0, 1, 3, three[:2]...)) // second entry cut, checksum valid
	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		off, n, err := collector.ScanFrames(data, func(p []byte) error {
			payloads = append(payloads, p)
			return nil
		})
		if err != nil {
			t.Fatalf("scan returned an error the callback never raised: %v", err)
		}
		if off < 0 || off > int64(len(data)) || n != len(payloads) {
			t.Fatalf("scan of %d bytes: off %d, n %d, %d payloads", len(data), off, n, len(payloads))
		}
		i := 0
		off2, n2, _ := collector.ScanFrames(data[:off], func(p []byte) error {
			if i >= len(payloads) || !bytes.Equal(p, payloads[i]) {
				t.Fatalf("re-scan payload %d differs", i)
			}
			i++
			return nil
		})
		if off2 != off || n2 != n {
			t.Fatalf("offset %d is not a frame boundary: re-scan of the prefix stopped at %d after %d of %d frames", off, off2, n2, n)
		}
		if off3, n3, _ := collector.ScanFrames(data[off:], nil); off3 != 0 || n3 != 0 {
			t.Fatalf("scan stopped at %d with an intact frame still ahead", off)
		}
		// The WAL's stricter acceptance (every entry of a frame must decode)
		// still stops on a boundary, at or before the framing's own. A
		// rejected frame yields no entry; an accepted one is its entries,
		// re-encoded from their rows, byte for byte.
		tab := newLockedTable()
		var ents []walEntry
		offW, _, _ := collector.ScanFrames(data, func(p []byte) error {
			n := len(ents)
			var err error
			if ents, err = decodeWALFrame(ents, p); err != nil {
				if len(ents) != n {
					t.Fatalf("rejected frame left %d entries", len(ents)-n)
				}
				return err
			}
			var again []byte
			for _, ent := range ents[n:] {
				r, err := tab.rowLocked(&ent.rec)
				if err != nil {
					t.Fatalf("accepted entry %+v: %v", ent.rec, err)
				}
				again = appendWALPayload(again, ent.window, ent.seq, &r)
			}
			if !bytes.Equal(again, p) {
				t.Fatalf("frame's %d entries re-encode to\n%x\nnot its payload\n%x", len(ents)-n, again, p)
			}
			return nil
		})
		if offW > off {
			t.Fatalf("WAL scan accepted %d bytes, framing only %d", offW, off)
		}
		if o, _, _ := collector.ScanFrames(data[:offW], nil); o != offW {
			t.Fatalf("WAL clean offset %d is not a frame boundary", offW)
		}
	})
}

func sameRecord(a, b collector.Record) bool {
	return a.Type == b.Type && a.PeerAS == b.PeerAS && a.PeerAddr == b.PeerAddr &&
		a.Prefix == b.Prefix && a.Attrs.PolicyEqual(&b.Attrs) &&
		a.Attrs.NextHop == b.Attrs.NextHop
}

// FuzzParseQuery checks the query parser behind every CLI and HTTP query:
// it never panics, and an accepted input keeps each non-empty field as a set
// predicate — a non-empty spelling must never parse to the zero value that
// Query reads as "no predicate", which would silently widen the query to
// every record. Accepted times must also survive the nanosecond clock that
// pruning compares them on.
func FuzzParseQuery(f *testing.F) {
	f.Add("1996-03-01", "1996-03-02 06:00:00", "690,701", "7000", "198.32.0.0/16", "A,W")
	f.Add("1996-03-01T00:00:00Z", "", "", "", "10.0.0.0/8", "up,DOWN")
	f.Add("", "", " 3561 ", "", "192.168.1.0/24", "announce")
	f.Add("1996-05-25 00:00", "1996-05-25 00:02", "", "", "", "")
	f.Add("", "", "", "", "", "")
	f.Fuzz(func(t *testing.T, from, to, peers, origins, prefix, types string) {
		q, err := ParseQuery(from, to, peers, origins, prefix, types)
		if err != nil {
			return
		}
		for _, tc := range []struct {
			name string
			in   string
			v    time.Time
		}{{"From", from, q.From}, {"To", to, q.To}} {
			if tc.in == "" {
				if !tc.v.IsZero() {
					t.Fatalf("empty %s parsed to %v", tc.name, tc.v)
				}
				continue
			}
			if tc.v.IsZero() || !time.Unix(0, tc.v.UnixNano()).Equal(tc.v) {
				t.Fatalf("%s %q accepted as %v, which the scan cannot compare", tc.name, tc.in, tc.v)
			}
		}
		if (peers != "") != (len(q.PeerAS) > 0) || (origins != "") != (len(q.OriginAS) > 0) ||
			(types != "") != (len(q.Types) > 0) {
			t.Fatalf("list field lost or invented: peers %q origins %q types %q -> %+v", peers, origins, types, q)
		}
		if (prefix != "") != q.hasPrefix() {
			t.Fatalf("prefix %q accepted as %v, hasPrefix %v", prefix, q.Prefix, q.hasPrefix())
		}
	})
}
