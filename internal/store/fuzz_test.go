package store

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
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
		v1, err := appendRecordTail(nil, rec, nil)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, v1, appendRecordTailV2(nil, rec, 0))
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

// FuzzDecodeRecordTail exercises the v1 (inline attributes) record decoder on
// arbitrary bytes: it must reject or round-trip, never panic. Anything that
// decodes is re-encoded and decoded again, and both decodes must agree.
func FuzzDecodeRecordTail(f *testing.F) {
	for _, b := range fuzzSeedRecords(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec collector.Record
		rest, err := decodeRecordTail(data, &rec)
		if err != nil {
			return
		}
		used := len(data) - len(rest)
		enc, err := appendRecordTail(nil, rec, nil)
		if err != nil {
			t.Fatalf("decoded record failed to re-encode: %v", err)
		}
		var rec2 collector.Record
		rest2, err := decodeRecordTail(enc, &rec2)
		if err != nil || len(rest2) != 0 {
			t.Fatalf("re-encoded record failed to decode cleanly: %v (%d trailing)", err, len(rest2))
		}
		if !sameRecord(rec, rec2) {
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
	b = appendRecordCore(b, rec)
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
	return &segment{ver: ver, index: &segIndex{
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

// encodeBlockV3 encodes recs through the seal path's encoder.
func encodeBlockV3(tb testing.TB, recs []collector.Record) []byte {
	tb.Helper()
	sc := getSealScratch()
	defer putSealScratch(sc)
	eb := encodeSegmentBlock(sc, recs)
	if eb.err != nil {
		tb.Fatal(eb.err)
	}
	return eb.data
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
		recs, err := decodeLegacyRows(segVersionV2, bm, data)
		if err != nil {
			return
		}
		if len(recs) != int(count) {
			t.Fatalf("decoded %d rows, index says %d", len(recs), count)
		}
		if count == 0 || !slices.IsSortedFunc(recs, func(a, b collector.Record) int { return a.Time.Compare(b.Time) }) {
			return // a delta overflowed int64: every encoder refuses unsorted rows
		}
		body2, count2, minTime2 := fuzzBlockV2(t, recs)
		recs2, err := decodeLegacyRows(segVersionV2, blockMeta{count: int32(count2), minTime: minTime2}, body2)
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		assertSameRows(t, "v2 round-trip", recs2, recs)
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
		if _, _, err := blockRows(g, append(body[:len(body):len(body)], 0, 0, 0, 0)); err == nil && checksum(body) != 0 {
			t.Fatal("block accepted behind a wrong checksum")
		}
		data := binary.BigEndian.AppendUint32(body[:len(body):len(body)], checksum(body))
		cb, recs, err := blockRows(g, data)
		if err != nil {
			return
		}
		if len(recs) != int(count) || !slices.IsSorted(cb.times) {
			t.Fatalf("accepted %d rows (sorted %v), index says %d", len(recs), slices.IsSorted(cb.times), count)
		}
		canonical := true
		for j, a := range cb.dict {
			w, err := bgp.MarshalAttrs(a)
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

// FuzzFrameScan exercises the one frame scanner under the WAL and the
// sidecar log on arbitrary bytes: it must never panic, the offset it returns
// is a frame boundary (re-scanning just the accepted prefix accepts all of
// it and yields the same payloads), and what follows that offset is not an
// intact frame.
func FuzzFrameScan(f *testing.F) {
	frame := func(b []byte, payload string) []byte {
		b, lenAt := beginFrame(b)
		return endFrame(append(b, payload...), lenAt)
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
	walFrame, err := appendWALFrame(nil, 0, 1, rec, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(walFrame)
	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		off, n, err := scanFrames(data, func(p []byte) error {
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
		off2, n2, _ := scanFrames(data[:off], func(p []byte) error {
			if i >= len(payloads) || !bytes.Equal(p, payloads[i]) {
				t.Fatalf("re-scan payload %d differs", i)
			}
			i++
			return nil
		})
		if off2 != off || n2 != n {
			t.Fatalf("offset %d is not a frame boundary: re-scan of the prefix stopped at %d after %d of %d frames", off, off2, n2, n)
		}
		if off3, n3, _ := scanFrames(data[off:], nil); off3 != 0 || n3 != 0 {
			t.Fatalf("scan stopped at %d with an intact frame still ahead", off)
		}
		// The WAL's stricter acceptance (payload must decode) still stops
		// on a boundary, at or before the framing's own.
		offW, _, _ := scanFrames(data, func(p []byte) error { _, err := decodeWALPayload(p); return err })
		if offW > off {
			t.Fatalf("WAL scan accepted %d bytes, framing only %d", offW, off)
		}
		if o, _, _ := scanFrames(data[:offW], nil); o != offW {
			t.Fatalf("WAL clean offset %d is not a frame boundary", offW)
		}
	})
}

func sameRecord(a, b collector.Record) bool {
	return a.Type == b.Type && a.PeerAS == b.PeerAS && a.PeerAddr == b.PeerAddr &&
		a.Prefix == b.Prefix && a.Attrs.PolicyEqual(b.Attrs) &&
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
