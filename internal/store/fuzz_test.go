package store

import (
	"bytes"
	"compress/flate"
	"io"
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

// fuzzBlockV2 encodes recs as one inflated v2 block body through the
// production encoder and returns it with the blockMeta fields the decoder
// reads.
func fuzzBlockV2(tb testing.TB, recs []collector.Record) ([]byte, uint16, int64) {
	tb.Helper()
	sc := getSealScratch()
	defer putSealScratch(sc)
	eb := encodeSegmentBlock(sc, segVersionV2, recs)
	if eb.err != nil {
		tb.Fatal(eb.err)
	}
	raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(eb.comp)))
	if err != nil {
		tb.Fatal(err)
	}
	return raw, uint16(len(recs)), recs[0].Time.UnixNano()
}

// decodeFuzzBlock runs decodeColBlock over one block body the way a scan
// does: a v2 segment whose index says the block holds count records starting
// at minTime.
func decodeFuzzBlock(data []byte, count uint16, minTime int64) (*colBlock, error) {
	g := &segment{ver: segVersionV2, index: &segIndex{
		blocks: []blockMeta{{count: int32(count), minTime: minTime}},
	}}
	cb := new(colBlock)
	return cb, decodeColBlock(g, 0, data, cb)
}

// FuzzDecodeRecordTailV2 exercises the v2 block decoder that scans actually
// run, decodeColBlock (dictionary header, then delta-timed rows referencing
// it by index), on arbitrary block bodies: it must reject or round-trip,
// never panic. A block that decodes has exactly the indexed row count and
// only in-range dictionary references, and re-encoding its rows through the
// seal path's encoder decodes to the same rows.
func FuzzDecodeRecordTailV2(f *testing.F) {
	dict := fuzzDict()
	t0 := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	ann := func(dt time.Duration, attrs bgp.Attrs) collector.Record {
		return collector.Record{
			Time: t0.Add(dt), Type: collector.Announce, PeerAS: 3561, PeerAddr: 0x0a000001,
			Prefix: mustPrefix(f, 0xc0a80000, 16), Attrs: attrs,
		}
	}
	wd := collector.Record{
		Time: t0.Add(time.Second), Type: collector.Withdraw, PeerAS: 690, PeerAddr: 0x0a000002,
		Prefix: mustPrefix(f, 0x0a000000, 8),
	}
	up := collector.Record{Time: t0.Add(2 * time.Second), Type: collector.SessionUp, PeerAS: 1239, PeerAddr: 0x0a000003}
	for _, recs := range [][]collector.Record{
		{ann(0, dict[0])},
		{wd},
		{up},
		{ann(0, dict[0]), wd, up},
		{ann(0, dict[0]), ann(time.Millisecond, dict[0]), ann(time.Second, dict[1])}, // shared dictionary entry
		{wd, up}, // empty dictionary
	} {
		data, count, minTime := fuzzBlockV2(f, recs)
		f.Add(data, count, minTime)
	}
	f.Fuzz(func(t *testing.T, data []byte, count uint16, minTime int64) {
		cb, err := decodeFuzzBlock(data, count, minTime)
		if err != nil {
			return
		}
		if cb.rows() != int(count) {
			t.Fatalf("decoded %d rows, index says %d", cb.rows(), count)
		}
		if count == 0 {
			return
		}
		recs := make([]collector.Record, cb.rows())
		for i := range recs {
			if ai := cb.attr[i]; ai >= int32(len(cb.dict)) || (ai >= 0) != (cb.types[i] == collector.Announce) {
				t.Fatalf("row %d: type %v with dictionary index %d of %d", i, cb.types[i], ai, len(cb.dict))
			}
			cb.fill(&recs[i], i)
		}
		if !slices.IsSorted(cb.times) {
			return // a delta overflowed int64: the encoder refuses unsorted rows
		}
		cb2, err := decodeFuzzBlock(fuzzBlockV2(t, recs))
		if err != nil {
			t.Fatalf("re-encoded block failed to decode: %v", err)
		}
		if cb2.rows() != len(recs) {
			t.Fatalf("round-trip changed row count: %d != %d", cb2.rows(), len(recs))
		}
		for i := range recs {
			var rec2 collector.Record
			cb2.fill(&rec2, i)
			if !recs[i].Time.Equal(rec2.Time) || !sameRecord(recs[i], rec2) {
				t.Fatalf("round-trip changed row %d: %+v != %+v", i, recs[i], rec2)
			}
		}
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
