package store

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// genBlockShapes is the seeded generator of v3 block contents: the edges of
// the codec (dictionary sizes either side of the one-byte code limit, no
// dictionary at all, one row, one run, the widest time deltas) and a random
// mix. Every shape is time-sorted, as a sealed block is.
func genBlockShapes(rng *rand.Rand) map[string][]collector.Record {
	t0 := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	prefix := func(i int) netaddr.Prefix { return netaddr.MustPrefix(netaddr.Addr(0x0a000000+uint32(i)<<8), 24) }
	row := func(i, peers, prefixes, origins int, announce bool) collector.Record {
		ts := t0.Add(time.Duration(i/3) * time.Second) // runs of three equal timestamps
		return mkRecord(ts, bgp.ASN(100+rng.Intn(peers)), bgp.ASN(7000+rng.Intn(origins)), prefix(rng.Intn(prefixes)), announce)
	}
	fill := func(n int, gen func(i int) collector.Record) []collector.Record {
		recs := make([]collector.Record, n)
		for i := range recs {
			recs[i] = gen(i)
		}
		return recs
	}
	session := func(i int) collector.Record {
		rec := collector.Record{Time: t0.Add(time.Duration(i) * time.Minute), Type: collector.SessionUp,
			PeerAS: bgp.ASN(100 + i%3), PeerAddr: netaddr.Addr(0xc0000064 + uint32(i%3))}
		if i%2 == 1 {
			rec.Type = collector.SessionDown
		}
		return rec
	}
	same := mkRecord(t0, 100, 7000, prefix(0), true)
	wide := mkRecord(t0, 100, 7000, prefix(0), false)
	return map[string][]collector.Record{
		"one-row":         {same},
		"identical-512":   fill(512, func(int) collector.Record { return same }),
		"all-withdrawals": fill(300, func(i int) collector.Record { return row(i, 4, 40, 1, false) }),
		// 300 distinct prefixes, peers and attribute tuples: two-byte codes in
		// every column (the benchmark campaign's widest block has 374 prefixes).
		"wide-dictionaries": fill(900, func(i int) collector.Record {
			return mkRecord(t0.Add(time.Duration(i)*time.Millisecond), bgp.ASN(100+i%300), bgp.ASN(7000+i%300), prefix(i%300), i < 600)
		}),
		// 255 entries is the last dictionary size with one-byte codes, 256 the
		// first with two.
		"narrow-limit": fill(600, func(i int) collector.Record {
			return mkRecord(t0.Add(time.Duration(i)*time.Second), bgp.ASN(100+i%256), bgp.ASN(7000+i%255), prefix(i%255), true)
		}),
		"session-events": fill(40, func(i int) collector.Record {
			if i%4 == 0 {
				return session(i)
			}
			rec := row(0, 3, 10, 3, i%4 != 1)
			rec.Time = t0.Add(time.Duration(i) * time.Minute)
			return rec
		}),
		"max-time-deltas": fill(4, func(i int) collector.Record {
			rec := wide
			rec.Time = time.Unix(0, []int64{math.MinInt64 + 1, 0, 1 << 62, math.MaxInt64}[i]).UTC()
			return rec
		}),
		"random-512":  fill(512, func(i int) collector.Record { return row(i, 6, 71, 12, rng.Intn(4) == 0) }),
		"random-4096": fill(4096, func(i int) collector.Record { return row(i, 9, 400, 60, rng.Intn(3) == 0) }),
	}
}

// genQuery draws a predicate combination over the values recs holds, plus
// values it does not hold, so that every kernel path — empty code set, absent
// prefix, each narrowing pass, the pure range scan — comes up.
func genQuery(rng *rand.Rand, recs []collector.Record) Query {
	var q Query
	pick := func() collector.Record { return recs[rng.Intn(len(recs))] }
	if rng.Intn(3) == 0 {
		q.From = pick().Time
	}
	if rng.Intn(3) == 0 {
		q.To = pick().Time // the row's instant excluded, or just included
		if q.To.UnixNano() < math.MaxInt64 {
			q.To = q.To.Add(time.Duration(rng.Intn(2)))
		}
	}
	if rng.Intn(3) == 0 {
		q.PeerAS = []bgp.ASN{pick().PeerAS, 9999}[:1+rng.Intn(2)]
		if rng.Intn(4) == 0 {
			q.PeerAS = []bgp.ASN{9999}
		}
	}
	if rng.Intn(3) == 0 {
		q.OriginAS = []bgp.ASN{9999}
		if o, ok := originOf(pick()); ok {
			q.OriginAS = append(q.OriginAS, o)
		}
	}
	if rng.Intn(3) == 0 {
		q.Prefix = pick().Prefix // the zero prefix of a session row is "no predicate"
		if rng.Intn(4) == 0 {
			q.Prefix = netaddr.MustPrefix(0x7f000000, 8)
		}
	}
	if rng.Intn(3) == 0 {
		all := []collector.RecType{collector.Announce, collector.Withdraw, collector.SessionUp, collector.SessionDown}
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		q.Types = all[:1+rng.Intn(3)]
	}
	return q
}

// appendSelected runs the kernels over cb and builds the rows they select at
// the end of dst, each through a cursor's fill, as the merge takes them.
func appendSelected(cb *colBlock, q *Query, ks *kernelScratch, dst []collector.Record) ([]collector.Record, error) {
	lo, hi, sel, err := cb.selectRows(q, ks)
	if err != nil {
		return dst, err
	}
	c := cursor{cb: cb, base: lo, sel: sel}
	n := hi - lo
	if sel != nil {
		n = len(sel)
	}
	at := len(dst)
	dst = slices.Grow(dst, n)[:at+n]
	for k := 0; k < n; k++ {
		c.fill(&dst[at+k], k)
	}
	return dst, nil
}

// TestColBlockV3Generated checks the codec and the kernels over generated
// blocks rather than cases: a block encodes and parses back to its rows, in
// the aliasing form a scanner reads and the owning form the cache holds, and
// on random predicate combinations selectRows and fill return exactly the
// rows the by-value Query.match accepts, row by row.
func TestColBlockV3Generated(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for name, recs := range genBlockShapes(rng) {
			data := encodeBlockV3(t, recs)
			g := fuzzSegment(segVersionV3, 0, recs[0].Time.UnixNano())
			g.index.blocks[0].count = int32(len(recs))
			for _, own := range []bool{false, true} {
				at := fmt.Sprintf("seed %d %s own=%v", seed, name, own)
				cb := new(colBlock)
				if err := parseColBlock(g, 0, data, own, cb); err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				var ks kernelScratch
				got, err := appendSelected(cb, &Query{}, &ks, nil)
				if err != nil {
					t.Fatalf("%s: %v", at, err)
				}
				assertSameRows(t, at, got, recs)
				for k := 0; k < 60; k++ {
					q := genQuery(rng, recs)
					var want []collector.Record
					for _, rec := range recs {
						if q.match(rec) {
							want = append(want, rec)
						}
					}
					if got, err = appendSelected(cb, &q, &ks, got[:0]); err != nil {
						t.Fatalf("%s: %+v: %v", at, q, err)
					}
					assertSameRows(t, fmt.Sprintf("%s query %+v", at, q), got, want)
				}
			}
			// Codes widen to two bytes exactly when a dictionary passes 255.
			cb, _, err := blockRows(g, data)
			if err != nil {
				t.Fatal(err)
			}
			np, nf, na := len(cb.peers), len(cb.prefixes), len(cb.dict)
			if cb.peerc.wide != (np > 255) || cb.prefixc.wide != (nf > 255) || cb.attrc.wide != (na > 255) {
				t.Errorf("seed %d %s: dictionaries of %d/%d/%d entries, wide codes %v/%v/%v",
					seed, name, np, nf, na, cb.peerc.wide, cb.prefixc.wide, cb.attrc.wide)
			}
			switch name {
			case "wide-dictionaries":
				if np != 300 || nf != 300 || na < 256 {
					t.Errorf("%s: dictionaries of %d/%d/%d entries", name, np, nf, na)
				}
			case "narrow-limit":
				if np != 256 || nf != 255 {
					t.Errorf("%s: dictionaries of %d/%d entries, want 256/255", name, np, nf)
				}
			case "all-withdrawals":
				if na != 0 {
					t.Errorf("%s: %d attribute entries", name, na)
				}
			}
		}
	}
}

// TestBlockRecordsExtremes runs generated rows through whole stores whose
// blocks hold one record, and 4096.
func TestBlockRecordsExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := genBlockShapes(rng)["random-4096"]
	recs = append(recs, genBlockShapes(rng)["session-events"]...)
	slices.SortStableFunc(recs, func(a, b collector.Record) int { return a.Time.Compare(b.Time) })
	for _, blockRecords := range []int{1, 4096} {
		opts := testOptions()
		opts.BlockRecords = blockRecords
		s, err := Open(t.TempDir(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Writer().AppendBatch(recs[:1500]); err != nil {
			t.Fatal(err)
		}
		if err := s.Writer().Seal(); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 20; k++ {
			q := genQuery(rng, recs[:1500])
			var want []collector.Record
			for _, rec := range recs[:1500] {
				if q.match(rec) {
					want = append(want, rec)
				}
			}
			got, _ := queryAll(t, s, q)
			assertSameRows(t, fmt.Sprintf("BlockRecords %d query %+v", blockRecords, q), got, want)
		}
	}
}

// TestEveryBitFlipIsAccounted flips one bit at every byte offset of a sealed
// v3 segment's block region and of its index region in turn. Each time the
// store either refuses to open with ErrCorrupt, or answers a full scan with
// exactly the reference minus whole blocks, as many as it reports
// quarantined: never a record that differs from the reference, never a
// missing one that is not counted.
func TestEveryBitFlipIsAccounted(t *testing.T) {
	const blockRecords = 16
	opts := Options{Window: time.Hour, BlockRecords: blockRecords, FlushEvery: 32}
	dir := t.TempDir()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := fixtureRecords()[:100] // six full blocks and a short one
	if err := s.Writer().AppendBatch(ref); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, segName(0))
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := openSegment(opts.withDefaults().FS, path)
	if err != nil || g.ver != segVersionV3 {
		t.Fatalf("sealed segment: %+v, %v", g, err)
	}
	last := g.index.blocks[len(g.index.blocks)-1]
	indexOff := last.offset + int64(last.clen)
	indexEnd := g.size - segTailLen - 58 // the footer of a segment that replaces none
	if indexOff <= segHdrLen || indexEnd <= indexOff+4 {
		t.Fatalf("regions: blocks [%d,%d) index [%d,%d)", segHdrLen, indexOff, indexOff, indexEnd)
	}

	log.SetOutput(io.Discard) // one quarantine line per flipped block byte
	defer log.SetOutput(os.Stderr)
	refused, quarantined := 0, 0
	for off := int64(segHdrLen); off < indexEnd; off++ {
		mutated := slices.Clone(clean)
		mutated[off] ^= 1 << (off % 8)
		if err := os.WriteFile(path, mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		o := opts
		if off%2 == 1 { // both read paths
			o = readAt(opts)
		}
		s, err := Open(dir, o)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("offset %d: Open failed with %v, want ErrCorrupt", off, err)
			}
			refused++
			continue
		}
		if off >= indexOff {
			t.Fatalf("offset %d: a store with a damaged index opened", off)
		}
		got, st := queryAll(t, s, Query{})
		s.Close()
		missing := 0
		for lo := 0; lo < len(ref); lo += blockRecords {
			block := ref[lo:min(lo+blockRecords, len(ref))]
			if len(got) >= len(block) && recordsEqual(got[0], block[0]) {
				assertSameRows(t, fmt.Sprintf("offset %d block %d", off, lo/blockRecords), got[:len(block)], block)
				got = got[len(block):]
			} else {
				missing++
			}
		}
		if len(got) != 0 || missing != st.BlocksQuarantined || missing != 1 {
			t.Fatalf("offset %d: %d blocks missing, %d quarantined, %d records unaccounted", off, missing, st.BlocksQuarantined, len(got))
		}
		quarantined++
	}
	if int64(quarantined) != indexOff-segHdrLen || int64(refused) != indexEnd-indexOff {
		t.Fatalf("%d flips quarantined a block (block region is %d bytes), %d refused at Open (index region is %d)",
			quarantined, indexOff-segHdrLen, refused, indexEnd-indexOff)
	}
}
