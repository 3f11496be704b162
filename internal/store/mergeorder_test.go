package store

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// match is the by-value spelling of Query.matches the reference filters in
// this package's tests are written in.
func (q Query) match(rec collector.Record) bool { return q.matches(&rec) }

// Merge layouts the generator draws timestamps for. "disjoint" and "ties" are
// the extremes the run merge branches on: every stream with a time range of
// its own (each block is one run, the heap is touched once per block), and
// every record with the same timestamp (the tie rule alone decides the order).
// "overlapping" is the general case: a hundred distinct timestamps drawn at
// random, so every stream overlaps every other, runs are short and ties heavy.
var mergeLayouts = []string{"disjoint", "overlapping", "ties"}

// genMergeBatches draws the append sequence of one store, in batches: the
// test seals every batch but the last two on its own (several segments per
// window, left uncompacted), detaches the next to last into an in-flight
// seal, and leaves the last in the live memtable. Prefixes are unique, so a
// misordered tie is visible in the output.
func genMergeBatches(rng *rand.Rand, layout string, batches, perBatch int) [][]collector.Record {
	base := time.Date(1996, 3, 1, 0, 0, 0, 0, time.UTC)
	out := make([][]collector.Record, batches)
	id := 0
	for b := range out {
		for i := 0; i < perBatch; i++ {
			ts := base
			switch layout {
			case "disjoint": // 3 s apart: the sequence crosses the 1 h window
				ts = base.Add(time.Duration(id) * 3 * time.Second)
			case "overlapping": // 100 distinct minutes over two 1 h windows
				ts = base.Add(time.Duration(rng.Intn(100)) * time.Minute)
			}
			prefix := netaddr.MustPrefix(netaddr.Addr(0x0a000000+uint32(id)<<8), 24)
			out[b] = append(out[b], mkRecord(ts, bgp.ASN(100+rng.Intn(4)), bgp.ASN(7000+rng.Intn(5)), prefix, rng.Intn(3) != 0))
			id++
		}
	}
	return out
}

// mergeReference is the order the store promises, computed without it: by
// time, ties to the earlier seal (the lower segment seq; unsealed records
// after every sealed one), then append order. Batches are in seal order and
// records within one in append order, so that is one stable sort by time.
func mergeReference(batches [][]collector.Record) []collector.Record {
	ref := slices.Concat(batches...)
	slices.SortStableFunc(ref, func(a, b collector.Record) int { return a.Time.Compare(b.Time) })
	return ref
}

// buildMergeStore appends the batches as genMergeBatches describes. The
// detached batch is sealed at cleanup, before Close, which would wait for it.
func buildMergeStore(tb testing.TB, opts Options, batches [][]collector.Record) *Store {
	tb.Helper()
	s, err := Open(tb.TempDir(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	var inflight *sealBatch
	tb.Cleanup(func() {
		if inflight != nil {
			s.runSeal(inflight)
		}
		s.Close()
	})
	w := s.Writer()
	for i, b := range batches {
		if err := w.AppendBatch(b); err != nil {
			tb.Fatal(err)
		}
		switch {
		case i < len(batches)-2:
			err = w.Seal()
		case i == len(batches)-2:
			s.mu.Lock()
			inflight, err = s.detachSealLocked()
			s.mu.Unlock()
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return s
}

// TestMergeOrderProperty checks the merge against the reference order record
// for record, over generated layouts rather than a hand-built one: several
// overlapping segments per window, an in-flight seal batch, a memtable tail
// and heavy timestamp ties, with the block
// cache and the mappings on and off. A failure names the subtest (layout and
// seed, enough to rerun it) and the first index that diverges.
func TestMergeOrderProperty(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for _, layout := range mergeLayouts {
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", layout, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(seed)))
				batches := genMergeBatches(rng, layout, 7, 120+rng.Intn(120))
				ref := mergeReference(batches)
				mid := ref[len(ref)/2].Time
				queries := []Query{
					{},
					{From: mid.Add(-10 * time.Minute), To: mid.Add(10 * time.Minute)},
					{PeerAS: []bgp.ASN{101, 103}},
					{OriginAS: []bgp.ASN{7002}},
					{Types: []collector.RecType{collector.Withdraw}, From: mid},
					{Prefix: ref[rng.Intn(len(ref))].Prefix},
				}
				for _, cache := range []int64{0, 8 << 20} {
					for _, noMmap := range []bool{false, true} {
						opts := testOptions()
						opts.BlockCacheBytes, opts.NoMmap = cache, noMmap
						s := buildMergeStore(t, opts, batches)
						if st := s.Stats(); st.Segments < 5 || st.SealingRecords == 0 || st.MemRecords == st.SealingRecords {
							t.Fatalf("store lacks a stream kind: %+v", st)
						}
						for qi, q := range queries {
							var want []collector.Record
							for _, rec := range ref {
								if q.match(rec) {
									want = append(want, rec)
								}
							}
							got, _ := queryAll(t, s, q)
							at := fmt.Sprintf("%s seed %d cache=%d nommap=%v query %d", layout, seed, cache, noMmap, qi)
							for i := 0; i < len(got) && i < len(want); i++ {
								if !recordsEqual(got[i], want[i]) {
									t.Fatalf("%s: first divergence at index %d:\n got  %v\n want %v", at, i, got[i], want[i])
								}
							}
							if len(got) != len(want) {
								t.Fatalf("%s: got %d records, want %d", at, len(got), len(want))
							}
						}
					}
				}
			})
		}
	}
}
