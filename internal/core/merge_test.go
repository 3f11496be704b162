package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"instability/internal/collector"
	"instability/internal/netaddr"
)

// TestAccumulatorMerge checks the sharded-pipeline contract: splitting a
// stream by (peer, prefix) key across private classifier+accumulator pairs
// and merging must reproduce the single accumulator's statistics, except
// PeakSecond, which merges as a lower bound (no shard sees a whole second).
func TestAccumulatorMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	peers := []PeerKey{peerA, peerB, {AS: 1239, Addr: netaddr.MustParseAddr("198.32.186.9")}}
	prefixes := []netaddr.Prefix{pfxX, pfxY, netaddr.MustParsePrefix("128.9.0.0/16")}

	var recs []collector.Record
	tm := t0
	for i := 0; i < 4000; i++ {
		p := peers[rng.Intn(len(peers))]
		pfx := prefixes[rng.Intn(len(prefixes))]
		tm = tm.Add(time.Duration(rng.Intn(40)) * time.Second)
		if rng.Intn(3) == 0 {
			recs = append(recs, wd(tm, p, pfx))
		} else {
			a := attrs1()
			if rng.Intn(2) == 0 {
				a = attrs2()
			}
			recs = append(recs, ann(tm, p, pfx, a))
		}
	}

	// Reference: one classifier, one accumulator, EndDay at date boundaries.
	refCls, ref := NewClassifier(), NewAccumulator()
	cur, have := Date(0), false
	endAll := func(cls []*Classifier, accs []*Accumulator, d Date) {
		for i := range accs {
			accs[i].EndDay(cls[i], d)
		}
	}
	const shards = 3
	shCls := make([]*Classifier, shards)
	shAcc := make([]*Accumulator, shards)
	for i := range shCls {
		shCls[i], shAcc[i] = NewClassifier(), NewAccumulator()
	}
	for _, rec := range recs {
		d := DateOf(rec.Time)
		if have && d != cur {
			ref.EndDay(refCls, cur)
			endAll(shCls, shAcc, cur)
		}
		cur, have = d, true
		ref.Add(refCls.Classify(rec))
		si := PrefixShardOf(rec.Prefix, shards)
		shAcc[si].Add(shCls[si].Classify(rec))
	}
	ref.EndDay(refCls, cur)
	endAll(shCls, shAcc, cur)

	merged := NewAccumulator()
	for _, a := range shAcc {
		merged.Merge(a)
	}

	if got, want := merged.TotalCounts(), ref.TotalCounts(); got != want {
		t.Fatalf("TotalCounts: merged %v, reference %v", got, want)
	}
	if got, want := merged.Dates(), ref.Dates(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Dates: merged %v, reference %v", got, want)
	}
	for _, d := range ref.Dates() {
		ms, rs := merged.Days[d], ref.Days[d]
		if ms.Counts != rs.Counts {
			t.Errorf("day %v Counts: merged %v, reference %v", d, ms.Counts, rs.Counts)
		}
		if ms.PolicyShifts != rs.PolicyShifts {
			t.Errorf("day %v PolicyShifts: merged %d, reference %d", d, ms.PolicyShifts, rs.PolicyShifts)
		}
		if ms.TenMinInstability != rs.TenMinInstability || ms.TenMinAll != rs.TenMinAll {
			t.Errorf("day %v ten-minute series differ", d)
		}
		if !reflect.DeepEqual(ms.ByPeer, rs.ByPeer) {
			t.Errorf("day %v ByPeer differs", d)
		}
		if !reflect.DeepEqual(ms.ByPrefixAS, rs.ByPrefixAS) {
			t.Errorf("day %v ByPrefixAS differs", d)
		}
		if ms.InterArrival != rs.InterArrival {
			t.Errorf("day %v InterArrival differs", d)
		}
		if !reflect.DeepEqual(ms.PeerTable, rs.PeerTable) {
			t.Errorf("day %v PeerTable differs", d)
		}
		if ms.TotalTable != rs.TotalTable {
			t.Errorf("day %v TotalTable: merged %d, reference %d", d, ms.TotalTable, rs.TotalTable)
		}
		// Sharded peaks are a lower bound on the true peak.
		if ms.PeakSecond > rs.PeakSecond {
			t.Errorf("day %v PeakSecond: merged %d exceeds reference %d", d, ms.PeakSecond, rs.PeakSecond)
		}
	}
}

// TestShardOfStable pins the partition contract: equal prefix, equal shard,
// whichever peer sent the record; the result is in range; all shards are
// reachable.
func TestShardOfStable(t *testing.T) {
	r1 := ann(t0, peerA, pfxX, attrs1())
	r2 := wd(t0.Add(time.Hour), peerB, pfxX)
	for n := 1; n <= 16; n++ {
		if PrefixShardOf(r1.Prefix, n) != PrefixShardOf(r2.Prefix, n) {
			t.Fatalf("same prefix from two peers split across shards at n=%d", n)
		}
		if s := PrefixShardOf(pfxX, n); s < 0 || s >= n {
			t.Fatalf("prefix shard %d out of range [0,%d)", s, n)
		}
	}
	// With enough distinct keys every shard must receive some traffic.
	const n = 8
	seen := make(map[int]bool)
	for i := 0; i < 512; i++ {
		p := netaddr.MustPrefix(netaddr.Addr(0x0a000000+uint32(i)<<8), 24)
		seen[PrefixShardOf(p, n)] = true
	}
	if len(seen) != n {
		t.Fatalf("prefix hashing reached %d of %d shards", len(seen), n)
	}
}
