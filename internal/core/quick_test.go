package core

import (
	"testing"
	"testing/quick"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// TestBinOfMonotoneQuick: longer inter-arrivals never land in earlier bins.
func TestBinOfMonotoneQuick(t *testing.T) {
	f := func(a, b uint32) bool {
		da := time.Duration(a) * time.Millisecond
		db := time.Duration(b) * time.Millisecond
		if da > db {
			da, db = db, da
		}
		return BinOf(da) <= BinOf(db)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBinEdgesCoverQuick: every duration lands in a valid bin whose edge
// bounds it (except the clamped last bin).
func TestBinEdgesCoverQuick(t *testing.T) {
	f := func(ms uint32) bool {
		d := time.Duration(ms) * time.Millisecond
		b := BinOf(d)
		if b < 0 || b >= NumBins {
			return false
		}
		if b < NumBins-1 && d > BinEdges[b] {
			return false
		}
		if b > 0 && d <= BinEdges[b-1] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestClassifierTotalPartitionQuick: every record gets exactly one class and
// the per-class counts always sum to the record count.
func TestClassifierTotalPartitionQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		c := NewClassifier()
		var counts [NumClasses]int
		now := t0
		for _, op := range ops {
			now = now.Add(time.Duration(op%120) * time.Second)
			prefix := netaddr.MustPrefix(netaddr.Addr(uint32(op%4)<<24|0x0a000000), 24)
			var rec collector.Record
			if op%2 == 0 {
				rec = ann(now, peerA, prefix, attrs1())
			} else {
				rec = wd(now, peerA, prefix)
			}
			ev := c.Classify(rec)
			counts[ev.Class]++
		}
		total := 0
		for _, v := range counts {
			total += v
		}
		return total == len(ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestActiveNeverNegativeQuick: the classifier's active-route accounting
// cannot go negative no matter the withdrawal pattern.
func TestActiveNeverNegativeQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		c := NewClassifier()
		now := t0
		for _, op := range ops {
			now = now.Add(time.Second)
			peer := PeerKey{AS: bgp.ASN(op%3 + 1), Addr: netaddr.Addr(op % 3)}
			prefix := netaddr.MustPrefix(netaddr.Addr(uint32(op%8)<<24|0x0a000000), 24)
			var rec collector.Record
			if op%5 < 2 {
				rec = collector.Record{Time: now, Type: collector.Announce, PeerAS: peer.AS, PeerAddr: peer.Addr, Prefix: prefix, Attrs: attrs1()}
			} else {
				rec = collector.Record{Time: now, Type: collector.Withdraw, PeerAS: peer.AS, PeerAddr: peer.Addr, Prefix: prefix}
			}
			c.Classify(rec)
			for _, n := range c.ActiveByPeer() {
				if n <= 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
