package detect

import (
	"testing"

	"instability/internal/bgp"
	"instability/internal/core"
	"instability/internal/netaddr"
)

// keyLess is the order packed keys must have: channel, peer, prefix
// (Compare), class.
func keyLess(a, b Key) bool {
	if a.Chan != b.Chan {
		return a.Chan < b.Chan
	}
	if a.Peer != b.Peer {
		return a.Peer < b.Peer
	}
	if c := a.Prefix.Compare(b.Prefix); c != 0 {
		return c < 0
	}
	return a.Class < b.Class
}

// FuzzDetectorKeyPack holds the detector's packed keys to their contract:
// pack round-trips every channel (origin sightings are ChanOrigin keys),
// class and prefix length, and the numeric order of packed words is keyLess
// order — the order Advance evaluates and Finish reports in. The seed
// corpus covers every (channel, class, length).
func FuzzDetectorKeyPack(f *testing.F) {
	for ch := uint8(0); ch <= uint8(ChanOrigin); ch++ {
		for cl := uint8(0); cl < core.NumClasses; cl++ {
			for bits := uint8(0); bits <= 32; bits++ {
				f.Add(ch, uint16(bits)*2039, uint32(0xc0ffee00)*uint32(bits+1), bits, cl,
					uint8(ChanOrigin)-ch, uint16(cl)*7919, uint32(0x0a000000)+uint32(bits), 32-bits, core.NumClasses-1-cl)
			}
		}
	}
	f.Fuzz(func(t *testing.T, ch1 uint8, peer1 uint16, addr1 uint32, bits1, cl1 uint8,
		ch2 uint8, peer2 uint16, addr2 uint32, bits2, cl2 uint8) {
		key := func(ch uint8, peer uint16, addr uint32, bits, cl uint8) Key {
			return Key{
				Chan:   Channel(ch % 4),
				Peer:   bgp.ASN(peer),
				Prefix: netaddr.MustPrefix(netaddr.Addr(addr), int(bits%33)),
				Class:  core.Class(cl % core.NumClasses),
			}
		}
		a, b := key(ch1, peer1, addr1, bits1, cl1), key(ch2, peer2, addr2, bits2, cl2)
		for _, k := range []Key{a, b} {
			if got := unpack(pack(k)); got != k {
				t.Fatalf("unpack(pack(%+v)) = %+v", k, got)
			}
		}
		if got, want := pack(a) < pack(b), keyLess(a, b); got != want {
			t.Fatalf("pack(%+v) < pack(%+v) = %v, keyLess = %v", a, b, got, want)
		}
		if (pack(a) == pack(b)) != (a == b) {
			t.Fatalf("pack(%+v) == pack(%+v) is %v", a, b, pack(a) == pack(b))
		}
	})
}
