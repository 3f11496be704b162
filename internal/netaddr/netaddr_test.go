package netaddr

import (
	"cmp"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", 0, true},
		{"255.255.255.255", 0xffffffff, true},
		{"192.42.113.7", 0xc02a7107, true},
		{"10.0.0.1", 0x0a000001, true},
		{"1.2.3", 0, false},
		{"1.2.3.4.5", 0, false},
		{"256.0.0.0", 0, false},
		{"-1.0.0.0", 0, false},
		{"01.2.3.4", 0, false},
		{"", 0, false},
		{"a.b.c.d", 0, false},
		{"1..2.3", 0, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %#x, want %#x", c.in, uint32(got), uint32(c.want))
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a uint32) bool {
		addr := Addr(a)
		back, err := ParseAddr(addr.String())
		return err == nil && back == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAddrOctets(t *testing.T) {
	a := MustParseAddr("192.42.113.7")
	o := a.Octets()
	if o != [4]byte{192, 42, 113, 7} {
		t.Fatalf("Octets = %v", o)
	}
	if AddrFromOctets(o) != a {
		t.Fatalf("AddrFromOctets(Octets) != a")
	}
}

func TestParsePrefix(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"192.42.113.0/24", "192.42.113.0/24", true},
		{"192.42.113/24", "192.42.113.0/24", true}, // paper's abbreviated form
		{"10/8", "10.0.0.0/8", true},
		{"0.0.0.0/0", "0.0.0.0/0", true},
		{"255.255.255.255/32", "255.255.255.255/32", true},
		{"192.42.113.1/24", "", false}, // host bits set
		{"192.42.113.0/33", "", false},
		{"192.42.113.0/-1", "", false},
		{"192.42.113.0", "", false},
		{"bogus/8", "", false},
	}
	for _, c := range cases {
		p, err := ParsePrefix(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParsePrefix(%q) err = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && p.String() != c.want {
			t.Errorf("ParsePrefix(%q) = %v, want %v", c.in, p, c.want)
		}
	}
}

func TestPrefixFromZeroesHostBits(t *testing.T) {
	p, err := PrefixFrom(MustParseAddr("10.1.2.3"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if p.String() != "10.1.0.0/16" {
		t.Fatalf("got %v", p)
	}
	if !p.IsValid() {
		t.Fatalf("prefix should be valid")
	}
}

func TestPrefixStringRoundTrip(t *testing.T) {
	f := func(a uint32, b uint8) bool {
		bits := int(b % 33)
		p := MustPrefix(Addr(a), bits)
		back, err := ParsePrefix(p.String())
		return err == nil && back == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestContains(t *testing.T) {
	p := MustParsePrefix("192.42.113.0/24")
	if !p.Contains(MustParseAddr("192.42.113.200")) {
		t.Error("should contain .200")
	}
	if p.Contains(MustParseAddr("192.42.114.0")) {
		t.Error("should not contain 192.42.114.0")
	}
	def := MustParsePrefix("0.0.0.0/0")
	if !def.Contains(MustParseAddr("1.2.3.4")) {
		t.Error("default route contains everything")
	}
}

func TestContainsPrefixAndOverlaps(t *testing.T) {
	super := MustParsePrefix("10.0.0.0/8")
	sub := MustParsePrefix("10.1.0.0/16")
	other := MustParsePrefix("11.0.0.0/8")
	if !super.ContainsPrefix(sub) || super.ContainsPrefix(other) {
		t.Error("ContainsPrefix wrong")
	}
	if sub.ContainsPrefix(super) {
		t.Error("sub should not contain super")
	}
	if !super.Overlaps(sub) || !sub.Overlaps(super) || super.Overlaps(other) {
		t.Error("Overlaps wrong")
	}
	if !super.ContainsPrefix(super) {
		t.Error("prefix contains itself")
	}
}

func TestSupernetSiblingHalves(t *testing.T) {
	p := MustParsePrefix("10.1.0.0/16")
	if got := p.Supernet(); got != MustParsePrefix("10.0.0.0/15") {
		t.Errorf("Supernet = %v", got)
	}
	if got := p.Sibling(); got != MustParsePrefix("10.0.0.0/16") {
		t.Errorf("Sibling = %v", got)
	}
	lo, hi := p.Halves()
	if lo != MustParsePrefix("10.1.0.0/17") || hi != MustParsePrefix("10.1.128.0/17") {
		t.Errorf("Halves = %v, %v", lo, hi)
	}
	def := MustParsePrefix("0.0.0.0/0")
	if def.Supernet() != def || def.Sibling() != def {
		t.Error("default route supernet/sibling should be itself")
	}
}

func TestHalvesInverseOfSupernet(t *testing.T) {
	f := func(a uint32, b uint8) bool {
		bits := int(b%32) + 1 // 1..32 so Supernet is meaningful
		p := MustPrefix(Addr(a), bits)
		sup := p.Supernet()
		lo, hi := sup.Halves()
		return lo == p || hi == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBitAndMask(t *testing.T) {
	// Key holds the address's network bits above the 8-bit length.
	p := MustParsePrefix("128.0.0.0/1")
	if p.Key()>>39 != 1 || p.Key()&0xff != 1 {
		t.Errorf("Key of 128/1 = %#x: top bit should be 1", p.Key())
	}
	q := MustParsePrefix("64.0.0.0/2")
	if q.Key()>>38 != 1 || q.Key()&0xff != 2 {
		t.Errorf("Key of 64/2 = %#x: bits wrong", q.Key())
	}
	if MustParsePrefix("255.255.255.0/24").Mask() != MustParseAddr("255.255.255.0") {
		t.Error("mask wrong")
	}
}

func TestNumAddresses(t *testing.T) {
	if MustParsePrefix("10.0.0.0/8").NumAddresses() != 1<<24 {
		t.Error("/8 size wrong")
	}
	if MustParsePrefix("1.2.3.4/32").NumAddresses() != 1 {
		t.Error("/32 size wrong")
	}
	if MustParsePrefix("0.0.0.0/0").NumAddresses() != 1<<32 {
		t.Error("/0 size wrong")
	}
}

func TestCompareTotalOrder(t *testing.T) {
	ps := []Prefix{
		MustParsePrefix("0.0.0.0/0"),
		MustParsePrefix("10.0.0.0/8"),
		MustParsePrefix("10.0.0.0/16"),
		MustParsePrefix("10.1.0.0/16"),
		MustParsePrefix("192.168.0.0/16"),
	}
	for i := range ps {
		for j := range ps {
			got := ps[i].Compare(ps[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%v,%v) = %d, want %d", ps[i], ps[j], got, want)
			}
		}
	}
}

// TestKeyOrderIsCompare holds Key to its contract over random pairs of
// valid prefixes: equal keys iff equal prefixes, and key order is Compare
// order. Half the pairs share an address, so equal addresses at different
// lengths (and equal prefixes) come up often.
func TestKeyOrderIsCompare(t *testing.T) {
	f := func(a1, a2 uint32, b1, b2 uint8, share bool) bool {
		if share {
			a2 = a1
		}
		p, q := MustPrefix(Addr(a1), int(b1%33)), MustPrefix(Addr(a2), int(b2%33))
		return cmp.Compare(p.Key(), q.Key()) == p.Compare(q) && (p.Key() == q.Key()) == (p == q) &&
			PrefixFromKey(p.Key()) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestAllocatorBasic(t *testing.T) {
	parent := MustParsePrefix("10.0.0.0/8")
	al := NewAllocator(parent)
	seen := map[Prefix]bool{}
	for i := 0; i < 64; i++ {
		p, err := al.Alloc(24)
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		if p.Bits() != 24 {
			t.Fatalf("got /%d", p.Bits())
		}
		if !parent.ContainsPrefix(p) {
			t.Fatalf("%v not in parent", p)
		}
		if seen[p] {
			t.Fatalf("duplicate allocation %v", p)
		}
		for q := range seen {
			if q.Overlaps(p) {
				t.Fatalf("%v overlaps %v", p, q)
			}
		}
		seen[p] = true
	}
}

func TestAllocatorExhaustion(t *testing.T) {
	al := NewAllocator(MustParsePrefix("10.0.0.0/30"))
	if _, err := al.Alloc(31); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Alloc(31); err != nil {
		t.Fatal(err)
	}
	if _, err := al.Alloc(31); err == nil {
		t.Fatal("expected exhaustion")
	}
	if _, err := al.Alloc(8); err == nil {
		t.Fatal("cannot allocate shorter than parent")
	}
}

func TestAllocatorRandomizedInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	al := NewAllocator(MustParsePrefix("172.16.0.0/12"))
	live := map[Prefix]bool{}
	for i := 0; i < 500; i++ {
		p, err := al.Alloc(16 + rng.Intn(13))
		if err != nil {
			continue
		}
		for q := range live {
			if q.Overlaps(p) {
				t.Fatalf("overlap: %v vs %v", p, q)
			}
		}
		live[p] = true
	}
}

func BenchmarkParsePrefix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ParsePrefix("192.42.113.0/24"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPrefixString(b *testing.B) {
	p := MustParsePrefix("192.42.113.0/24")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.String()
	}
}

// Mask returns the netmask of p as an address, e.g. 255.255.255.0 for a /24.
func (p Prefix) Mask() Addr { return Addr(maskOf(int(p.bits))) }

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// NumAddresses returns the number of addresses covered by p.
func (p Prefix) NumAddresses() uint64 {
	return 1 << (32 - uint(p.bits))
}
