// Package netaddr provides compact IPv4 address and prefix value types used
// throughout the routing-instability library.
//
// The simulator and classifier handle tens of millions of prefix operations
// per run, so prefixes are represented as a packed (uint32 address, mask
// length) pair rather than byte slices. All values are comparable and usable
// as map keys.
package netaddr

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// ParseAddr parses a dotted-quad IPv4 address such as "192.42.113.7".
func ParseAddr(s string) (Addr, error) {
	var a uint32
	rest := s
	for i := 0; i < 4; i++ {
		var part string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netaddr: invalid address %q: expected 4 octets", s)
			}
			part, rest = rest[:dot], rest[dot+1:]
		} else {
			part = rest
		}
		v, err := strconv.ParseUint(part, 10, 16)
		if err != nil || v > 255 || len(part) == 0 || (len(part) > 1 && part[0] == '0') {
			return 0, fmt.Errorf("netaddr: invalid address %q: bad octet %q", s, part)
		}
		a = a<<8 | uint32(v)
	}
	return Addr(a), nil
}

// MustParseAddr is like ParseAddr but panics on error. Intended for tests and
// package-level constants.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String returns the dotted-quad form of a.
func (a Addr) String() string {
	var b [15]byte
	return string(a.appendTo(b[:0]))
}

func (a Addr) appendTo(b []byte) []byte {
	for i := 3; i >= 0; i-- {
		b = strconv.AppendUint(b, uint64(a>>(8*i))&0xff, 10)
		if i > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// Octets returns the four octets of a in network order.
func (a Addr) Octets() [4]byte {
	return [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
}

// AddrFromOctets assembles an address from four network-order octets.
func AddrFromOctets(o [4]byte) Addr {
	return Addr(uint32(o[0])<<24 | uint32(o[1])<<16 | uint32(o[2])<<8 | uint32(o[3]))
}

// Prefix is an IPv4 CIDR prefix. The address bits below the mask length are
// always zero for a valid Prefix, which makes the type safely comparable:
// two prefixes are equal iff they denote the same address block.
type Prefix struct {
	addr Addr
	bits uint8
}

// ErrInvalidPrefix is returned for malformed prefix inputs.
var ErrInvalidPrefix = errors.New("netaddr: invalid prefix")

// PrefixFrom constructs a prefix from an address and mask length, zeroing any
// host bits. bits must be in [0,32].
func PrefixFrom(a Addr, bits int) (Prefix, error) {
	if bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("%w: mask length %d", ErrInvalidPrefix, bits)
	}
	return Prefix{addr: a & Addr(maskOf(bits)), bits: uint8(bits)}, nil
}

// MustPrefix is like PrefixFrom but panics on error.
func MustPrefix(a Addr, bits int) Prefix {
	p, err := PrefixFrom(a, bits)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses CIDR notation such as "192.42.113.0/24". As in the
// paper's notation, "192.42.113/24" (trailing zero octets omitted) is also
// accepted.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.LastIndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("%w: %q missing '/'", ErrInvalidPrefix, s)
	}
	addrPart, bitsPart := s[:slash], s[slash+1:]
	bits, err := strconv.Atoi(bitsPart)
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("%w: %q bad mask length", ErrInvalidPrefix, s)
	}
	// Allow abbreviated forms with fewer than four octets.
	if n := strings.Count(addrPart, "."); n < 3 {
		addrPart += strings.Repeat(".0", 3-n)
	}
	a, err := ParseAddr(addrPart)
	if err != nil {
		return Prefix{}, fmt.Errorf("%w: %v", ErrInvalidPrefix, err)
	}
	if a&Addr(^maskOf(bits)) != 0 {
		return Prefix{}, fmt.Errorf("%w: %q has host bits set", ErrInvalidPrefix, s)
	}
	return Prefix{addr: a, bits: uint8(bits)}, nil
}

// MustParsePrefix is like ParsePrefix but panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the network address of p.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the mask length of p.
func (p Prefix) Bits() int { return int(p.bits) }

// IsValid reports whether p is a well-formed prefix (the zero Prefix is the
// valid 0.0.0.0/0 default route; there is no invalid state representable).
func (p Prefix) IsValid() bool { return p.bits <= 32 && p.addr&Addr(^maskOf(int(p.bits))) == 0 }

// String returns CIDR notation for p.
func (p Prefix) String() string {
	var b [18]byte
	out := p.addr.appendTo(b[:0])
	out = append(out, '/')
	out = strconv.AppendUint(out, uint64(p.bits), 10)
	return string(out)
}

// Contains reports whether a is inside the block denoted by p.
func (p Prefix) Contains(a Addr) bool {
	return a&Addr(maskOf(int(p.bits))) == p.addr
}

// ContainsPrefix reports whether q is a (non-strict) sub-block of p.
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.bits >= p.bits && p.Contains(q.addr)
}

// Supernet returns the prefix one bit shorter that contains p. Supernet of
// the default route returns the default route itself.
func (p Prefix) Supernet() Prefix {
	if p.bits == 0 {
		return p
	}
	b := int(p.bits) - 1
	return Prefix{addr: p.addr & Addr(maskOf(b)), bits: uint8(b)}
}

// Sibling returns the other half of p's supernet: the prefix of the same
// length whose final network bit is flipped. Sibling of the default route is
// the default route.
func (p Prefix) Sibling() Prefix {
	if p.bits == 0 {
		return p
	}
	return Prefix{addr: p.addr ^ Addr(1<<(32-p.bits)), bits: p.bits}
}

// Halves splits p into its two component prefixes of length bits+1.
// It panics if p is a /32.
func (p Prefix) Halves() (lo, hi Prefix) {
	if p.bits >= 32 {
		panic("netaddr: cannot halve a /32")
	}
	b := p.bits + 1
	lo = Prefix{addr: p.addr, bits: b}
	hi = Prefix{addr: p.addr | Addr(1<<(32-b)), bits: b}
	return lo, hi
}

// Key packs p into one word, addr<<8 | bits: the one packed prefix every
// prefix-keyed table and hash uses. It is injective over every Prefix value,
// and its numeric order is Compare order.
func (p Prefix) Key() uint64 { return uint64(p.addr)<<8 | uint64(p.bits) }

// PrefixFromKey inverts Key. k must be a Key.
func PrefixFromKey(k uint64) Prefix { return Prefix{addr: Addr(k >> 8), bits: uint8(k)} }

// Compare orders prefixes first by address, then by mask length (shorter
// first). The order is total and matches routing-table display convention.
func (p Prefix) Compare(q Prefix) int {
	switch {
	case p.addr < q.addr:
		return -1
	case p.addr > q.addr:
		return 1
	case p.bits < q.bits:
		return -1
	case p.bits > q.bits:
		return 1
	}
	return 0
}

func maskOf(bits int) uint32 {
	if bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(bits))
}
