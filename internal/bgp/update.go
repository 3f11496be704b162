package bgp

import (
	"encoding/binary"
	"fmt"
	"sort"

	"instability/internal/netaddr"
)

// Origin attribute values.
type OriginCode uint8

// ORIGIN codes.
const (
	OriginIGP        OriginCode = 0
	OriginEGP        OriginCode = 1
	OriginIncomplete OriginCode = 2
)

// String returns the conventional one-letter display form.
func (o OriginCode) String() string {
	switch o {
	case OriginIGP:
		return "i"
	case OriginEGP:
		return "e"
	case OriginIncomplete:
		return "?"
	}
	return "invalid"
}

// Path attribute type codes.
const (
	attrOrigin          uint8 = 1
	attrASPath          uint8 = 2
	attrNextHop         uint8 = 3
	attrMED             uint8 = 4
	attrLocalPref       uint8 = 5
	attrAtomicAggregate uint8 = 6
	attrAggregator      uint8 = 7
	attrCommunity       uint8 = 8
)

// Attribute flag bits.
const (
	flagOptional   uint8 = 0x80
	flagTransitive uint8 = 0x40
	flagExtLen     uint8 = 0x10
)

// Community is a 32-bit route tagging value (RFC 1997).
type Community uint32

// String renders the conventional "AS:value" form.
func (c Community) String() string { return fmt.Sprintf("%d:%d", uint32(c)>>16, uint32(c)&0xffff) }

// Attrs carries the path attributes of an UPDATE. The (NextHop, ASPath) pair
// together with the prefix forms the forwarding-relevant tuple the paper's
// taxonomy compares; the remaining attributes are policy information whose
// change alone constitutes policy fluctuation rather than forwarding
// instability.
type Attrs struct {
	Origin OriginCode
	Path   ASPath
	// NextHop is the border router that traffic for the announced prefixes
	// should be forwarded to.
	NextHop netaddr.Addr
	// MED (multi-exit discriminator) and its presence flag.
	MED    uint32
	HasMED bool
	// LocalPref and its presence flag (only on internal sessions).
	HasLocalPref bool
	LocalPref    uint32
	// AtomicAggregate marks a route that lost specific path information to
	// aggregation.
	AtomicAggregate bool
	// Aggregator identifies the AS and router that formed an aggregate.
	HasAggregator  bool
	AggregatorAS   ASN
	AggregatorAddr netaddr.Addr
	// Communities carry opaque policy tags; the paper cites a community
	// change as an example of policy fluctuation that is not forwarding
	// instability.
	Communities []Community
}

// PolicyEqual reports whether every attribute of a and b matches, i.e. the
// announcements are exact duplicates (the paper's AADup test considers
// (Prefix, NextHop, ASPATH); full equality distinguishes policy fluctuation
// from pure duplication). MED, LOCAL_PREF and AGGREGATOR are compared only
// when their presence flags are set, as the wire form carries them: two
// encodable tuples are PolicyEqual exactly when they encode to the same
// bytes.
func (a *Attrs) PolicyEqual(b *Attrs) bool {
	if !a.ForwardingEqual(b) {
		return false
	}
	if a.Origin != b.Origin || a.HasMED != b.HasMED || a.HasMED && a.MED != b.MED ||
		a.HasLocalPref != b.HasLocalPref || a.HasLocalPref && a.LocalPref != b.LocalPref ||
		a.AtomicAggregate != b.AtomicAggregate || a.HasAggregator != b.HasAggregator ||
		a.HasAggregator && (a.AggregatorAS != b.AggregatorAS || a.AggregatorAddr != b.AggregatorAddr) ||
		len(a.Communities) != len(b.Communities) {
		return false
	}
	for i := range a.Communities {
		if a.Communities[i] != b.Communities[i] {
			return false
		}
	}
	return true
}

// ForwardingEqual reports whether a and b agree on the forwarding-relevant
// (NextHop, ASPATH) portion of the tuple.
func (a *Attrs) ForwardingEqual(b *Attrs) bool {
	return a.NextHop == b.NextHop && a.Path.Equal(b.Path)
}

// Update is the BGP UPDATE message: a set of withdrawn prefixes plus a set of
// announced prefixes sharing one group of path attributes.
type Update struct {
	Withdrawn []netaddr.Prefix
	Attrs     Attrs
	Announced []netaddr.Prefix
}

// Type implements Message.
func (Update) Type() MsgType { return MsgUpdate }

// MarshalBody implements Message.
func (u Update) MarshalBody(b []byte) ([]byte, error) {
	// Withdrawn routes.
	start := len(b)
	b = append(b, 0, 0)
	for _, p := range u.Withdrawn {
		b = appendNLRI(b, p)
	}
	binary.BigEndian.PutUint16(b[start:], uint16(len(b)-start-2))

	// Path attributes (only when there are announcements).
	attrStart := len(b)
	b = append(b, 0, 0)
	if len(u.Announced) > 0 {
		var err error
		b, err = u.Attrs.marshal(b)
		if err != nil {
			return nil, err
		}
	}
	binary.BigEndian.PutUint16(b[attrStart:], uint16(len(b)-attrStart-2))

	// NLRI.
	for _, p := range u.Announced {
		b = appendNLRI(b, p)
	}
	return b, nil
}

// marshal appends the wire form of the attributes to b: the one attribute
// encoder, behind MarshalAttrs, AppendAttrs and Update.MarshalBody. Every
// value is written in place, so it allocates only to grow b.
func (a *Attrs) marshal(b []byte) ([]byte, error) {
	if a.Origin > OriginIncomplete {
		return nil, fmt.Errorf("bgp: invalid origin %d", a.Origin)
	}
	b = append(b, flagTransitive, attrOrigin, 1, byte(a.Origin))
	pathLen := 0
	for _, seg := range a.Path.Segments {
		pathLen += 2 + 2*len(seg.ASNs)
	}
	b, err := a.Path.marshal(appendAttrHeader(b, flagTransitive, attrASPath, pathLen))
	if err != nil {
		return nil, err
	}
	b = binary.BigEndian.AppendUint32(append(b, flagTransitive, attrNextHop, 4), uint32(a.NextHop))
	if a.HasMED {
		b = binary.BigEndian.AppendUint32(append(b, flagOptional, attrMED, 4), a.MED)
	}
	if a.HasLocalPref {
		b = binary.BigEndian.AppendUint32(append(b, flagTransitive, attrLocalPref, 4), a.LocalPref)
	}
	if a.AtomicAggregate {
		b = append(b, flagTransitive, attrAtomicAggregate, 0)
	}
	if a.HasAggregator {
		b = binary.BigEndian.AppendUint16(append(b, flagOptional|flagTransitive, attrAggregator, 6), uint16(a.AggregatorAS))
		b = binary.BigEndian.AppendUint32(b, uint32(a.AggregatorAddr))
	}
	if len(a.Communities) > 0 {
		b = appendAttrHeader(b, flagOptional|flagTransitive, attrCommunity, 4*len(a.Communities))
		for _, c := range a.Communities {
			b = binary.BigEndian.AppendUint32(b, uint32(c))
		}
	}
	return b, nil
}

// appendAttrHeader appends the flags, type and length of an attribute whose
// value is n bytes long, in the extended-length form when n needs it.
func appendAttrHeader(b []byte, flags, typ uint8, n int) []byte {
	if n > 255 {
		return append(b, flags|flagExtLen, typ, byte(n>>8), byte(n))
	}
	return append(b, flags, typ, byte(n))
}

func unmarshalUpdate(body []byte) (Update, error) {
	var u Update
	if len(body) < 2 {
		return u, fmt.Errorf("%w: update withdrawn length", ErrTruncated)
	}
	wdLen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < wdLen {
		return u, fmt.Errorf("%w: withdrawn routes", ErrTruncated)
	}
	var err error
	u.Withdrawn, err = parseNLRIList(body[:wdLen])
	if err != nil {
		return u, err
	}
	body = body[wdLen:]

	if len(body) < 2 {
		return u, fmt.Errorf("%w: update attribute length", ErrTruncated)
	}
	attrLen := int(binary.BigEndian.Uint16(body[:2]))
	body = body[2:]
	if len(body) < attrLen {
		return u, fmt.Errorf("%w: path attributes", ErrTruncated)
	}
	if attrLen > 0 {
		u.Attrs, err = unmarshalAttrs(body[:attrLen])
		if err != nil {
			return u, err
		}
	}
	u.Announced, err = parseNLRIList(body[attrLen:])
	if err != nil {
		return u, err
	}
	if len(u.Announced) > 0 && attrLen == 0 {
		return u, fmt.Errorf("bgp: NLRI present without path attributes")
	}
	if len(u.Announced) == 0 {
		// Checked but kept by no route: MarshalBody writes attributes only
		// with NLRI, and a decoded message must marshal back to itself.
		u.Attrs = Attrs{}
	}
	return u, nil
}

func unmarshalAttrs(b []byte) (Attrs, error) {
	var a Attrs
	var seen [4]uint64 // a bit per attribute type met so far
	var haveOrigin, havePath, haveNextHop bool
	for len(b) > 0 {
		if len(b) < 3 {
			return a, fmt.Errorf("%w: attribute header", ErrTruncated)
		}
		flags, typ := b[0], b[1]
		var alen int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return a, fmt.Errorf("%w: extended attribute header", ErrTruncated)
			}
			alen = int(binary.BigEndian.Uint16(b[2:4]))
			b = b[4:]
		} else {
			alen = int(b[2])
			b = b[3:]
		}
		if len(b) < alen {
			return a, fmt.Errorf("%w: attribute %d value", ErrTruncated, typ)
		}
		val := b[:alen]
		b = b[alen:]
		if seen[typ/64]&(1<<(typ%64)) != 0 {
			return a, fmt.Errorf("bgp: duplicate attribute %d", typ)
		}
		seen[typ/64] |= 1 << (typ % 64)
		switch typ {
		case attrOrigin:
			if alen != 1 || val[0] > byte(OriginIncomplete) {
				return a, fmt.Errorf("bgp: malformed ORIGIN")
			}
			a.Origin = OriginCode(val[0])
			haveOrigin = true
		case attrASPath:
			p, err := unmarshalASPath(val)
			if err != nil {
				return a, err
			}
			a.Path = p
			havePath = true
		case attrNextHop:
			if alen != 4 {
				return a, fmt.Errorf("bgp: malformed NEXT_HOP")
			}
			a.NextHop = netaddr.Addr(binary.BigEndian.Uint32(val))
			haveNextHop = true
		case attrMED:
			if alen != 4 {
				return a, fmt.Errorf("bgp: malformed MULTI_EXIT_DISC")
			}
			a.MED = binary.BigEndian.Uint32(val)
			a.HasMED = true
		case attrLocalPref:
			if alen != 4 {
				return a, fmt.Errorf("bgp: malformed LOCAL_PREF")
			}
			a.LocalPref = binary.BigEndian.Uint32(val)
			a.HasLocalPref = true
		case attrAtomicAggregate:
			if alen != 0 {
				return a, fmt.Errorf("bgp: malformed ATOMIC_AGGREGATE")
			}
			a.AtomicAggregate = true
		case attrAggregator:
			if alen != 6 {
				return a, fmt.Errorf("bgp: malformed AGGREGATOR")
			}
			a.HasAggregator = true
			a.AggregatorAS = ASN(binary.BigEndian.Uint16(val[:2]))
			a.AggregatorAddr = netaddr.Addr(binary.BigEndian.Uint32(val[2:]))
		case attrCommunity:
			if alen%4 != 0 {
				return a, fmt.Errorf("bgp: malformed COMMUNITY")
			}
			a.Communities = make([]Community, alen/4)
			for i := range a.Communities {
				a.Communities[i] = Community(binary.BigEndian.Uint32(val[4*i:]))
			}
		default:
			if flags&flagOptional == 0 {
				return a, fmt.Errorf("bgp: unrecognized well-known attribute %d", typ)
			}
			// Unknown optional attributes are tolerated and dropped.
		}
	}
	if !haveOrigin || !havePath || !haveNextHop {
		return a, fmt.Errorf("bgp: missing well-known mandatory attribute")
	}
	return a, nil
}

// appendNLRI encodes one prefix in the (length, truncated address) NLRI form.
func appendNLRI(b []byte, p netaddr.Prefix) []byte {
	b = append(b, byte(p.Bits()))
	o := p.Addr().Octets()
	return append(b, o[:(p.Bits()+7)/8]...)
}

func parseNLRIList(b []byte) ([]netaddr.Prefix, error) {
	if len(b) == 0 {
		return nil, nil
	}
	var out []netaddr.Prefix
	for len(b) > 0 {
		bits := int(b[0])
		if bits > 32 {
			return nil, fmt.Errorf("bgp: NLRI mask length %d", bits)
		}
		n := (bits + 7) / 8
		if len(b) < 1+n {
			return nil, fmt.Errorf("%w: NLRI", ErrTruncated)
		}
		var o [4]byte
		copy(o[:], b[1:1+n])
		p, err := netaddr.PrefixFrom(netaddr.AddrFromOctets(o), bits)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		b = b[1+n:]
	}
	return out, nil
}

// SortPrefixes orders a prefix slice in routing-table display order. UPDATE
// packing uses it so marshaled messages are deterministic.
func SortPrefixes(ps []netaddr.Prefix) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
}

// MarshalAttrs encodes a path attribute set in wire form, for callers (such
// as the serving layer's NDJSON rows) that persist attributes outside an
// UPDATE.
func MarshalAttrs(a Attrs) ([]byte, error) { return a.marshal(nil) }

// AppendAttrs appends the wire form MarshalAttrs returns to b. It allocates
// only to grow b, so a caller encoding into a reused buffer (the collector's
// log writer, the store's attribute table) allocates nothing per tuple.
func AppendAttrs(b []byte, a *Attrs) ([]byte, error) { return a.marshal(b) }

// UnmarshalAttrs decodes a path attribute set produced by MarshalAttrs. An
// empty input yields the zero Attrs (used for withdrawal records that carry
// no attributes).
func UnmarshalAttrs(b []byte) (Attrs, error) {
	if len(b) == 0 {
		return Attrs{}, nil
	}
	return unmarshalAttrs(b)
}
