package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/intern"
	"instability/internal/netaddr"
)

// ErrCorrupt reports a damaged segment or WAL structure.
var ErrCorrupt = errors.New("store: corrupt data")

// isCorrupt distinguishes data damage (quarantinable: skip the block, keep
// the scan) from I/O failure (fail the scan with a partial-scan error).
func isCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// attrEncoder memoizes the wire encoding of attribute tuples: the same
// duplicate-dominated stream that motivates interning means the writer would
// otherwise re-marshal identical path attributes for nearly every record.
// One encoder belongs to one Store and is guarded by the store mutex (every
// WAL append, seal, and compaction already runs under it).
type attrEncoder struct {
	tab  *intern.Table
	wire [][]byte // wire form by handle ID, filled lazily
}

func newAttrEncoder() *attrEncoder { return &attrEncoder{tab: intern.New()} }

// encode interns a and returns its handle plus its cached wire form. The
// returned bytes are shared and must not be modified.
func (e *attrEncoder) encode(a bgp.Attrs) (*intern.Handle, []byte, error) {
	h := e.tab.Attrs(a)
	for int(h.ID) >= len(e.wire) {
		e.wire = append(e.wire, nil)
	}
	w := e.wire[h.ID]
	if w == nil {
		var err error
		w, err = bgp.MarshalAttrs(h.Attrs())
		if err != nil {
			return nil, nil, err
		}
		e.wire[h.ID] = w
	}
	return h, w, nil
}

// decodeInterner canonicalizes attribute tuples decoded from segment blocks,
// so repeated scans of the same store return shared Attrs instead of a fresh
// deep copy per dictionary entry per scan. Entries are memoized straight from
// their wire bytes: after the first decode of a tuple, later blocks resolve
// it with one map probe and zero allocations (Go elides the string(w)
// conversion in the map lookup). It is shared by every scan worker of a
// store; the lock is taken once per dictionary entry (per block), never per
// record, so contention is negligible.
type decodeInterner struct {
	mu     sync.Mutex
	tab    *intern.Table
	byWire map[string]bgp.Attrs
}

func newDecodeInterner() *decodeInterner {
	return &decodeInterner{tab: intern.New(), byWire: make(map[string]bgp.Attrs)}
}

// internWire decodes the attribute wire bytes w (not retained) and returns
// the canonical shared form of the tuple.
func (d *decodeInterner) internWire(w []byte) (bgp.Attrs, error) {
	d.mu.Lock()
	if a, ok := d.byWire[string(w)]; ok {
		d.mu.Unlock()
		return a, nil
	}
	a, err := bgp.UnmarshalAttrs(w)
	if err != nil {
		d.mu.Unlock()
		return bgp.Attrs{}, err
	}
	a = d.tab.Attrs(a).Attrs()
	d.byWire[string(append([]byte(nil), w...))] = a
	d.tab.FlushStats()
	d.mu.Unlock()
	return a, nil
}

// appendRecordTail encodes everything after the timestamp: type, peer,
// prefix, attributes inline (the WAL's record form, and block format v1's). enc, when
// non-nil, supplies memoized attribute bytes so duplicate attribute sets are
// marshaled once per store rather than once per record.
func appendRecordTail(b []byte, rec collector.Record, enc *attrEncoder) ([]byte, error) {
	b = appendRecordCore(b, rec)
	if rec.Type == collector.Announce {
		var attrs []byte
		var err error
		if enc != nil {
			_, attrs, err = enc.encode(rec.Attrs)
		} else {
			attrs, err = bgp.MarshalAttrs(rec.Attrs)
		}
		if err != nil {
			return nil, err
		}
		b = binary.AppendUvarint(b, uint64(len(attrs)))
		b = append(b, attrs...)
	} else {
		b = binary.AppendUvarint(b, 0)
	}
	return b, nil
}

// appendRecordCore encodes the fields common to the WAL and both legacy block
// formats.
func appendRecordCore(b []byte, rec collector.Record) []byte {
	b = append(b, byte(rec.Type))
	b = binary.AppendUvarint(b, uint64(rec.PeerAS))
	b = binary.AppendUvarint(b, uint64(rec.PeerAddr))
	b = append(b, byte(rec.Prefix.Bits()))
	return binary.AppendUvarint(b, uint64(rec.Prefix.Addr()))
}

// decodeRecordTail is the inverse of appendRecordTail; it
// fills everything but rec.Time and returns the remaining bytes.
func decodeRecordTail(b []byte, rec *collector.Record) ([]byte, error) {
	b, err := decodeRecordCore(b, rec)
	if err != nil {
		return nil, err
	}
	alen, n := binary.Uvarint(b)
	if n <= 0 || alen > uint64(len(b)-n) {
		return nil, fmt.Errorf("%w: attribute length", ErrCorrupt)
	}
	b = b[n:]
	if alen > 0 {
		if rec.Type != collector.Announce {
			return nil, fmt.Errorf("%w: attributes on record type %d", ErrCorrupt, rec.Type)
		}
		rec.Attrs, err = bgp.UnmarshalAttrs(b[:alen])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		b = b[alen:]
	} else {
		rec.Attrs = bgp.Attrs{}
	}
	return b, nil
}

// decodeRecordCore decodes the fields common to the WAL and both legacy block
// formats.
func decodeRecordCore(b []byte, rec *collector.Record) ([]byte, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: record type", ErrCorrupt)
	}
	rec.Type = collector.RecType(b[0])
	b = b[1:]
	switch rec.Type {
	case collector.Announce, collector.Withdraw, collector.SessionUp, collector.SessionDown:
	default:
		return nil, fmt.Errorf("%w: record type %d", ErrCorrupt, rec.Type)
	}
	peerAS, n := binary.Uvarint(b)
	if n <= 0 || peerAS > 0xffff {
		return nil, fmt.Errorf("%w: peer AS", ErrCorrupt)
	}
	rec.PeerAS = bgp.ASN(peerAS)
	b = b[n:]
	peerAddr, n := binary.Uvarint(b)
	if n <= 0 || peerAddr > 0xffffffff {
		return nil, fmt.Errorf("%w: peer address", ErrCorrupt)
	}
	rec.PeerAddr = netaddr.Addr(peerAddr)
	b = b[n:]
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: prefix length", ErrCorrupt)
	}
	bits := int(b[0])
	b = b[1:]
	addr, n := binary.Uvarint(b)
	if n <= 0 || addr > 0xffffffff {
		return nil, fmt.Errorf("%w: prefix address", ErrCorrupt)
	}
	b = b[n:]
	p, err := netaddr.PrefixFrom(netaddr.Addr(addr), bits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rec.Prefix = p
	return b, nil
}

// appendRecordAbs encodes a record with an absolute nanosecond timestamp
// (WAL form; always inline attributes).
func appendRecordAbs(b []byte, rec collector.Record, enc *attrEncoder) ([]byte, error) {
	b = binary.BigEndian.AppendUint64(b, uint64(rec.Time.UnixNano()))
	return appendRecordTail(b, rec, enc)
}

// decodeRecordAbs is the inverse of appendRecordAbs.
func decodeRecordAbs(b []byte) (collector.Record, []byte, error) {
	var rec collector.Record
	if len(b) < 8 {
		return rec, nil, fmt.Errorf("%w: record time", ErrCorrupt)
	}
	rec.Time = time.Unix(0, int64(binary.BigEndian.Uint64(b))).UTC()
	rest, err := decodeRecordTail(b[8:], &rec)
	return rec, rest, err
}

// originOf extracts the origin AS of an announcement (the last AS of its
// path). Non-announcements, and announcements with empty or SET-terminated
// paths, have no origin; ok is false.
func originOf(rec collector.Record) (bgp.ASN, bool) {
	if rec.Type != collector.Announce {
		return 0, false
	}
	return rec.Attrs.Path.Origin()
}
