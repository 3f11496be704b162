package store

import (
	"errors"
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

// attrEncoder interns attribute tuples and keeps one attrRef per distinct
// tuple: the same duplicate-dominated stream that motivates interning means
// the writer would otherwise re-hash and re-marshal identical path attributes
// for nearly every record. The store's encoder is guarded by the store mutex
// (every WAL append and replay runs under it); seal scratch owns private ones.
type attrEncoder struct {
	tab  *intern.Table
	refs []*attrRef // by handle ID, filled on first sight
}

func newAttrEncoder() *attrEncoder { return &attrEncoder{tab: intern.New()} }

// attrRef is what a memtable row holds of its attribute tuple: the interned
// handle, the tuple's wire bytes, and its origin AS (-1 when the path has
// none). It is immutable once its encoder hands it out, so whoever the row
// reaches — seal workers run off the store lock — reads it without a lock.
type attrRef struct {
	h      *intern.Handle
	wire   []byte
	origin int32
}

// encode interns a and returns its ref, marshalling the tuple on first sight.
func (e *attrEncoder) encode(a bgp.Attrs) (*attrRef, error) {
	h := e.tab.Attrs(a)
	for int(h.ID) >= len(e.refs) {
		e.refs = append(e.refs, nil)
	}
	if ref := e.refs[h.ID]; ref != nil {
		return ref, nil
	}
	w, err := bgp.MarshalAttrs(h.Attrs())
	if err != nil {
		return nil, err
	}
	ref := &attrRef{h: h, wire: w, origin: -1}
	if o, ok := h.Attrs().Path.Origin(); ok {
		ref.origin = int32(o)
	}
	e.refs[h.ID] = ref
	return ref, nil
}

// memRec is one unsealed record as the memtable holds it: 32 bytes and one
// pointer where a collector.Record is 120 and three. attrs is nil exactly
// when the record is not an announcement.
type memRec struct {
	ns       int64
	attrs    *attrRef
	prefix   netaddr.Prefix
	peerAddr netaddr.Addr
	peerAS   bgp.ASN
	typ      collector.RecType
}

// row converts rec to a memtable row, interning an announcement's attributes.
// The row keeps none of rec's slices.
func (e *attrEncoder) row(rec *collector.Record) (memRec, error) {
	r := memRec{ns: rec.Time.UnixNano(), prefix: rec.Prefix, peerAddr: rec.PeerAddr, peerAS: rec.PeerAS, typ: rec.Type}
	if rec.Type == collector.Announce {
		var err error
		if r.attrs, err = e.encode(rec.Attrs); err != nil {
			return memRec{}, err
		}
	}
	return r, nil
}

// rows converts recs into dst, which is as long.
func (e *attrEncoder) rows(dst []memRec, recs []collector.Record) error {
	for i := range recs {
		var err error
		if dst[i], err = e.row(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// record materializes the row as a sealed read or WAL replay returns it: the
// time in UTC, the canonical attributes.
func (r *memRec) record() collector.Record {
	rec := collector.Record{Time: time.Unix(0, r.ns).UTC(), Type: r.typ, PeerAS: r.peerAS, PeerAddr: r.peerAddr, Prefix: r.prefix}
	if r.attrs != nil {
		rec.Attrs = r.attrs.h.Attrs()
	}
	return rec
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
