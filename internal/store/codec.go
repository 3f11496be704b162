package store

import (
	"bytes"
	"errors"
	"sync"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// ErrCorrupt reports a damaged segment or WAL structure.
var ErrCorrupt = errors.New("store: corrupt data")

// isCorrupt distinguishes data damage (quarantinable: skip the block, keep
// the scan) from I/O failure (fail the scan with a partial-scan error).
func isCorrupt(err error) bool { return errors.Is(err, ErrCorrupt) }

// attrTable is the store's one answer to "which tuple is this": every tuple a
// store appends, replays, reads from a block, transcodes from a legacy block
// or merges in compaction resolves to the same immutable *attrRef, found by
// its wire bytes. The same duplicate-dominated stream that motivates a table
// means nearly every append repeats a tuple the table holds: encoding it into
// the table's scratch buffer and probing the map is all the append pays. Only
// a miss decodes, so a ref's tuple is exactly what its wire bytes say, read
// from the memtable or from a segment alike. Writers take the lock once per
// Append, AppendBatch or replay loop, always after the store mutex; a reader
// takes it once per dictionary entry it resolves, never per record.
type attrTable struct {
	mu      sync.Mutex
	byWire  map[string]*attrRef // canonical wire bytes, and any other spelling read, to its ref
	scratch []byte              // the wire bytes being looked up, reused
	refs    uint32              // refs handed out: the next ref's id
}

func newAttrTable() *attrTable {
	return &attrTable{byWire: make(map[string]*attrRef)}
}

// attrRef is the store's record of one distinct attribute tuple: the
// canonical value, its wire bytes, its origin AS (-1 when the path has
// none), and its id, dense in the order the table made its refs (the seal's
// slot index, sealScratch). It is immutable once its table hands it out, so
// whoever a row reaches — the seal runs off the store lock — reads it
// without a lock.
type attrRef struct {
	attrs  bgp.Attrs
	wire   []byte
	origin int32
	id     uint32
}

// scratchLocked returns the ref of the tuple whose canonical wire bytes are
// in t.scratch, adding one decoded from them on a miss. A hit is one map probe
// and no allocation (Go elides the string conversion in the lookup). t.mu is
// held.
func (t *attrTable) scratchLocked() (*attrRef, error) {
	if ref, ok := t.byWire[string(t.scratch)]; ok {
		return ref, nil
	}
	a, err := bgp.UnmarshalAttrs(t.scratch)
	if err != nil {
		return nil, err
	}
	ref := &attrRef{attrs: a, wire: bytes.Clone(t.scratch), origin: -1, id: t.refs}
	t.refs++
	if o, ok := a.Path.Origin(); ok {
		ref.origin = int32(o)
	}
	t.byWire[string(ref.wire)] = ref
	return ref, nil
}

// resolve returns the ref of the tuple whose wire bytes are w (not retained).
// Bytes that are not the canonical encoding of what they decode to (a legacy
// writer's spelling) become an alias of the canonical tuple's ref.
func (t *attrTable) resolve(w []byte) (*attrRef, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ref, ok := t.byWire[string(w)]; ok {
		return ref, nil
	}
	a, err := bgp.UnmarshalAttrs(w)
	if err != nil {
		return nil, err
	}
	if t.scratch, err = bgp.AppendAttrs(t.scratch[:0], &a); err != nil {
		return nil, err
	}
	ref, err := t.scratchLocked()
	if err == nil && !bytes.Equal(w, ref.wire) {
		t.byWire[string(w)] = ref
	}
	return ref, err
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

// rowLocked converts rec to a memtable row, resolving an announcement's
// attributes by the wire bytes they encode to. The row keeps none of rec's
// slices. t.mu is held.
func (t *attrTable) rowLocked(rec *collector.Record) (memRec, error) {
	r := memRec{ns: rec.Time.UnixNano(), prefix: rec.Prefix, peerAddr: rec.PeerAddr, peerAS: rec.PeerAS, typ: rec.Type}
	if rec.Type == collector.Announce {
		var err error
		if t.scratch, err = bgp.AppendAttrs(t.scratch[:0], &rec.Attrs); err != nil {
			return memRec{}, err
		}
		if r.attrs, err = t.scratchLocked(); err != nil {
			return memRec{}, err
		}
	}
	return r, nil
}

// record materializes the row as a sealed read or WAL replay returns it: the
// time in UTC, the canonical attributes.
func (r *memRec) record() collector.Record {
	rec := collector.Record{Time: time.Unix(0, r.ns).UTC(), Type: r.typ, PeerAS: r.peerAS, PeerAddr: r.peerAddr, Prefix: r.prefix}
	if r.attrs != nil {
		rec.Attrs = r.attrs.attrs
	}
	return rec
}
