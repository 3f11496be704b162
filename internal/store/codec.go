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

// attrTable is the store's one answer to "which tuple is this": every tuple a
// store appends, replays, reads from a block, transcodes from a legacy block
// or merges in compaction resolves to the same immutable *attrRef. The same
// duplicate-dominated stream that motivates interning means the store would
// otherwise re-hash and re-marshal identical path attributes for nearly every
// record. Writers take the lock once per Append, AppendBatch or replay loop,
// always after the store mutex; a reader takes it once per dictionary entry it
// resolves, never per record.
type attrTable struct {
	mu     sync.Mutex
	tab    *intern.Table
	refs   []*attrRef // by handle ID, filled on first sight
	byWire map[string]*attrRef
}

func newAttrTable() *attrTable {
	return &attrTable{tab: intern.New(), byWire: make(map[string]*attrRef)}
}

// attrRef is the store's record of one distinct attribute tuple: the
// canonical value, its wire bytes, and its origin AS (-1 when the path has
// none). It is immutable once its table hands it out, so whoever a row
// reaches — seal workers run off the store lock — reads it without a lock.
type attrRef struct {
	attrs  bgp.Attrs
	wire   []byte
	origin int32
}

// internLocked interns a and returns its ref, marshalling the tuple on first
// sight. t.mu is held.
func (t *attrTable) internLocked(a bgp.Attrs) (*attrRef, error) {
	h := t.tab.Attrs(a)
	for int(h.ID) >= len(t.refs) {
		t.refs = append(t.refs, nil)
	}
	if ref := t.refs[h.ID]; ref != nil {
		return ref, nil
	}
	w, err := bgp.MarshalAttrs(h.Attrs())
	if err != nil {
		return nil, err
	}
	ref := &attrRef{attrs: h.Attrs(), wire: w, origin: -1}
	if o, ok := ref.attrs.Path.Origin(); ok {
		ref.origin = int32(o)
	}
	t.refs[h.ID] = ref
	t.byWire[string(w)] = ref
	return ref, nil
}

// resolve returns the ref of the tuple whose wire bytes are w (not retained).
// After the first sight of a tuple it is one map probe and no allocation (Go
// elides the string(w) conversion in the lookup).
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
	ref, err := t.internLocked(a)
	if err != nil {
		return nil, err
	}
	t.byWire[string(w)] = ref
	t.tab.FlushStats()
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

// rowLocked converts rec to a memtable row, interning an announcement's
// attributes. The row keeps none of rec's slices. t.mu is held.
func (t *attrTable) rowLocked(rec *collector.Record) (memRec, error) {
	r := memRec{ns: rec.Time.UnixNano(), prefix: rec.Prefix, peerAddr: rec.PeerAddr, peerAS: rec.PeerAS, typ: rec.Type}
	if rec.Type == collector.Announce {
		var err error
		if r.attrs, err = t.internLocked(rec.Attrs); err != nil {
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
