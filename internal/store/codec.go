package store

import (
	"errors"
	"sync"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/intern"
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

// appendRecord appends rec in the record encoding (collector.AppendRecord),
// an announcement's attributes from the memo. A nil encoder marshals them
// afresh.
func (e *attrEncoder) appendRecord(b []byte, rec collector.Record) ([]byte, error) {
	if e == nil || rec.Type != collector.Announce {
		return collector.AppendRecord(b, rec)
	}
	_, w, err := e.encode(rec.Attrs)
	if err != nil {
		return nil, err
	}
	return collector.AppendRecordAttrs(b, rec, w), nil
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

// originOf extracts the origin AS of an announcement (the last AS of its
// path). Non-announcements, and announcements with empty or SET-terminated
// paths, have no origin; ok is false.
func originOf(rec collector.Record) (bgp.ASN, bool) {
	if rec.Type != collector.Announce {
		return 0, false
	}
	return rec.Attrs.Path.Origin()
}
