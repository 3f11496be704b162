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

// lockedTable is the store's one intern.Table and the mutex its users share:
// every tuple a store appends, replays, reads from a block, transcodes from a
// legacy block or merges in compaction resolves to the same immutable
// *intern.Handle, found by its wire bytes. The same duplicate-dominated
// stream that motivates a table means nearly every append repeats a tuple the
// table holds: encoding it and probing the map is all the append pays.
// Writers take the lock once per Append, AppendBatch or replay loop, always
// after the store mutex; a reader takes it once per dictionary entry it
// resolves, never per record. A handle is immutable once the table hands it
// out, so whoever a row reaches — the seal runs off the store lock — reads it
// without a lock.
type lockedTable struct {
	mu sync.Mutex
	*intern.Table
}

func newLockedTable() *lockedTable { return &lockedTable{Table: intern.New()} }

// memRec is one unsealed record as the memtable holds it: 32 bytes and one
// pointer where a collector.Record is 120 and three. attrs is nil exactly
// when the record is not an announcement.
type memRec struct {
	ns       int64
	attrs    *intern.Handle
	prefix   netaddr.Prefix
	peerAddr netaddr.Addr
	peerAS   bgp.ASN
	typ      collector.RecType
}

// rowLocked converts rec to a memtable row, resolving an announcement's
// attributes by the wire bytes they encode to. The row keeps none of rec's
// slices. t.mu is held.
func (t *lockedTable) rowLocked(rec *collector.Record) (memRec, error) {
	r := memRec{ns: rec.Time.UnixNano(), prefix: rec.Prefix, peerAddr: rec.PeerAddr, peerAS: rec.PeerAS, typ: rec.Type}
	if rec.Type == collector.Announce {
		var err error
		if r.attrs, err = t.Attrs(&rec.Attrs); err != nil {
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
		rec.Attrs = *r.attrs.Attrs()
	}
	return rec
}
