package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"instability/internal/bgp"
	"instability/internal/intern"
	"instability/internal/netaddr"
)

// peerKey is one entry of a block's peer dictionary.
type peerKey struct {
	as   bgp.ASN
	addr netaddr.Addr
}

func (p peerKey) compare(q peerKey) int {
	return cmp.Or(cmp.Compare(p.as, q.as), cmp.Compare(p.addr, q.addr))
}

// rowCodes is one row's provisional dictionary codes, in first-seen order;
// attr is 1-based, 0 meaning the row carries no attributes.
type rowCodes struct{ peer, prefix, attr uint16 }

// keySlot is one slot of a stamped table: it holds key's provisional code
// for the block whose stamp it carries, and is empty for any other block.
type keySlot struct {
	key   uint64
	stamp uint32
	code  uint16
}

// sealScratch is the reusable state of encoding segment blocks and the
// segment buffer they are appended to. Its tables are stamped per block, so
// each block starts from empty dictionaries with nothing cleared and nothing
// hashed but two integer keys a row.
type sealScratch struct {
	stamp uint32 // the block being encoded
	// peerSlots and prefixSlots dedupe packed keys by open addressing;
	// attrSlots is indexed by intern.Handle.ID.
	peerSlots, prefixSlots, attrSlots []keySlot
	// After a block, its dictionaries in final order: peers and prefixes as
	// key<<16 | provisional code (peer key AS<<32 | address, prefix key
	// Prefix.Key, whose orders are peerKey.compare's and Prefix.Compare's),
	// attributes by wire bytes.
	peers, prefixes []uint64
	attrs           []*intern.Handle
	remap           [3][]uint16 // provisional -> final code, per dictionary
	rows            []rowCodes
	seg             []byte // the segment writeSegment assembles
}

var sealScratchPool = sync.Pool{New: func() any { return new(sealScratch) }}

func getSealScratch() *sealScratch   { return sealScratchPool.Get().(*sealScratch) }
func putSealScratch(sc *sealScratch) { sealScratchPool.Put(sc) }

// nextBlock stamps a new block and sizes the key tables to stay at most half
// full for n rows.
func (sc *sealScratch) nextBlock(n int) {
	if size := max(64, 1<<bits.Len(uint(2*n-1))); len(sc.peerSlots) < size {
		sc.peerSlots, sc.prefixSlots = make([]keySlot, size), make([]keySlot, size)
	}
	if sc.stamp++; sc.stamp == 0 { // wrapped: old stamps would read as live
		clear(sc.peerSlots)
		clear(sc.prefixSlots)
		clear(sc.attrSlots)
		sc.stamp = 1
	}
}

// code returns key's provisional code in slots, a power-of-two table,
// adding it to dict under the next code when the block has not seen it.
func (sc *sealScratch) code(slots []keySlot, dict *[]uint64, key uint64) uint16 {
	mask := uint64(len(slots) - 1)
	i := key * 0x9e3779b97f4a7c15 >> 32 & mask
	for slots[i].stamp == sc.stamp && slots[i].key != key {
		i = (i + 1) & mask
	}
	s := &slots[i]
	if s.stamp != sc.stamp {
		*s = keySlot{key: key, stamp: sc.stamp, code: uint16(len(*dict))}
		*dict = append(*dict, key<<16|uint64(s.code))
	}
	return s.code
}

// sortKeys sorts a dictionary of key<<16 | provisional code entries into
// key order and fills remap with each provisional code's final one.
func sortKeys(dict []uint64, remap []uint16) []uint16 {
	slices.Sort(dict)
	remap = slices.Grow(remap[:0], len(dict))[:len(dict)]
	for i, e := range dict {
		remap[uint16(e)] = uint16(i)
	}
	return remap
}

// appendCode appends one dictionary code at the column width n entries need.
func appendCode(b []byte, n int, code uint16) []byte {
	if n > maxNarrowDict {
		return append(b, byte(code), byte(code>>8))
	}
	return append(b, byte(code))
}

// encodeSegmentBlock appends one block of time-sorted rows, encoded in
// segment format v3 (layout at colBlock), to b, and leaves the block's
// dictionaries in sc for the index. The bytes depend only on the block's
// records — every dictionary is sorted by value — so however the rows are
// cut into segments, equal blocks encode equally. A row's attribute
// dictionary entry is its handle's wire bytes and origin: nothing here
// hashes a tuple.
func encodeSegmentBlock(sc *sealScratch, b []byte, block []memRec) ([]byte, error) {
	if len(block) == 0 || len(block) > maxBlockRecords {
		return b, fmt.Errorf("store: block of %d records", len(block))
	}
	sc.nextBlock(len(block))
	peers, prefixes, attrs := sc.peers[:0], sc.prefixes[:0], sc.attrs[:0]
	rows := sc.rows[:0]
	inline, dictBytes := 0, 0 // what inline attributes would have cost, for the bytes-saved metric
	for i := range block {
		r := &block[i]
		rc := rowCodes{
			peer:   sc.code(sc.peerSlots, &peers, uint64(r.peerAS)<<32|uint64(r.peerAddr)),
			prefix: sc.code(sc.prefixSlots, &prefixes, r.prefix.Key()),
		}
		if a := r.attrs; a != nil {
			if int(a.ID) >= len(sc.attrSlots) {
				sc.attrSlots = append(sc.attrSlots, make([]keySlot, int(a.ID)+1-len(sc.attrSlots))...)
			}
			s := &sc.attrSlots[a.ID]
			if s.stamp != sc.stamp {
				*s = keySlot{stamp: sc.stamp, code: uint16(len(attrs))}
				attrs = append(attrs, a)
				dictBytes += len(a.Wire())
			}
			inline += len(a.Wire())
			rc.attr = s.code + 1
		}
		rows = append(rows, rc)
	}
	obsDictEntries.Add(int64(len(attrs)))
	obsDictBytesSaved.Add(int64(inline - dictBytes))

	sc.remap[0] = sortKeys(peers, sc.remap[0])
	sc.remap[1] = sortKeys(prefixes, sc.remap[1])
	slices.SortFunc(attrs, func(a, b *intern.Handle) int { return bytes.Compare(a.Wire(), b.Wire()) })
	sc.remap[2] = slices.Grow(sc.remap[2][:0], len(attrs))[:len(attrs)]
	for i, a := range attrs {
		sc.remap[2][sc.attrSlots[a.ID].code] = uint16(i)
	}
	sc.peers, sc.prefixes, sc.attrs, sc.rows = peers, prefixes, attrs, rows

	start := len(b)
	b = binary.AppendUvarint(b, uint64(len(peers)))
	for _, p := range peers {
		b = binary.BigEndian.AppendUint16(b, uint16(p>>48))
		b = binary.BigEndian.AppendUint32(b, uint32(p>>16))
	}
	b = binary.AppendUvarint(b, uint64(len(prefixes)))
	for _, p := range prefixes {
		b = binary.BigEndian.AppendUint32(b, uint32(p>>24))
		b = append(b, byte(p>>16))
	}
	b = binary.AppendUvarint(b, uint64(len(attrs)))
	for _, a := range attrs {
		b = binary.AppendUvarint(b, uint64(len(a.Wire())))
		b = append(b, a.Wire()...)
		b = binary.AppendUvarint(b, uint64(a.Origin()+1))
	}
	for _, r := range block {
		b = append(b, byte(r.typ))
	}
	for _, rc := range rows {
		b = appendCode(b, len(peers), sc.remap[0][rc.peer])
	}
	for _, rc := range rows {
		b = appendCode(b, len(prefixes), sc.remap[1][rc.prefix])
	}
	for _, rc := range rows {
		code := uint16(0)
		if rc.attr > 0 {
			code = sc.remap[2][rc.attr-1] + 1
		}
		b = appendCode(b, len(attrs), code)
	}
	prev := block[0].ns
	for _, r := range block[1:] {
		t := r.ns
		if t < prev {
			return b[:start], fmt.Errorf("store: records not time-sorted at seal")
		}
		b = binary.AppendUvarint(b, uint64(t-prev))
		prev = t
	}
	return appendChecksum(b, start), nil
}
