package store

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

// encodedBlock is one block's finished wire form and the dictionaries the
// segment index is folded from. Blocks are encoded independently (possibly
// concurrently) and stitched into the segment in submission order.
type encodedBlock struct {
	data     []byte
	peers    []peerKey
	prefixes []netaddr.Prefix
	attrs    []*attrRef
	err      error
}

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

// sealScratch is the per-worker reusable state for encoding segment blocks:
// the dictionary build maps and the block buffer.
type sealScratch struct {
	peerOf   map[uint64]uint16 // AS<<32 | address: integer keys hash on the fast path
	prefixOf map[uint64]uint16 // address<<8 | mask length
	attrOf   map[*attrRef]uint16
	peers    [2][]peerKey // [0] first-seen order, [1] sorted
	prefixes [2][]netaddr.Prefix
	attrs    [2][]*attrRef
	remap    [3][]uint16 // provisional -> final code, per dictionary
	rows     []rowCodes
	out      []byte
}

var sealScratchPool = sync.Pool{New: func() any {
	return &sealScratch{
		peerOf:   make(map[uint64]uint16),
		prefixOf: make(map[uint64]uint16),
		attrOf:   make(map[*attrRef]uint16),
	}
}}

func getSealScratch() *sealScratch   { return sealScratchPool.Get().(*sealScratch) }
func putSealScratch(sc *sealScratch) { sealScratchPool.Put(sc) }

// canonical writes dict, sorted and deduplicated under cmp, into sorted's
// storage, and fills remap with the final code of every provisional entry.
func canonical[T any](dict, sorted []T, remap []uint16, cmp func(T, T) int) ([]T, []uint16) {
	sorted = append(sorted[:0], dict...)
	slices.SortFunc(sorted, cmp)
	sorted = slices.CompactFunc(sorted, func(a, b T) bool { return cmp(a, b) == 0 })
	remap = remap[:0]
	for _, e := range dict {
		i, _ := slices.BinarySearchFunc(sorted, e, cmp)
		remap = append(remap, uint16(i))
	}
	return sorted, remap
}

// appendCode appends one dictionary code at the column width n entries need.
func appendCode(b []byte, n int, code uint16) []byte {
	if n > maxNarrowDict {
		return append(b, byte(code), byte(code>>8))
	}
	return append(b, byte(code))
}

// encodeSegmentBlock encodes one block of time-sorted rows into segment
// format v3 (layout at colBlock). The result depends only on the block's
// records — every dictionary is sorted by value — so any assignment of blocks
// to workers produces identical segment bytes. A row's attribute dictionary
// entry is its ref's wire bytes and origin: nothing here hashes a tuple.
func encodeSegmentBlock(sc *sealScratch, block []memRec) encodedBlock {
	if len(block) == 0 || len(block) > maxBlockRecords {
		return encodedBlock{err: fmt.Errorf("store: block of %d records", len(block))}
	}
	clear(sc.peerOf)
	clear(sc.prefixOf)
	clear(sc.attrOf)
	peers, prefixes, attrs := sc.peers[0][:0], sc.prefixes[0][:0], sc.attrs[0][:0]
	rows := sc.rows[:0]
	inline, dictBytes := 0, 0 // what inline attributes would have cost, for the bytes-saved metric
	for i := range block {
		r := &block[i]
		var rc rowCodes
		var ok bool
		pk := uint64(r.peerAS)<<32 | uint64(r.peerAddr)
		if rc.peer, ok = sc.peerOf[pk]; !ok {
			rc.peer = uint16(len(peers))
			sc.peerOf[pk] = rc.peer
			peers = append(peers, peerKey{r.peerAS, r.peerAddr})
		}
		fk := r.prefix.Key()
		if rc.prefix, ok = sc.prefixOf[fk]; !ok {
			rc.prefix = uint16(len(prefixes))
			sc.prefixOf[fk] = rc.prefix
			prefixes = append(prefixes, r.prefix)
		}
		if r.attrs != nil {
			j, ok := sc.attrOf[r.attrs]
			if !ok {
				j = uint16(len(attrs))
				sc.attrOf[r.attrs] = j
				attrs = append(attrs, r.attrs)
				dictBytes += len(r.attrs.wire)
			}
			inline += len(r.attrs.wire)
			rc.attr = j + 1
		}
		rows = append(rows, rc)
	}
	sc.peers[0], sc.prefixes[0], sc.attrs[0], sc.rows = peers, prefixes, attrs, rows
	obsDictEntries.Add(int64(len(attrs)))
	obsDictBytesSaved.Add(int64(inline - dictBytes))

	peers, sc.remap[0] = canonical(peers, sc.peers[1], sc.remap[0], peerKey.compare)
	prefixes, sc.remap[1] = canonical(prefixes, sc.prefixes[1], sc.remap[1], netaddr.Prefix.Compare)
	attrs, sc.remap[2] = canonical(attrs, sc.attrs[1], sc.remap[2], func(a, b *attrRef) int {
		return bytes.Compare(a.wire, b.wire)
	})
	sc.peers[1], sc.prefixes[1], sc.attrs[1] = peers, prefixes, attrs

	b := binary.AppendUvarint(sc.out[:0], uint64(len(peers)))
	for _, p := range peers {
		b = binary.BigEndian.AppendUint16(b, uint16(p.as))
		b = binary.BigEndian.AppendUint32(b, uint32(p.addr))
	}
	b = binary.AppendUvarint(b, uint64(len(prefixes)))
	for _, p := range prefixes {
		b = binary.BigEndian.AppendUint32(b, uint32(p.Addr()))
		b = append(b, byte(p.Bits()))
	}
	b = binary.AppendUvarint(b, uint64(len(attrs)))
	for _, a := range attrs {
		b = binary.AppendUvarint(b, uint64(len(a.wire)))
		b = append(b, a.wire...)
		b = binary.AppendUvarint(b, uint64(a.origin+1))
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
			return encodedBlock{err: fmt.Errorf("store: records not time-sorted at seal")}
		}
		b = binary.AppendUvarint(b, uint64(t-prev))
		prev = t
	}
	sc.out = appendChecksum(b)
	// The stitch outlives the scratch: hand back copies.
	return encodedBlock{data: bytes.Clone(sc.out), peers: slices.Clone(peers), prefixes: slices.Clone(prefixes), attrs: slices.Clone(attrs)}
}
