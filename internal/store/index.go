package store

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

// blockMeta describes one block inside a segment.
type blockMeta struct {
	offset  int64 // file offset of the stored bytes
	clen    int32 // stored length
	ulen    int32 // inflated length of a legacy (deflated) block; clen for v3
	count   int32 // records in the block
	minTime int64 // unixnano of the first record
	maxTime int64 // unixnano of the last record
}

// postings maps an AS to the ascending list of block ids containing at least
// one matching record. Two instances index each segment: by peer AS and by
// origin AS.
type postings map[bgp.ASN][]int32

func (p postings) add(as bgp.ASN, block int32) {
	l := p[as]
	if n := len(l); n > 0 && l[n-1] == block {
		return
	}
	p[as] = append(p[as], block)
}

// blockSet returns the union of the posting lists for the given ASes, nil if
// none of them appear in the segment.
func (p postings) blockSet(ases []bgp.ASN) map[int32]bool {
	var set map[int32]bool
	for _, as := range ases {
		for _, b := range p[as] {
			if set == nil {
				set = make(map[int32]bool)
			}
			set[b] = true
		}
	}
	return set
}

// bloom is a split double-hashing Bloom filter over prefix keys.
type bloom struct {
	bits []uint64
	k    uint8
}

// bloomBitsPerKey sizes a segment's prefix filter: ~1% false positives.
// The index records the filter's size, so readers never depend on it.
const bloomBitsPerKey = 10

func newBloom(n int) *bloom {
	m := n * bloomBitsPerKey
	if m < 64 {
		m = 64
	}
	words := (m + 63) / 64
	return &bloom{bits: make([]uint64, words), k: 7}
}

// prefixKey is the hashed identity of a prefix.
func prefixKey(p netaddr.Prefix) uint64 {
	h := fnv.New64a()
	var b [5]byte
	b[0] = byte(p.Bits())
	binary.BigEndian.PutUint32(b[1:], uint32(p.Addr()))
	h.Write(b[:])
	return h.Sum64()
}

func (f *bloom) add(key uint64) {
	m := uint64(len(f.bits)) * 64
	h1, h2 := key, key>>17|key<<47
	for i := uint8(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		f.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (f *bloom) contains(key uint64) bool {
	if len(f.bits) == 0 {
		return true
	}
	m := uint64(len(f.bits)) * 64
	h1, h2 := key, key>>17|key<<47
	for i := uint8(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % m
		if f.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// segIndex is the decoded index section of a segment.
type segIndex struct {
	blocks  []blockMeta
	peers   postings
	origins postings
	filter  *bloom
}

// encodedLen is the length of ix's encoding, so a writer can size one buffer
// for it.
func (ix *segIndex) encodedLen() int {
	n := 4 + 36*len(ix.blocks) + 4 + 1 + 8*len(ix.filter.bits)
	for _, p := range [...]postings{ix.peers, ix.origins} {
		n += 4
		for _, l := range p {
			n += 6 + 4*len(l)
		}
	}
	return n
}

func (ix *segIndex) encode(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ix.blocks)))
	for _, bm := range ix.blocks {
		b = binary.BigEndian.AppendUint64(b, uint64(bm.offset))
		b = binary.BigEndian.AppendUint32(b, uint32(bm.clen))
		b = binary.BigEndian.AppendUint32(b, uint32(bm.ulen))
		b = binary.BigEndian.AppendUint32(b, uint32(bm.count))
		b = binary.BigEndian.AppendUint64(b, uint64(bm.minTime))
		b = binary.BigEndian.AppendUint64(b, uint64(bm.maxTime))
	}
	b = appendPostings(b, ix.peers)
	b = appendPostings(b, ix.origins)
	b = binary.BigEndian.AppendUint32(b, uint32(len(ix.filter.bits)*64))
	b = append(b, ix.filter.k)
	for _, w := range ix.filter.bits {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	return b
}

func appendPostings(b []byte, p postings) []byte {
	ases := make([]int, 0, len(p))
	for as := range p {
		ases = append(ases, int(as))
	}
	sort.Ints(ases)
	b = binary.BigEndian.AppendUint32(b, uint32(len(ases)))
	for _, as := range ases {
		list := p[bgp.ASN(as)]
		b = binary.BigEndian.AppendUint16(b, uint16(as))
		b = binary.BigEndian.AppendUint32(b, uint32(len(list)))
		for _, blk := range list {
			b = binary.BigEndian.AppendUint32(b, uint32(blk))
		}
	}
	return b
}

func decodeIndex(b []byte) (*segIndex, error) {
	ix := &segIndex{}
	if len(b) < 4 {
		return nil, fmt.Errorf("%w: index block count", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	const bmLen = 8 + 4 + 4 + 4 + 8 + 8
	if len(b) < n*bmLen {
		return nil, fmt.Errorf("%w: index block metas", ErrCorrupt)
	}
	ix.blocks = make([]blockMeta, n)
	for i := range ix.blocks {
		ix.blocks[i] = blockMeta{
			offset:  int64(binary.BigEndian.Uint64(b)),
			clen:    int32(binary.BigEndian.Uint32(b[8:])),
			ulen:    int32(binary.BigEndian.Uint32(b[12:])),
			count:   int32(binary.BigEndian.Uint32(b[16:])),
			minTime: int64(binary.BigEndian.Uint64(b[20:])),
			maxTime: int64(binary.BigEndian.Uint64(b[28:])),
		}
		b = b[bmLen:]
	}
	var err error
	if ix.peers, b, err = decodePostings(b); err != nil {
		return nil, err
	}
	if ix.origins, b, err = decodePostings(b); err != nil {
		return nil, err
	}
	if len(b) < 5 {
		return nil, fmt.Errorf("%w: bloom header", ErrCorrupt)
	}
	mbits := int(binary.BigEndian.Uint32(b))
	k := b[4]
	b = b[5:]
	words := mbits / 64
	if mbits%64 != 0 || len(b) < words*8 {
		return nil, fmt.Errorf("%w: bloom bits", ErrCorrupt)
	}
	f := &bloom{bits: make([]uint64, words), k: k}
	for i := range f.bits {
		f.bits[i] = binary.BigEndian.Uint64(b[i*8:])
	}
	ix.filter = f
	return ix, nil
}

func decodePostings(b []byte) (postings, []byte, error) {
	if len(b) < 4 || int(binary.BigEndian.Uint32(b)) > (len(b)-4)/6 { // an entry is at least 6 bytes
		return nil, nil, fmt.Errorf("%w: postings count", ErrCorrupt)
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	p := make(postings, n)
	for i := 0; i < n; i++ {
		if len(b) < 6 {
			return nil, nil, fmt.Errorf("%w: postings entry", ErrCorrupt)
		}
		as := bgp.ASN(binary.BigEndian.Uint16(b))
		cnt := int(binary.BigEndian.Uint32(b[2:]))
		b = b[6:]
		if len(b) < cnt*4 {
			return nil, nil, fmt.Errorf("%w: postings list", ErrCorrupt)
		}
		list := make([]int32, cnt)
		for j := range list {
			list[j] = int32(binary.BigEndian.Uint32(b[j*4:]))
		}
		b = b[cnt*4:]
		p[as] = list
	}
	return p, b, nil
}
