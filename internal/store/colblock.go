package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/intern"
	"instability/internal/netaddr"
)

// Segment block format v3. A block is stored uncompressed and column-major
// behind a CRC-32; its row count n and first timestamp live in the index.
//
//	uvarint P | P x (u16 peer AS, u32 peer address)      strictly ascending
//	uvarint F | F x (u32 prefix address, u8 mask length)  strictly ascending
//	uvarint A | A x (uvarint len, attribute wire bytes,
//	                 uvarint origin AS + 1, 0 = none)     strictly ascending by wire bytes
//	n x u8 record type
//	n x peer code | n x prefix code | n x attribute code (1-based, 0 = none)
//	(n-1) x uvarint timestamp delta from the previous row
//	u32 CRC-32 of everything above
//
// A code column is one byte per row, two (little-endian) when its dictionary
// holds more than maxNarrowDict entries. Every dictionary entry is referenced
// and every varint minimal, so a block has exactly one encoding.
const (
	maxNarrowDict   = 255
	maxBlockRecords = 1<<16 - 1 // what a two-byte code can number
)

// codes is one dictionary-code column.
type codes struct {
	b    []byte
	wide bool
}

func (c codes) at(i int) int {
	if c.wide {
		return int(c.b[2*i]) | int(c.b[2*i+1])<<8
	}
	return int(c.b[i])
}

// colBlock is the in-memory form of one segment block, and it is the stored
// form: three small dictionaries (peers, prefixes, attribute tuples), one
// code per row into each, a type byte per row and the timestamps. Scans
// filter on the codes — a peer or origin predicate is resolved once per block
// against its dictionary, an exact prefix is one binary search — and gather
// collector.Record values through the dictionaries only for rows that
// survive, so a selective query never constructs the records it filters out.
// Legacy (v2) blocks are transcoded to this form when fetched.
//
// A scanner's private colBlock aliases the bytes it was parsed from (the
// segment mapping or the scanner's read buffer) and interns an attribute
// tuple the first time a surviving row references it. A cached colBlock owns
// its memory, has every tuple interned, and is immutable: the shared block
// cache hands the same instance to any number of concurrent readers.
type colBlock struct {
	times    []int64 // ascending unixnano timestamps
	types    []byte  // collector.RecType per row
	peerc    codes
	prefixc  codes
	attrc    codes // 1-based; 0 = the row has no attributes
	peers    []peerKey
	prefixes []netaddr.Prefix // sorted: an exact-prefix probe is a binary search

	dict     []*intern.Handle // nil = not yet resolved
	dictWire [][]byte         // nil on a cached block: every entry is resolved
	// dictOrigin memoizes Path.Origin() per dictionary entry (-1 = none), so
	// an origin predicate is resolved against the dictionary, not the rows.
	dictOrigin []int32
	tab        *lockedTable // the store's, which every entry resolves through

	mark []bool // parse scratch: which dictionary entries the rows reference
	// bytes is the approximate resident size of the block, the unit the
	// cache budget is accounted in.
	bytes int64
}

func (cb *colBlock) rows() int { return len(cb.times) }

// reset truncates every column for reuse, dropping attribute references so a
// pooled scratch block never pins another block's interned tuples or bytes.
func (cb *colBlock) reset() {
	cb.times = cb.times[:0]
	cb.types, cb.peerc, cb.prefixc, cb.attrc = nil, codes{}, codes{}, codes{}
	cb.peers = cb.peers[:0]
	cb.prefixes = cb.prefixes[:0]
	clear(cb.dict)
	cb.dict = cb.dict[:0]
	clear(cb.dictWire)
	cb.dictWire = cb.dictWire[:0]
	cb.dictOrigin = cb.dictOrigin[:0]
	cb.tab = nil
	cb.bytes = 0
}

// blockParser walks a block's bytes; the first short or malformed read makes
// it sticky-bad, so parsing is straight-line with one check at the end.
type blockParser struct {
	b    []byte
	bad  bool
	mark []bool // scratch of codes
}

func (p *blockParser) take(n int) []byte {
	if n < 0 || n > len(p.b) {
		p.bad, p.b = true, nil
		return nil
	}
	out := p.b[:n:n]
	p.b = p.b[n:]
	return out
}

// uvarint reads one minimally encoded varint no larger than limit.
func (p *blockParser) uvarint(limit uint64) uint64 {
	v, n := binary.Uvarint(p.b)
	if n <= 0 || v > limit || n > 1 && p.b[n-1] == 0 {
		p.bad = true
		return 0
	}
	p.b = p.b[n:]
	return v
}

// zeroed returns *buf cut to n false entries, grown first when too short.
func zeroed(buf *[]bool, n int) []bool {
	if cap(*buf) < n {
		*buf = make([]bool, n)
	}
	s := (*buf)[:n]
	clear(s)
	return s
}

// codes takes an n-row code column over a dictionary of dictLen entries and
// checks it: every code in range, every entry referenced. base is 1 for the
// attribute column, whose code 0 means none.
func (p *blockParser) codes(n, dictLen, base int) codes {
	c := codes{wide: dictLen > maxNarrowDict}
	if c.wide {
		c.b = p.take(2 * n)
	} else {
		c.b = p.take(n)
	}
	if p.bad {
		return codes{}
	}
	seen := zeroed(&p.mark, dictLen+base)
	for i := 0; i < n; i++ {
		if v := c.at(i); v < len(seen) {
			seen[v] = true
		} else {
			p.bad = true
		}
	}
	p.bad = p.bad || slices.Contains(seen[base:], false)
	return c
}

// parseColBlock parses the stored bytes b of v3 block bi into cb, which then
// aliases b — unless own is set: cb then copies what it keeps and interns
// every attribute tuple, as the shared cache needs.
func parseColBlock(g *segment, bi int, b []byte, own bool, cb *colBlock) error {
	bm := g.index.blocks[bi]
	n := int(bm.count)
	cb.reset()
	cb.tab = g.tab
	body, ok := splitChecksum(b)
	if n <= 0 || !ok {
		return fmt.Errorf("%w: block %d checksum", ErrCorrupt, bi)
	}
	p := &blockParser{b: body, mark: cb.mark}
	rows := uint64(n)

	for d := p.take(6 * int(p.uvarint(rows))); len(d) > 0; d = d[6:] {
		k := peerKey{bgp.ASN(binary.BigEndian.Uint16(d)), netaddr.Addr(binary.BigEndian.Uint32(d[2:]))}
		if l := len(cb.peers); l > 0 && cb.peers[l-1].compare(k) >= 0 {
			p.bad = true
		}
		cb.peers = append(cb.peers, k)
	}
	for d := p.take(5 * int(p.uvarint(rows))); len(d) > 0; d = d[5:] {
		addr := netaddr.Addr(binary.BigEndian.Uint32(d))
		f, err := netaddr.PrefixFrom(addr, int(d[4]))
		if l := len(cb.prefixes); err != nil || f.Addr() != addr || l > 0 && cb.prefixes[l-1].Compare(f) >= 0 {
			p.bad = true
		}
		cb.prefixes = append(cb.prefixes, f)
	}
	for i := p.uvarint(rows); i > 0 && !p.bad; i-- {
		w := p.take(int(p.uvarint(uint64(len(p.b)))))
		if l := len(cb.dictWire); l > 0 && bytes.Compare(cb.dictWire[l-1], w) >= 0 {
			p.bad = true
		}
		cb.dictWire = append(cb.dictWire, w)
		cb.dictOrigin = append(cb.dictOrigin, int32(p.uvarint(1<<16))-1)
	}
	na := len(cb.dictWire)
	cb.dict = append(cb.dict, make([]*intern.Handle, na)...)

	cols := p.b // the row columns are contiguous from here
	cb.types = p.take(n)
	cb.peerc = p.codes(n, len(cb.peers), 0)
	cb.prefixc = p.codes(n, len(cb.prefixes), 0)
	cb.attrc = p.codes(n, na, 1)
	cb.mark = p.mark
	if p.bad {
		return fmt.Errorf("%w: block %d dictionaries or codes", ErrCorrupt, bi)
	}
	for i, t := range cb.types {
		if t < byte(collector.Announce) || t > byte(collector.SessionDown) ||
			(t == byte(collector.Announce)) != (cb.attrc.at(i) > 0) {
			return fmt.Errorf("%w: block %d row %d type", ErrCorrupt, bi, i)
		}
	}
	cols = cols[:len(cols)-len(p.b)]
	times := slices.Grow(cb.times, n)[:n]
	times[0] = bm.minTime
	for i := 1; i < n; i++ {
		var d uint64
		if len(p.b) > 0 && p.b[0] < 0x80 { // one byte, as a zero delta is: 57 % of the campaign's
			d, p.b = uint64(p.b[0]), p.b[1:]
		} else {
			d = p.uvarint(1<<63 - 1)
		}
		if times[i] = times[i-1] + int64(d); times[i] < times[i-1] {
			p.bad = true // the sum overflowed
		}
	}
	cb.times = times
	if p.bad || len(p.b) != 0 {
		return fmt.Errorf("%w: block %d timestamps", ErrCorrupt, bi)
	}
	cb.bytes += int64(n)*8 + int64(len(cols)) + int64(len(cb.peers)+len(cb.prefixes))*8 + int64(na)*attrsSize
	if !own {
		return nil
	}
	q := blockParser{b: bytes.Clone(cols)}
	cb.types, cb.peerc.b = q.take(n), q.take(len(cb.peerc.b))
	cb.prefixc.b, cb.attrc.b = q.take(len(cb.prefixc.b)), q.take(len(cb.attrc.b))
	for j := range cb.dict {
		if err := cb.resolve(j); err != nil {
			return fmt.Errorf("block %d: %w", bi, err)
		}
	}
	cb.dictWire, cb.mark = nil, nil
	return nil
}

// attrsSize is what one dictionary entry is accounted at: about a bgp.Attrs
// header. The entry is a pointer to a handle the whole store shares, so
// this errs on the side of a smaller cache.
const attrsSize = 96

// resolve points dictionary entry j at its handle in the store's table, so
// every block referencing the same tuple shares one value, and checks the
// origin stored beside it.
func (cb *colBlock) resolve(j int) error {
	cb.tab.mu.Lock()
	h, err := cb.tab.Wire(cb.dictWire[j])
	cb.tab.mu.Unlock()
	if err != nil {
		return fmt.Errorf("%w: attribute dictionary entry %d: %v", ErrCorrupt, j, err)
	}
	if h.Origin() != cb.dictOrigin[j] {
		return fmt.Errorf("%w: attribute dictionary entry %d: stored origin %d, path says %d", ErrCorrupt, j, cb.dictOrigin[j], h.Origin())
	}
	cb.dict[j] = h
	return nil
}

// fill materializes row i into *rec, overwriting every field: rec is a slot
// of a reused buffer and may hold a stale row. The row's attribute tuple must
// be resolved: always so on a cached block, after intern(i) on a private one.
func (cb *colBlock) fill(rec *collector.Record, i int) {
	rec.Time = time.Unix(0, cb.times[i]).UTC()
	rec.Type = collector.RecType(cb.types[i])
	peer := cb.peers[cb.peerc.at(i)]
	rec.PeerAS, rec.PeerAddr = peer.as, peer.addr
	rec.Prefix = cb.prefixes[cb.prefixc.at(i)]
	if j := cb.attrc.at(i) - 1; j >= 0 {
		rec.Attrs = *cb.dict[j].Attrs()
	} else {
		rec.Attrs = bgp.Attrs{}
	}
}

// row returns row i as a memtable row, under the same precondition as fill:
// compaction moves rows through it without building a record.
func (cb *colBlock) row(i int) memRec {
	peer := cb.peers[cb.peerc.at(i)]
	r := memRec{ns: cb.times[i], prefix: cb.prefixes[cb.prefixc.at(i)], peerAddr: peer.addr, peerAS: peer.as, typ: collector.RecType(cb.types[i])}
	if j := cb.attrc.at(i) - 1; j >= 0 {
		r.attrs = cb.dict[j]
	}
	return r
}

// intern makes row i ready for fill on a scanner's private block, where an
// attribute tuple is interned only once a surviving row references it.
func (cb *colBlock) intern(i int) error {
	if j := cb.attrc.at(i) - 1; j >= 0 && cb.dict[j] == nil {
		return cb.resolve(j)
	}
	return nil
}

// kernelScratch is selectRows' reusable working memory: the row selection
// and the code sets a peer or origin predicate resolves to.
type kernelScratch struct {
	sel          []int32
	peers, attrs []bool
}

// codeSet marks in *set which of n dictionary entries satisfy match, and
// reports whether any does.
func codeSet(set *[]bool, n int, match func(j int) bool) (any bool) {
	s := zeroed(set, n)
	for j := range s {
		if match(j) {
			s[j], any = true, true
		}
	}
	return any
}

// selectRows returns the rows of cb satisfying q, ascending: the row range
// [lo, hi) when sel is nil, which a pure time scan yields, else the selection
// vector sel, which lives in the scratch until the next call. Every selected
// row is ready for fill. The predicate semantics are exactly Query.Matches';
// nothing downstream checks a row again.
//
// Dictionary-valued predicates run on codes. PeerAS and OriginAS are resolved
// once against the block's dictionaries into code sets, an exact Prefix is a
// binary search in the sorted prefix dictionary; an empty set or an absent
// prefix means the block yields nothing, and no row is touched.
func (cb *colBlock) selectRows(q *Query, ks *kernelScratch) (lo, hi int, sel []int32, err error) {
	first, last := q.nsBounds()
	lo, _ = slices.BinarySearch(cb.times, first)
	hi = cb.rows()
	if last < math.MaxInt64 {
		hi, _ = slices.BinarySearch(cb.times, last+1)
	}
	if lo >= hi {
		return 0, 0, nil, nil
	}
	if len(q.PeerAS) > 0 && !codeSet(&ks.peers, len(cb.peers), func(j int) bool {
		return containsASN(q.PeerAS, cb.peers[j].as)
	}) {
		return 0, 0, nil, nil
	}
	if len(q.OriginAS) > 0 && !codeSet(&ks.attrs, len(cb.dictOrigin), func(j int) bool {
		o := cb.dictOrigin[j]
		return o >= 0 && containsASN(q.OriginAS, bgp.ASN(o))
	}) {
		return 0, 0, nil, nil
	}
	prefix := 0
	if q.hasPrefix() {
		var ok bool
		if prefix, ok = slices.BinarySearchFunc(cb.prefixes, q.Prefix, netaddr.Prefix.Compare); !ok {
			return 0, 0, nil, nil
		}
	}
	if len(q.Types) == 0 && len(q.PeerAS) == 0 && len(q.OriginAS) == 0 && !q.hasPrefix() {
		// Pure time-range scan: the row range is the answer.
		for i := lo; i < hi && cb.dictWire != nil; i++ {
			if err := cb.intern(i); err != nil {
				return 0, 0, nil, err
			}
		}
		return lo, hi, nil, nil
	}

	// Seed the selection from the row range, then narrow it with one
	// compaction pass per set predicate — each pass touches one column.
	sel = ks.sel[:0]
	if len(q.Types) > 0 {
		for i := lo; i < hi; i++ {
			if containsType(q.Types, collector.RecType(cb.types[i])) {
				sel = append(sel, int32(i))
			}
		}
	} else {
		for i := lo; i < hi; i++ {
			sel = append(sel, int32(i))
		}
	}
	if q.hasPrefix() {
		kept := sel[:0]
		for _, i := range sel {
			if cb.prefixc.at(int(i)) == prefix {
				kept = append(kept, i)
			}
		}
		sel = kept
	}
	if len(q.PeerAS) > 0 {
		kept := sel[:0]
		for _, i := range sel {
			if ks.peers[cb.peerc.at(int(i))] {
				kept = append(kept, i)
			}
		}
		sel = kept
	}
	if len(q.OriginAS) > 0 {
		// Only announcements carry an attribute code (checked at parse).
		kept := sel[:0]
		for _, i := range sel {
			if j := cb.attrc.at(int(i)) - 1; j >= 0 && ks.attrs[j] {
				kept = append(kept, i)
			}
		}
		sel = kept
	}
	ks.sel = sel
	for k := 0; k < len(sel) && cb.dictWire != nil; k++ {
		if err := cb.intern(int(sel[k])); err != nil {
			return 0, 0, nil, err
		}
	}
	return 0, 0, sel, nil
}

// blockScanner bundles the per-consumer scratch state of the columnar read
// path: the buffer blocks are read into when the segment is not mapped, a
// private parse target for uncached scans, and the kernels' working memory.
// Serial streams and parallel scan workers each own one for their lifetime.
type blockScanner struct {
	buf     []byte
	scratch *colBlock
	ks      kernelScratch
}

var blockScannerPool = sync.Pool{New: func() any {
	return &blockScanner{scratch: new(colBlock)}
}}

func getBlockScanner() *blockScanner { return blockScannerPool.Get().(*blockScanner) }

// maxRetainedBlockBytes caps the read buffer a pooled blockScanner may keep
// between uses. One pathological block (a huge time window sealed into a
// single block) would otherwise pin a buffer of its size in every pool entry
// it passed through for the life of the process.
const maxRetainedBlockBytes = 1 << 20

func putBlockScanner(bs *blockScanner) {
	if cap(bs.buf) > maxRetainedBlockBytes {
		bs.buf = nil
	}
	bs.scratch.reset()
	blockScannerPool.Put(bs)
}

// fetch returns block bi of g — through the store's shared cache when it has
// one (hit reports whether the block was served without touching disk), or
// parsed into the scanner's private scratch when caching is off. mm is the
// segment mapping the caller holds a reference on (nil to read through f);
// the scratch block aliases it, or the scanner's buffer, until the next
// fetch.
func (bs *blockScanner) fetch(g *segment, f io.ReaderAt, mm *segMap, cache *blockCache, bi int) (*colBlock, bool, error) {
	if cache == nil {
		return bs.scratch, false, bs.load(g, f, mm, bi, false, bs.scratch)
	}
	return cache.getOrLoad(blockKey{seg: g.fp, block: int32(bi)}, func() (*colBlock, error) {
		cb := new(colBlock)
		return cb, bs.load(g, f, mm, bi, true, cb)
	})
}

// load reads block bi and parses it into cb: check the CRC, parse three small
// dictionaries, bounds-check the code columns. A legacy block is inflated,
// decoded and re-encoded as v3 first, so there is one parser and one set of
// kernels whatever wrote the segment.
func (bs *blockScanner) load(g *segment, f io.ReaderAt, mm *segMap, bi int, own bool, cb *colBlock) error {
	b, err := g.readBlock(&bs.buf, f, mm, bi)
	if err != nil {
		return err
	}
	if g.ver < segVersionV3 {
		if b, err = transcodeLegacyBlock(g, bi, b); err != nil {
			return err
		}
	}
	return parseColBlock(g, bi, b, own, cb)
}
