package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
	"instability/internal/netaddr"
)

// colBlock is the decoded, columnar form of one segment block: every record
// field lives in its own dense array, and announce attributes are a small
// per-block dictionary referenced by index. Scans filter the columns as
// arrays — time range by binary search, then one compaction pass per set
// predicate — and materialize collector.Record values only for rows that
// survive, so a selective query never constructs the records it filters out.
//
// A colBlock is immutable once decoded; the shared block cache hands the
// same instance to any number of concurrent readers.
type colBlock struct {
	times    []int64 // ascending unixnano timestamps
	types    []collector.RecType
	peers    []bgp.ASN
	addrs    []netaddr.Addr
	prefixes []netaddr.Prefix
	attr     []int32 // per-row dictionary index, -1 = no attributes

	dict []bgp.Attrs
	// dictOrigin/dictHasOrig memoize Path.Origin() per dictionary entry, so
	// an origin predicate is one array probe per candidate row instead of an
	// AS-path walk per record per query.
	dictOrigin  []bgp.ASN
	dictHasOrig []bool

	// bytes is the approximate resident size of the decoded block, the unit
	// the cache budget is accounted in.
	bytes int64
}

func (cb *colBlock) rows() int { return len(cb.times) }

// reset truncates every column for reuse, dropping attribute references so a
// pooled scratch block never pins another block's interned tuples.
func (cb *colBlock) reset() {
	cb.times = cb.times[:0]
	cb.types = cb.types[:0]
	cb.peers = cb.peers[:0]
	cb.addrs = cb.addrs[:0]
	cb.prefixes = cb.prefixes[:0]
	cb.attr = cb.attr[:0]
	clear(cb.dict)
	cb.dict = cb.dict[:0]
	cb.dictOrigin = cb.dictOrigin[:0]
	cb.dictHasOrig = cb.dictHasOrig[:0]
	cb.bytes = 0
}

// colRowBytes is the fixed per-row footprint across the columns; the
// dictionary is accounted separately from its wire size.
const colRowBytes = 8 + 1 + 2 + 4 + 8 + 4

// decodeColBlock parses the inflated bytes b of block bi into cb. The
// decoded columns own their memory: nothing aliases b, so the caller's
// inflate buffer is free for reuse the moment this returns. Attribute tuples
// are canonicalized through the segment's interner when it has one, so every
// block of a store referencing the same tuple shares one value.
func decodeColBlock(g *segment, bi int, b []byte, cb *colBlock) error {
	bm := g.index.blocks[bi]
	cb.reset()
	v2 := g.ver >= segVersionV2
	if v2 {
		dictN, n := binary.Uvarint(b)
		if n <= 0 || dictN > uint64(len(b)) {
			return fmt.Errorf("%w: block %d dictionary count", ErrCorrupt, bi)
		}
		b = b[n:]
		for j := uint64(0); j < dictN; j++ {
			alen, n := binary.Uvarint(b)
			if n <= 0 || alen > uint64(len(b)-n) {
				return fmt.Errorf("%w: block %d dictionary entry %d", ErrCorrupt, bi, j)
			}
			b = b[n:]
			if err := cb.appendDict(g, b[:alen]); err != nil {
				return fmt.Errorf("%w: block %d dictionary entry %d: %v", ErrCorrupt, bi, j, err)
			}
			b = b[alen:]
			cb.bytes += int64(alen)
		}
	}

	prev := bm.minTime
	for i := int32(0); i < bm.count; i++ {
		dt, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("%w: block %d record %d time", ErrCorrupt, bi, i)
		}
		b = b[n:]
		prev += int64(dt)
		var rec collector.Record
		var err error
		b, err = decodeRecordCore(b, &rec)
		if err != nil {
			return fmt.Errorf("%w: block %d record %d: %v", ErrCorrupt, bi, i, err)
		}
		ai := int32(-1)
		if v2 {
			if rec.Type == collector.Announce {
				idx, n := binary.Uvarint(b)
				if n <= 0 || idx >= uint64(len(cb.dict)) {
					return fmt.Errorf("%w: block %d record %d: attribute dictionary index", ErrCorrupt, bi, i)
				}
				b = b[n:]
				ai = int32(idx)
			}
		} else {
			// v1 rows carry inline attribute bytes; each one becomes its own
			// dictionary entry so both formats scan through the same kernels.
			alen, n := binary.Uvarint(b)
			if n <= 0 || alen > uint64(len(b)-n) {
				return fmt.Errorf("%w: block %d record %d: attribute length", ErrCorrupt, bi, i)
			}
			b = b[n:]
			if alen > 0 {
				if err := cb.appendDict(g, b[:alen]); err != nil {
					return fmt.Errorf("%w: block %d record %d: %v", ErrCorrupt, bi, i, err)
				}
				b = b[alen:]
				cb.bytes += int64(alen)
				ai = int32(len(cb.dict) - 1)
			}
		}
		cb.times = append(cb.times, prev)
		cb.types = append(cb.types, rec.Type)
		cb.peers = append(cb.peers, rec.PeerAS)
		cb.addrs = append(cb.addrs, rec.PeerAddr)
		cb.prefixes = append(cb.prefixes, rec.Prefix)
		cb.attr = append(cb.attr, ai)
	}
	if len(b) != 0 {
		return fmt.Errorf("%w: block %d trailing bytes", ErrCorrupt, bi)
	}
	cb.bytes += int64(cb.rows()) * colRowBytes
	cb.bytes += int64(len(cb.dict)) * 48 // Attrs headers + origin columns
	return nil
}

// appendDict decodes one attribute tuple from wire bytes w (not retained)
// and appends it, with its memoized origin, to the dictionary columns.
func (cb *colBlock) appendDict(g *segment, w []byte) error {
	var a bgp.Attrs
	var err error
	if g.di != nil {
		a, err = g.di.internWire(w)
	} else {
		a, err = bgp.UnmarshalAttrs(w)
	}
	if err != nil {
		return err
	}
	origin, ok := a.Path.Origin()
	cb.dict = append(cb.dict, a)
	cb.dictOrigin = append(cb.dictOrigin, origin)
	cb.dictHasOrig = append(cb.dictHasOrig, ok)
	return nil
}

// fill materializes row i into *rec, overwriting every field: rec is a slot
// of a reused buffer and may hold a stale row.
func (cb *colBlock) fill(rec *collector.Record, i int) {
	rec.Time = time.Unix(0, cb.times[i]).UTC()
	rec.Type = cb.types[i]
	rec.PeerAS = cb.peers[i]
	rec.PeerAddr = cb.addrs[i]
	rec.Prefix = cb.prefixes[i]
	if ai := cb.attr[i]; ai >= 0 {
		rec.Attrs = cb.dict[ai]
	} else {
		rec.Attrs = bgp.Attrs{}
	}
}

// timeRange returns the half-open row range [lo, hi) whose timestamps fall
// in the query's [From, To) window, by binary search over the sorted time
// column.
func (cb *colBlock) timeRange(q *Query) (int, int) {
	lo, hi := 0, cb.rows()
	if !q.From.IsZero() {
		lo = searchTimes(cb.times, q.From.UnixNano())
	}
	if !q.To.IsZero() {
		hi = searchTimes(cb.times, q.To.UnixNano())
	}
	return lo, hi
}

// searchTimes returns the first index with times[i] >= t.
func searchTimes(times []int64, t int64) int {
	lo, hi := 0, len(times)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if times[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// appendMatching materializes the rows of cb satisfying q in place at the
// end of dst and returns it. The selection scratch *selBuf is reused across
// calls; neither it nor dst alias the block. The predicate semantics are
// exactly Query.matches': the merge layer's record-level re-check is a no-op
// for rows this returns.
func (cb *colBlock) appendMatching(q *Query, selBuf *[]int32, dst []collector.Record) []collector.Record {
	lo, hi := cb.timeRange(q)
	if lo >= hi {
		return dst
	}
	if len(q.Types) == 0 && len(q.PeerAS) == 0 && len(q.OriginAS) == 0 && !q.hasPrefix() {
		// Pure time-range scan: materialize the row range directly.
		n := len(dst)
		dst = slices.Grow(dst, hi-lo)[:n+hi-lo]
		for i := lo; i < hi; i++ {
			cb.fill(&dst[n+i-lo], i)
		}
		return dst
	}

	// Seed the selection from the row range, then narrow it with one
	// compaction pass per set predicate — each pass touches one column.
	sel := (*selBuf)[:0]
	if len(q.Types) > 0 {
		for i := lo; i < hi; i++ {
			if containsType(q.Types, cb.types[i]) {
				sel = append(sel, int32(i))
			}
		}
	} else {
		for i := lo; i < hi; i++ {
			sel = append(sel, int32(i))
		}
	}
	if len(q.PeerAS) > 0 {
		kept := sel[:0]
		for _, i := range sel {
			if containsASN(q.PeerAS, cb.peers[i]) {
				kept = append(kept, i)
			}
		}
		sel = kept
	}
	if len(q.OriginAS) > 0 {
		kept := sel[:0]
		for _, i := range sel {
			ai := cb.attr[i]
			if cb.types[i] == collector.Announce && ai >= 0 && cb.dictHasOrig[ai] &&
				containsASN(q.OriginAS, cb.dictOrigin[ai]) {
				kept = append(kept, i)
			}
		}
		sel = kept
	}
	if q.hasPrefix() {
		kept := sel[:0]
		for _, i := range sel {
			if cb.prefixes[i] == q.Prefix {
				kept = append(kept, i)
			}
		}
		sel = kept
	}
	*selBuf = sel
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	for k, i := range sel {
		cb.fill(&dst[n+k], int(i))
	}
	return dst
}

// blockScanner bundles the per-consumer scratch state of the columnar read
// path: the inflate buffers, an uncached decode target, and the selection
// buffer the predicate kernels compact. Serial streams and parallel scan
// workers each own one for their lifetime.
type blockScanner struct {
	br      *blockReader
	scratch *colBlock
	sel     []int32
}

var blockScannerPool = sync.Pool{New: func() any {
	return &blockScanner{br: new(blockReader), scratch: new(colBlock)}
}}

func getBlockScanner() *blockScanner { return blockScannerPool.Get().(*blockScanner) }

func putBlockScanner(bs *blockScanner) {
	trimBlockReader(bs.br)
	bs.scratch.reset()
	blockScannerPool.Put(bs)
}

// fetch returns the columnar form of block bi of g — through the store's
// shared cache when it has one (hit reports whether the block was served
// without touching disk), or decoded into the scanner's private scratch when
// caching is off. mm is the segment mapping the caller holds a reference on
// (nil to read through f).
func (bs *blockScanner) fetch(g *segment, f io.ReaderAt, mm *segMap, cache *blockCache, bi int) (*colBlock, bool, error) {
	if cache == nil {
		raw, err := g.inflateBlock(bs.br, f, mm, bi)
		if err != nil {
			return nil, false, err
		}
		if err := decodeColBlock(g, bi, raw, bs.scratch); err != nil {
			return nil, false, err
		}
		return bs.scratch, false, nil
	}
	return cache.getOrLoad(blockKey{seg: g.fp, block: int32(bi)}, func() (*colBlock, error) {
		raw, err := g.inflateBlock(bs.br, f, mm, bi)
		if err != nil {
			return nil, err
		}
		cb := new(colBlock)
		if err := decodeColBlock(g, bi, raw, cb); err != nil {
			return nil, err
		}
		return cb, nil
	})
}
