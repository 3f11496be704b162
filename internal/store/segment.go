package store

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"path/filepath"
	"slices"
	"sync/atomic"

	"instability/internal/bgp"
	"instability/internal/faults"
	"instability/internal/netaddr"
)

// Segment file naming and framing.
const (
	segPrefix = "seg-"
	segSuffix = ".irts"
	segMagic  = "IRTS"
	// segVersionV2 blocks are deflated rows behind an attribute dictionary
	// written once per block. segVersionV3 blocks are uncompressed,
	// column-coded and CRC-guarded (layout at colBlock), and so is the v3
	// index section. Every segment is written v3; v2 segments remain fully
	// readable and are upgraded when compaction rewrites them. Reads support
	// the current format and the one before it: a v1 segment (deflated rows
	// with inline attribute bytes) is refused with its upgrade path.
	segVersionV2 = 2
	segVersionV3 = 3
	segHdrLen    = 5 // magic + version
	// segTailLen is the fixed trailer: u32 footer length + magic + version.
	segTailLen = 4 + 4 + 1
)

// segment is an open handle on one sealed immutable segment: its footer and
// index stay in memory, record blocks stay on disk (or in the shared page
// cache, when mapped) until a query needs them.
type segment struct {
	path string
	seq  uint64 // segment file number
	size int64
	ver  byte // block format version (segVersionV2 or segVersionV3)
	// fp is the segment's content fingerprint (seq, window, sequence range,
	// count): the cache key half that identifies this segment's blocks.
	fp uint64
	// tab is the owning store's attribute table, which every dictionary entry
	// a scan decodes resolves through.
	tab *lockedTable
	// mm is the segment's memory mapping, nil when unmapped (mmap disabled,
	// unsupported, failed, or the store reads through a fault injector).
	// Accessed only under the store lock; readers take a reference at query
	// setup and carry their own *segMap pointer.
	mm *segMap

	windowStart int64 // time partition this segment belongs to (unixnano)
	minTime     int64 // first record timestamp
	maxTime     int64 // last record timestamp
	firstSeq    uint64
	lastSeq     uint64
	count       int64
	replaces    []uint64 // segment seqs this compacted segment supersedes

	index *segIndex
}

func segName(seq uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }

// writeSegment seals rows (already sorted by time) into a new segment file
// in dir. The write is crash-safe: the file is assembled under a .tmp name
// and renamed into place.
//
// Blocks are encoded in order, each appended straight onto the one segment
// buffer, and folded into the index as they land: the buffer, the index and
// the footer are the file.
func writeSegment(fsys faults.FS, dir string, seq uint64, windowStart int64, firstSeq uint64, rows []memRec, replaces []uint64, opts Options) (*segment, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("store: sealing empty segment")
	}
	const version = segVersionV3
	sc := getSealScratch()
	buf := append(sc.seg[:0], segMagic...)
	buf = append(buf, version)
	defer func() {
		sc.seg = buf[:0]
		putSealScratch(sc)
	}()
	ix := &segIndex{
		peers:   make(postings),
		origins: make(postings),
		filter:  newBloom(len(rows)),
	}
	for start := 0; start < len(rows); start += opts.BlockRecords {
		end := min(start+opts.BlockRecords, len(rows))
		bi, off := int32(len(ix.blocks)), len(buf)
		var err error
		if buf, err = encodeSegmentBlock(sc, buf, rows[start:end]); err != nil {
			return nil, err
		}
		ix.blocks = append(ix.blocks, blockMeta{
			offset:  int64(off),
			clen:    int32(len(buf) - off),
			ulen:    int32(len(buf) - off),
			count:   int32(end - start),
			minTime: rows[start].ns,
			maxTime: rows[end-1].ns,
		})
		for _, p := range sc.peers {
			ix.peers.add(bgp.ASN(p>>48), bi)
		}
		for _, a := range sc.attrs {
			if o := a.Origin(); o >= 0 {
				ix.origins.add(bgp.ASN(o), bi)
			}
		}
		for _, p := range sc.prefixes {
			ix.filter.add(prefixKey(netaddr.PrefixFromKey(p >> 16)))
		}
	}
	off := int64(len(buf))

	// Footer body, then the fixed trailer.
	footer := make([]byte, 0, 64)
	footer = binary.BigEndian.AppendUint64(footer, uint64(off))
	footer = binary.BigEndian.AppendUint64(footer, uint64(windowStart))
	footer = binary.BigEndian.AppendUint64(footer, uint64(rows[0].ns))
	footer = binary.BigEndian.AppendUint64(footer, uint64(rows[len(rows)-1].ns))
	footer = binary.BigEndian.AppendUint64(footer, firstSeq)
	footer = binary.BigEndian.AppendUint64(footer, firstSeq+uint64(len(rows))-1)
	footer = binary.BigEndian.AppendUint64(footer, uint64(len(rows)))
	footer = binary.BigEndian.AppendUint16(footer, uint16(len(replaces)))
	for _, r := range replaces {
		footer = binary.BigEndian.AppendUint64(footer, r)
	}

	buf = slices.Grow(buf, ix.encodedLen()+4+len(footer)+segTailLen)
	buf = appendChecksum(ix.encode(buf), int(off))
	buf = append(buf, footer...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(footer)))
	buf = append(buf, segMagic...)
	buf = append(buf, version)

	path := filepath.Join(dir, segName(seq))
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return nil, err
	}
	if opts.Sync {
		if err := f.Sync(); err != nil {
			f.Close()
			fsys.Remove(tmp)
			return nil, err
		}
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return nil, err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return nil, err
	}
	g := &segment{
		path:        path,
		seq:         seq,
		size:        int64(len(buf)),
		ver:         version,
		windowStart: windowStart,
		minTime:     rows[0].ns,
		maxTime:     rows[len(rows)-1].ns,
		firstSeq:    firstSeq,
		lastSeq:     firstSeq + uint64(len(rows)) - 1,
		count:       int64(len(rows)),
		replaces:    replaces,
		index:       ix,
	}
	g.fp = g.fingerprint()
	return g, nil
}

// openSegment reads a segment's footer and index into memory.
func openSegment(fsys faults.FS, path string) (*segment, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < segHdrLen+segTailLen {
		return nil, fmt.Errorf("%w: segment too short", ErrCorrupt)
	}
	var hdr [segHdrLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != segMagic || hdr[4] == 0 {
		return nil, fmt.Errorf("%w: bad segment header", ErrCorrupt)
	}
	if hdr[4] < segVersionV2 {
		return nil, fmt.Errorf("%w: segment format v%d is older than this build reads (v%d and v%d): rewrite it with an older build, whose `bgpstore compact` merges it into v%d once its window holds a second segment, or export the store with `bgpstore query -out` and ingest the log into a new one", ErrCorrupt, hdr[4], segVersionV2, segVersionV3, segVersionV3)
	}
	if hdr[4] > segVersionV3 {
		return nil, fmt.Errorf("%w: segment format v%d is newer than this build reads (v%d)", ErrCorrupt, hdr[4], segVersionV3)
	}
	var tail [segTailLen]byte
	if _, err := f.ReadAt(tail[:], size-segTailLen); err != nil {
		return nil, err
	}
	if string(tail[4:8]) != segMagic || tail[8] != hdr[4] {
		return nil, fmt.Errorf("%w: bad segment trailer", ErrCorrupt)
	}
	flen := int64(binary.BigEndian.Uint32(tail[:4]))
	if flen < 58 || flen > size-segHdrLen-segTailLen {
		return nil, fmt.Errorf("%w: bad footer length", ErrCorrupt)
	}
	footer := make([]byte, flen)
	if _, err := f.ReadAt(footer, size-segTailLen-flen); err != nil {
		return nil, err
	}
	g := &segment{path: path, size: size, ver: hdr[4]}
	indexOff := int64(binary.BigEndian.Uint64(footer))
	g.windowStart = int64(binary.BigEndian.Uint64(footer[8:]))
	g.minTime = int64(binary.BigEndian.Uint64(footer[16:]))
	g.maxTime = int64(binary.BigEndian.Uint64(footer[24:]))
	g.firstSeq = binary.BigEndian.Uint64(footer[32:])
	g.lastSeq = binary.BigEndian.Uint64(footer[40:])
	g.count = int64(binary.BigEndian.Uint64(footer[48:]))
	nRepl := int(binary.BigEndian.Uint16(footer[56:]))
	if int64(58+8*nRepl) != flen {
		return nil, fmt.Errorf("%w: footer replaces list", ErrCorrupt)
	}
	for i := 0; i < nRepl; i++ {
		g.replaces = append(g.replaces, binary.BigEndian.Uint64(footer[58+8*i:]))
	}
	if indexOff < segHdrLen || indexOff > size-segTailLen-flen {
		return nil, fmt.Errorf("%w: index offset", ErrCorrupt)
	}
	ixBytes := make([]byte, size-segTailLen-flen-indexOff)
	if _, err := f.ReadAt(ixBytes, indexOff); err != nil {
		return nil, err
	}
	if g.ver >= segVersionV3 {
		var ok bool
		if ixBytes, ok = splitChecksum(ixBytes); !ok {
			return nil, fmt.Errorf("%w: index checksum", ErrCorrupt)
		}
	}
	if g.index, err = decodeIndex(ixBytes); err != nil {
		return nil, err
	}

	// The file number is authoritative from the name, so compaction's
	// replaces list can be matched against directory contents.
	var seq uint64
	if _, err := fmt.Sscanf(filepath.Base(path), segPrefix+"%d"+segSuffix, &seq); err != nil {
		return nil, fmt.Errorf("%w: segment name %q", ErrCorrupt, filepath.Base(path))
	}
	g.seq = seq
	g.fp = g.fingerprint()
	return g, nil
}

// writeIdentity feeds h the segment's identity — file number, window,
// sequence range, record count — as little-endian words.
func (g *segment) writeIdentity(h hash.Hash64) {
	b := make([]byte, 0, 40)
	for _, v := range [...]uint64{g.seq, uint64(g.windowStart), g.firstSeq, g.lastSeq, uint64(g.count)} {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	h.Write(b)
}

// fingerprint hashes the segment's identity as the store-level fingerprint
// folds it, so one segment's cache keys are stable for its immutable
// lifetime and distinct from every other segment's.
func (g *segment) fingerprint() uint64 {
	h := fnv.New64a()
	g.writeIdentity(h)
	return h.Sum64()
}

// segMap is a reference-counted read-only memory mapping of one sealed
// segment file. The store holds one reference for as long as the segment is
// live; every stream scanning through the mapping holds another for its own
// lifetime. Compaction can therefore retire a segment (and the store can
// close) while scans are mid-flight: the pages are unmapped only when the
// last reference drops, never under a reader.
type segMap struct {
	data []byte
	refs atomic.Int64
}

func newSegMap(data []byte) *segMap {
	m := &segMap{data: data}
	m.refs.Store(1)
	return m
}

// acquire takes a reference. Callers hold the store lock and the segment is
// live there, so the store's own reference pins the count above zero.
func (m *segMap) acquire() {
	if m != nil {
		m.refs.Add(1)
	}
}

// release drops one reference, unmapping on the last. Nil-safe.
func (m *segMap) release() {
	if m == nil {
		return
	}
	if m.refs.Add(-1) == 0 {
		munmap(m.data)
		m.data = nil
	}
}

// readBlock returns the stored bytes of block bi: a zero-copy slice of the
// segment mapping when the caller holds one (mm non-nil), otherwise read
// through f into *buf, valid until its next use. f must support concurrent
// ReadAt (os.File does).
func (g *segment) readBlock(buf *[]byte, f io.ReaderAt, mm *segMap, bi int) ([]byte, error) {
	bm := g.index.blocks[bi]
	limit := g.size
	if mm != nil {
		limit = int64(len(mm.data))
	}
	if bm.offset < 0 || bm.clen < 0 || bm.offset > limit-int64(bm.clen) {
		return nil, fmt.Errorf("%w: block %d bounds", ErrCorrupt, bi)
	}
	end := bm.offset + int64(bm.clen)
	if mm != nil {
		return mm.data[bm.offset:end], nil
	}
	*buf = slices.Grow((*buf)[:0], int(bm.clen))[:bm.clen]
	if _, err := f.ReadAt(*buf, bm.offset); err != nil {
		return nil, err
	}
	return *buf, nil
}
