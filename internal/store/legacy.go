package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"instability/internal/bgp"
	"instability/internal/collector"
)

// The read path of v2, the segment format before the one this build writes.
// It stores a block as deflated rows — uvarint time delta, then the WAL's
// record core without its attributes — behind a per-block attribute
// dictionary the announcements index. Nothing here is fast: a legacy block is
// decoded to records and re-encoded as v3, so the scan proper has one block
// form to know. Compaction upgrades what it rewrites; testdata/seg-v2.irts
// pins what must stay readable.

// transcodeLegacyBlock turns the stored bytes of v2 block bi into the v3
// encoding of the same rows.
func transcodeLegacyBlock(g *segment, bi int, stored []byte) ([]byte, error) {
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(stored)))
	if err != nil {
		return nil, fmt.Errorf("%w: block %d: %v", ErrCorrupt, bi, err)
	}
	rows, err := decodeLegacyRows(g.tab, g.index.blocks[bi], body)
	if err != nil {
		return nil, fmt.Errorf("%w: block %d: %v", ErrCorrupt, bi, err)
	}
	sc := getSealScratch()
	defer putSealScratch(sc)
	data, err := encodeSegmentBlock(sc, nil, rows)
	if err != nil {
		return nil, fmt.Errorf("%w: block %d: %v", ErrCorrupt, bi, err)
	}
	return data, nil
}

// decodeLegacyRows decodes the inflated body of one v2 block into the
// bm.count rows it holds, interning their tuples through tab.
func decodeLegacyRows(tab *lockedTable, bm blockMeta, b []byte) ([]memRec, error) {
	dictN, n := binary.Uvarint(b)
	if n <= 0 || dictN > uint64(len(b)) {
		return nil, fmt.Errorf("dictionary count")
	}
	b = b[n:]
	var dict []bgp.Attrs
	for j := uint64(0); j < dictN; j++ {
		alen, n := binary.Uvarint(b)
		if n <= 0 || alen > uint64(len(b)-n) {
			return nil, fmt.Errorf("dictionary entry %d", j)
		}
		a, err := bgp.UnmarshalAttrs(b[n : n+int(alen)])
		if err != nil {
			return nil, fmt.Errorf("dictionary entry %d: %v", j, err)
		}
		dict = append(dict, a)
		b = b[n+int(alen):]
	}
	if bm.count < 0 || int(bm.count) > len(b) {
		return nil, fmt.Errorf("record count %d", bm.count)
	}
	rows := make([]memRec, bm.count)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	t := bm.minTime
	for i := range rows {
		rec := &collector.Record{}
		dt, n := binary.Uvarint(b)
		if n <= 0 || i == 0 && dt != 0 { // the first row sits at the index's minTime
			return nil, fmt.Errorf("record %d time", i)
		}
		t += int64(dt)
		rec.Time = time.Unix(0, t).UTC()
		var err error
		if b, err = collector.DecodeRecordFields(b[n:], rec); err == nil && rec.Type == collector.Announce {
			idx, n := binary.Uvarint(b)
			if n <= 0 || idx >= uint64(len(dict)) {
				return nil, fmt.Errorf("record %d: attribute dictionary index", i)
			}
			rec.Attrs, b = dict[idx], b[n:]
		}
		if err == nil {
			rows[i], err = tab.rowLocked(rec)
		}
		if err != nil {
			return nil, fmt.Errorf("record %d: %v", i, err)
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("trailing bytes")
	}
	return rows, nil
}
