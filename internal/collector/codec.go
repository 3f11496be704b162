package collector

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

// The one record encoding and the one frame layout. A record is
//
//	u64 unix nanoseconds (big endian) | u8 type | uvarint peer AS |
//	uvarint peer address | u8 prefix length | uvarint prefix address |
//	uvarint attribute length | attributes (bgp.MarshalAttrs)
//
// with attributes on announcements only. It is the store's WAL record and —
// packed back to back into frames — the body of an IRTL v2 log, which is
// also what the serving layer's IRTQ record stream is. A frame is
//
//	u32 payload length (big endian) | payload | u32 crc32(payload)
//
// so a torn tail (crash mid-write) or a flipped bit is detected by length or
// checksum. The store's WAL, its rotated files and its sidecar logs are
// sequences of frames, and so is a log after its header.

// Checksum is the one CRC-32 (IEEE) every checked structure is guarded by:
// frames here, and the store's segment blocks and index sections.
func Checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// BeginFrame opens a frame at the end of b, reserving its length slot. The
// caller appends the payload straight onto the returned slice — no
// per-frame scratch buffer — and closes it with EndFrame(b, lenAt).
func BeginFrame(b []byte) (_ []byte, lenAt int) {
	return append(b, 0, 0, 0, 0), len(b)
}

// EndFrame closes the frame opened at lenAt: everything appended since is
// the payload; its length is patched into the reserved slot and its checksum
// appended.
func EndFrame(b []byte, lenAt int) []byte {
	payload := b[lenAt+4:]
	binary.BigEndian.PutUint32(b[lenAt:], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(b, Checksum(payload))
}

// frameAt checks the frame at the front of b, returning its payload and the
// frame's whole length. ok is false when no intact frame starts there: b is
// shorter than the frame's length says (a torn tail), or the length is zero,
// or the checksum does not match.
func frameAt(b []byte) (payload []byte, n int, ok bool) {
	if len(b) < 4 {
		return nil, 0, false
	}
	plen := int(binary.BigEndian.Uint32(b))
	if plen <= 0 || len(b) < 4+plen+4 {
		return nil, 0, false
	}
	payload = b[4 : 4+plen]
	return payload, 4 + plen + 4, Checksum(payload) == binary.BigEndian.Uint32(b[4+plen:])
}

// ScanFrames walks the intact frames at the front of data, calling each
// (when non-nil) with every payload, and returns the offset just past the
// last frame it accepted — always a frame boundary — and how many it
// accepted. It stops at the first torn or corrupt frame, or when each
// returns an error, which it passes back; the rejected frame is not counted
// and lies at or after the returned offset.
func ScanFrames(data []byte, each func(payload []byte) error) (off int64, n int, err error) {
	for {
		payload, step, ok := frameAt(data[off:])
		if !ok {
			return off, n, nil
		}
		if each != nil {
			if err := each(payload); err != nil {
				return off, n, err
			}
		}
		n++
		off += int64(step)
	}
}

// AppendRecord appends the record encoding of rec to b.
func AppendRecord(b []byte, rec Record) ([]byte, error) {
	if rec.Type != Announce {
		return AppendRecordAttrs(b, rec, nil), nil
	}
	attrs, err := bgp.MarshalAttrs(rec.Attrs)
	if err != nil {
		return nil, err
	}
	return AppendRecordAttrs(b, rec, attrs), nil
}

// AppendRecordAttrs is AppendRecord for a caller that already holds an
// announcement's attributes in wire form (the store keeps them per tuple, the
// log writer encodes them into a reused buffer); attrs must be nil for every
// other record type.
func AppendRecordAttrs(b []byte, rec Record, attrs []byte) []byte {
	return AppendRecordFields(b, rec.Time.UnixNano(), rec.Type, rec.PeerAS, rec.PeerAddr, rec.Prefix, attrs)
}

// AppendRecordFields is the record encoding itself, taken field by field:
// the time as Unix nanoseconds and an announcement's attributes in wire form
// (nil for every other record type). A caller holding a record's fields
// apart (the store's memtable rows) encodes them without building a Record.
func AppendRecordFields(b []byte, ns int64, typ RecType, peerAS bgp.ASN, peerAddr netaddr.Addr, prefix netaddr.Prefix, attrs []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(ns))
	b = append(b, byte(typ))
	b = binary.AppendUvarint(b, uint64(peerAS))
	b = binary.AppendUvarint(b, uint64(peerAddr))
	b = append(b, byte(prefix.Bits()))
	b = binary.AppendUvarint(b, uint64(prefix.Addr()))
	b = binary.AppendUvarint(b, uint64(len(attrs)))
	return append(b, attrs...)
}

// DecodeRecord decodes one record from the front of b, returning the
// remaining bytes. Damaged input fails with an error wrapping ErrCorrupt.
func DecodeRecord(b []byte) (Record, []byte, error) {
	var rec Record
	if len(b) < 8 {
		return rec, nil, fmt.Errorf("%w: record time", ErrCorrupt)
	}
	rec.Time = time.Unix(0, int64(binary.BigEndian.Uint64(b))).UTC()
	b, err := DecodeRecordFields(b[8:], &rec)
	if err != nil {
		return rec, nil, err
	}
	alen, n := binary.Uvarint(b)
	if n <= 0 || alen > uint64(len(b)-n) {
		return rec, nil, fmt.Errorf("%w: attribute length", ErrCorrupt)
	}
	b = b[n:]
	if alen == 0 {
		return rec, b, nil
	}
	if rec.Type != Announce {
		return rec, nil, fmt.Errorf("%w: attributes on record type %d", ErrCorrupt, rec.Type)
	}
	if rec.Attrs, err = bgp.UnmarshalAttrs(b[:alen]); err != nil {
		return rec, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return rec, b[alen:], nil
}

// DecodeRecordFields decodes the type, peer and prefix that follow the
// timestamp — the tail without its attributes, as rows of the store's v2
// segment blocks held them — and returns the remaining bytes.
func DecodeRecordFields(b []byte, rec *Record) ([]byte, error) {
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: record type", ErrCorrupt)
	}
	rec.Type = RecType(b[0])
	b = b[1:]
	if rec.Type < Announce || rec.Type > SessionDown {
		return nil, fmt.Errorf("%w: record type %d", ErrCorrupt, rec.Type)
	}
	peerAS, n := binary.Uvarint(b)
	if n <= 0 || peerAS > 0xffff {
		return nil, fmt.Errorf("%w: peer AS", ErrCorrupt)
	}
	rec.PeerAS = bgp.ASN(peerAS)
	b = b[n:]
	peerAddr, n := binary.Uvarint(b)
	if n <= 0 || peerAddr > 0xffffffff {
		return nil, fmt.Errorf("%w: peer address", ErrCorrupt)
	}
	rec.PeerAddr = netaddr.Addr(peerAddr)
	b = b[n:]
	if len(b) < 1 {
		return nil, fmt.Errorf("%w: prefix length", ErrCorrupt)
	}
	bits := int(b[0])
	addr, n := binary.Uvarint(b[1:])
	if n <= 0 || addr > 0xffffffff {
		return nil, fmt.Errorf("%w: prefix address", ErrCorrupt)
	}
	p, err := netaddr.PrefixFrom(netaddr.Addr(addr), bits)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rec.Prefix = p
	return b[1+n:], nil
}
