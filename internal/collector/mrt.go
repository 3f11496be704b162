package collector

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

// MRT (RFC 6396) export/import: the interchange format of the real Routing
// Arbiter archives and of every BGP measurement tool since. Records are
// written as BGP4MP messages (AS2 form, IPv4 AFI) so that standard dump
// tools can read logs produced here, and real archive files in the same
// subset can be analyzed by this library.
//
// Mapping: Announce and Withdraw records become BGP4MP_MESSAGE entries
// containing a synthesized BGP UPDATE; SessionUp/SessionDown become
// BGP4MP_STATE_CHANGE entries (OpenConfirm→Established and
// Established→Idle respectively).

// MRT record types and subtypes used here.
const (
	mrtTypeBGP4MP          = 16
	mrtBGP4MPStateChange   = 0
	mrtBGP4MPMessage       = 1
	mrtAFIIPv4             = 1
	mrtStateIdle           = 1
	mrtStateOpenConfirm    = 5
	mrtStateEstablished    = 6
	mrtBGP4MPHeaderLen     = 16 // peerAS(2) localAS(2) ifidx(2) afi(2) peerIP(4) localIP(4)
	mrtCommonHeaderLen     = 12
	mrtMaxRecordLen        = 1 << 20
	mrtCollectorLocalAS    = 6000
	mrtCollectorLocalIPHex = 0xc620baFA // 198.32.186.250
)

// MRTWriter writes collector records as MRT BGP4MP entries.
type MRTWriter struct {
	w      *bufio.Writer
	layers layers // opened by CreateMRT
	count  int
}

// NewMRTWriter wraps w.
func NewMRTWriter(w io.Writer) *MRTWriter {
	return &MRTWriter{w: bufio.NewWriterSize(w, 1<<16)}
}

// CreateMRT opens path for writing; ".gz" names are compressed.
func CreateMRT(path string) (*MRTWriter, error) {
	out, l, err := createLayers(path)
	if err != nil {
		return nil, err
	}
	w := NewMRTWriter(out)
	w.layers = l
	return w, nil
}

// Count returns the number of MRT entries written.
func (w *MRTWriter) Count() int { return w.count }

// Write encodes one record.
func (w *MRTWriter) Write(rec Record) error {
	var subtype uint16
	var body []byte
	hdr := make([]byte, 0, mrtBGP4MPHeaderLen)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(rec.PeerAS))
	hdr = binary.BigEndian.AppendUint16(hdr, mrtCollectorLocalAS)
	hdr = binary.BigEndian.AppendUint16(hdr, 0) // interface index
	hdr = binary.BigEndian.AppendUint16(hdr, mrtAFIIPv4)
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(rec.PeerAddr))
	hdr = binary.BigEndian.AppendUint32(hdr, mrtCollectorLocalIPHex)

	switch rec.Type {
	case Announce:
		subtype = mrtBGP4MPMessage
		msg, err := bgp.Marshal(bgp.Update{Attrs: rec.Attrs, Announced: []netaddr.Prefix{rec.Prefix}})
		if err != nil {
			return err
		}
		body = append(hdr, msg...)
	case Withdraw:
		subtype = mrtBGP4MPMessage
		msg, err := bgp.Marshal(bgp.Update{Withdrawn: []netaddr.Prefix{rec.Prefix}})
		if err != nil {
			return err
		}
		body = append(hdr, msg...)
	case SessionUp:
		subtype = mrtBGP4MPStateChange
		body = append(hdr, 0, mrtStateOpenConfirm, 0, mrtStateEstablished)
	case SessionDown:
		subtype = mrtBGP4MPStateChange
		body = append(hdr, 0, mrtStateEstablished, 0, mrtStateIdle)
	default:
		return fmt.Errorf("collector: cannot encode record type %v as MRT", rec.Type)
	}

	var common [mrtCommonHeaderLen]byte
	binary.BigEndian.PutUint32(common[0:4], uint32(rec.Time.Unix()))
	binary.BigEndian.PutUint16(common[4:6], mrtTypeBGP4MP)
	binary.BigEndian.PutUint16(common[6:8], subtype)
	binary.BigEndian.PutUint32(common[8:12], uint32(len(body)))
	if _, err := w.w.Write(common[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(body); err != nil {
		return err
	}
	w.count++
	return nil
}

// Close flushes and closes any layers opened by CreateMRT.
func (w *MRTWriter) Close() error {
	err := w.w.Flush()
	if cerr := w.layers.Close(); err == nil {
		err = cerr
	}
	return err
}

// MRTReader decodes the BGP4MP subset written by MRTWriter (and by real
// collectors using AS2 IPv4 BGP4MP entries). Unknown MRT types are skipped.
type MRTReader struct {
	layers // opened by OpenMRT; Close closes them
	r      *bufio.Reader
	// queue holds records decoded from the current entry (an UPDATE may
	// carry several prefixes, each yielding one Record).
	queue []Record
	// Skipped counts entries of unsupported type.
	Skipped int
}

// NewMRTReader wraps r.
func NewMRTReader(r io.Reader) *MRTReader {
	return &MRTReader{r: bufio.NewReaderSize(r, 1<<16)}
}

// OpenMRT opens an MRT file; ".gz" names are decompressed.
func OpenMRT(path string) (*MRTReader, error) {
	in, l, err := openLayers(path)
	if err != nil {
		return nil, err
	}
	r := NewMRTReader(in)
	r.layers = l
	return r, nil
}

// Next returns the next record, io.EOF at end of stream.
func (r *MRTReader) Next() (Record, error) {
	for {
		if len(r.queue) > 0 {
			rec := r.queue[0]
			r.queue = r.queue[1:]
			return rec, nil
		}
		if err := r.fill(); err != nil {
			return Record{}, err
		}
	}
}

func (r *MRTReader) fill() error {
	var common [mrtCommonHeaderLen]byte
	if _, err := io.ReadFull(r.r, common[:1]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if _, err := io.ReadFull(r.r, common[1:]); err != nil {
		return fmt.Errorf("%w: mrt header: %v", ErrCorrupt, err)
	}
	ts := time.Unix(int64(binary.BigEndian.Uint32(common[0:4])), 0).UTC()
	typ := binary.BigEndian.Uint16(common[4:6])
	subtype := binary.BigEndian.Uint16(common[6:8])
	length := binary.BigEndian.Uint32(common[8:12])
	if length > mrtMaxRecordLen {
		return fmt.Errorf("%w: mrt record of %d bytes", ErrCorrupt, length)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r.r, body); err != nil {
		return fmt.Errorf("%w: mrt body: %v", ErrCorrupt, err)
	}
	if typ != mrtTypeBGP4MP || (subtype != mrtBGP4MPMessage && subtype != mrtBGP4MPStateChange) {
		r.Skipped++
		return nil
	}
	if len(body) < mrtBGP4MPHeaderLen {
		return fmt.Errorf("%w: bgp4mp header", ErrCorrupt)
	}
	peerAS := bgp.ASN(binary.BigEndian.Uint16(body[0:2]))
	afi := binary.BigEndian.Uint16(body[6:8])
	if afi != mrtAFIIPv4 {
		r.Skipped++
		return nil
	}
	peerIP := netaddr.Addr(binary.BigEndian.Uint32(body[8:12]))
	payload := body[mrtBGP4MPHeaderLen:]

	if subtype == mrtBGP4MPStateChange {
		if len(payload) != 4 {
			return fmt.Errorf("%w: state change body", ErrCorrupt)
		}
		newState := binary.BigEndian.Uint16(payload[2:4])
		typ := SessionDown
		if newState == mrtStateEstablished {
			typ = SessionUp
		}
		r.queue = append(r.queue, Record{Time: ts, Type: typ, PeerAS: peerAS, PeerAddr: peerIP})
		return nil
	}

	msg, err := bgp.Unmarshal(payload)
	if err != nil {
		return fmt.Errorf("%w: embedded bgp message: %v", ErrCorrupt, err)
	}
	u, ok := msg.(bgp.Update)
	if !ok {
		// OPENs/KEEPALIVEs inside BGP4MP_MESSAGE are legal in real archives;
		// they carry no route information.
		r.Skipped++
		return nil
	}
	for _, p := range u.Withdrawn {
		r.queue = append(r.queue, Record{Time: ts, Type: Withdraw, PeerAS: peerAS, PeerAddr: peerIP, Prefix: p})
	}
	for _, p := range u.Announced {
		r.queue = append(r.queue, Record{Time: ts, Type: Announce, PeerAS: peerAS, PeerAddr: peerIP, Prefix: p, Attrs: u.Attrs})
	}
	return nil
}
