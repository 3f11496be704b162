// Package collector implements the measurement apparatus of the study: the
// update records logged by route-server instrumentation at each exchange
// point, the one binary record encoding every layer shares (codec.go), and
// the native IRTL log format with its streaming reader and writer
// (gzip-framed on disk, as the Routing Arbiter archive was).
//
// An IRTL v2 log is a header — "IRTL", version byte 2, name length, exchange
// name — then CRC-checked frames of back-to-back records in that encoding,
// the same frames and records the store's WAL holds. Version 1 logs (fixed
// big-endian records, no checksum) are still read, never written.
//
// A Record is deliberately exactly the information the paper's analyses
// consume: timestamp, exchange, peer identity, update type, prefix, and path
// attributes.
package collector

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"instability/internal/bgp"
	"instability/internal/netaddr"
)

// RecType is the kind of observation in a Record.
type RecType uint8

// Record types.
const (
	// Announce is a prefix announcement received from a peer.
	Announce RecType = 1
	// Withdraw is a prefix withdrawal received from a peer.
	Withdraw RecType = 2
	// SessionUp marks a peering session reaching Established.
	SessionUp RecType = 3
	// SessionDown marks a peering session loss.
	SessionDown RecType = 4
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case Announce:
		return "A"
	case Withdraw:
		return "W"
	case SessionUp:
		return "UP"
	case SessionDown:
		return "DOWN"
	}
	return fmt.Sprintf("RecType(%d)", uint8(t))
}

// Record is one logged observation at a collection point.
type Record struct {
	Time     time.Time
	Type     RecType
	PeerAS   bgp.ASN
	PeerAddr netaddr.Addr
	Prefix   netaddr.Prefix
	Attrs    bgp.Attrs // meaningful for Announce records only
}

// String renders a human-readable one-line form, similar to MRT dump tools.
func (r Record) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|%s|%s|%s", r.Time.UTC().Format("2006-01-02 15:04:05"), r.Type, r.PeerAS, r.Prefix)
	if r.Type == Announce {
		fmt.Fprintf(&sb, "|%s|%s", r.Attrs.NextHop, r.Attrs.Path)
	}
	return sb.String()
}

// Log file framing.
const (
	logMagic     = "IRTL" // Internet RouTing Log
	logVersion   = 2
	logVersionV1 = 1 // read-only

	// The writer closes a frame once its payload reaches logFrameTarget, and
	// refuses a record that could push one past maxLogFrame, the most a
	// reader accepts: a damaged length cannot make it allocate without limit.
	logFrameTarget = 64 << 10
	maxLogFrame    = 4 * logFrameTarget
)

// Codec errors.
var (
	ErrBadMagic   = errors.New("collector: not an IRTL log file")
	ErrBadVersion = errors.New("collector: unsupported log version")
	ErrCorrupt    = errors.New("collector: corrupt record")
)

// Writer writes records to an IRTL v2 log stream.
type Writer struct {
	w      io.Writer
	layers layers // opened by Create
	buf    []byte // the header until the first frame is out, then the open frame
	lenAt  int    // where the open frame starts in buf
	attrs  []byte // an announcement's attributes in wire form, reused
	count  int
}

// NewWriter starts a log stream on w with the given exchange-point name in
// the header.
func NewWriter(w io.Writer, exchange string) (*Writer, error) {
	if len(exchange) > 255 {
		return nil, fmt.Errorf("collector: exchange name too long")
	}
	hdr := append([]byte(logMagic), logVersion, byte(len(exchange)))
	buf, lenAt := BeginFrame(append(hdr, exchange...))
	return &Writer{w: w, buf: buf, lenAt: lenAt}, nil
}

// Create opens path for writing as a log file; names ending in ".gz" are
// gzip-compressed.
func Create(path, exchange string) (*Writer, error) {
	out, l, err := createLayers(path)
	if err != nil {
		return nil, err
	}
	w, err := NewWriter(out, exchange)
	if err != nil {
		l.Close()
		return nil, err
	}
	w.layers = l
	return w, nil
}

// Write appends one record, writing out the frame it completes.
func (w *Writer) Write(r Record) error {
	var attrs []byte
	if r.Type == Announce {
		var err error
		if w.attrs, err = bgp.AppendAttrs(w.attrs[:0], &r.Attrs); err != nil {
			return err
		}
		attrs = w.attrs
	}
	b := AppendRecordAttrs(w.buf, r, attrs)
	if n := len(b) - len(w.buf); n > maxLogFrame-logFrameTarget {
		return fmt.Errorf("collector: record of %d bytes too large for a log", n)
	}
	w.buf = b
	w.count++
	if len(b)-w.lenAt-4 < logFrameTarget {
		return nil
	}
	_, err := w.w.Write(EndFrame(b, w.lenAt))
	w.buf, w.lenAt = BeginFrame(b[:0])
	return err
}

// Count returns the number of records written.
func (w *Writer) Count() int { return w.count }

// Close writes the last frame (and the header, if nothing else has) and
// closes any file or gzip layer opened by Create.
func (w *Writer) Close() error {
	b := w.buf[:w.lenAt]
	if len(w.buf) > w.lenAt+4 {
		b = EndFrame(w.buf, w.lenAt)
	}
	_, err := w.w.Write(b)
	if cerr := w.layers.Close(); err == nil {
		err = cerr
	}
	return err
}

// Reader streams records from a log.
type Reader struct {
	layers   // opened by Open; Close closes them
	r        *bufio.Reader
	exchange string
	v1       bool

	frame []byte // the v2 frame being decoded, read whole; reused
	rest  []byte // its undecoded records
	err   error  // sticky: a damaged v2 stream yields nothing after it
}

// NewReader opens a log stream and parses its header. The header's exchange
// name is not checksummed, in v2 as in v1.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [6]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(hdr[:4]) != logMagic {
		return nil, ErrBadMagic
	}
	if hdr[4] != logVersion && hdr[4] != logVersionV1 {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[4])
	}
	name := make([]byte, hdr[5])
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("%w: header name: %v", ErrCorrupt, err)
	}
	return &Reader{r: br, exchange: string(name), v1: hdr[4] == logVersionV1}, nil
}

// Open opens path as a log file; ".gz" names are decompressed.
func Open(path string) (*Reader, error) {
	in, l, err := openLayers(path)
	if err != nil {
		return nil, err
	}
	r, err := NewReader(in)
	if err != nil {
		l.Close()
		return nil, err
	}
	r.layers = l
	return r, nil
}

// Exchange returns the exchange-point name from the log header.
func (r *Reader) Exchange() string { return r.exchange }

// Next reads one record, returning io.EOF at a clean end of stream. In a v2
// log every frame is checked whole before any of its records is returned, so
// damage anywhere ends the stream with ErrCorrupt after the records of the
// intact frames before it.
func (r *Reader) Next() (Record, error) {
	if r.v1 {
		return r.nextV1()
	}
	for len(r.rest) == 0 && r.err == nil {
		r.err = r.readFrame()
	}
	if r.err != nil {
		return Record{}, r.err
	}
	rec, rest, err := DecodeRecord(r.rest)
	r.rest, r.err = rest, err
	return rec, err
}

// readFrame reads the next frame whole and checks it as the store checks its
// WAL's. The stream ending between frames is io.EOF; anything short of an
// intact frame is ErrCorrupt.
func (r *Reader) readFrame() error {
	f := slices.Grow(r.frame[:0], 8)[:4]
	if _, err := io.ReadFull(r.r, f); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("%w: frame length: %v", ErrCorrupt, err)
	}
	plen := int(binary.BigEndian.Uint32(f))
	if plen > maxLogFrame {
		return fmt.Errorf("%w: frame of %d bytes", ErrCorrupt, plen)
	}
	f = slices.Grow(f, plen+4)[:4+plen+4]
	r.frame = f
	if _, err := io.ReadFull(r.r, f[4:]); err != nil {
		return fmt.Errorf("%w: torn frame: %v", ErrCorrupt, err)
	}
	payload, _, ok := frameAt(f)
	if !ok {
		return fmt.Errorf("%w: frame checksum", ErrCorrupt)
	}
	r.rest = payload
	return nil
}

// nextV1 reads one record of a version 1 log: type, big-endian time, peer
// and prefix, then a u16 attribute length and the attributes.
func (r *Reader) nextV1() (Record, error) {
	var rec Record
	var fixed [22]byte
	if _, err := io.ReadFull(r.r, fixed[:]); err != nil {
		if err == io.EOF {
			return rec, io.EOF
		}
		return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rec.Type = RecType(fixed[0])
	if rec.Type < Announce || rec.Type > SessionDown {
		return rec, fmt.Errorf("%w: type %d", ErrCorrupt, fixed[0])
	}
	rec.Time = time.Unix(0, int64(binary.BigEndian.Uint64(fixed[1:9]))).UTC()
	rec.PeerAS = bgp.ASN(binary.BigEndian.Uint16(fixed[9:11]))
	rec.PeerAddr = netaddr.Addr(binary.BigEndian.Uint32(fixed[11:15]))
	p, err := netaddr.PrefixFrom(netaddr.Addr(binary.BigEndian.Uint32(fixed[16:20])), int(fixed[15]))
	if err != nil {
		return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rec.Prefix = p
	if alen := binary.BigEndian.Uint16(fixed[20:]); alen > 0 {
		ab := make([]byte, alen)
		if _, err := io.ReadFull(r.r, ab); err != nil {
			return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		if rec.Attrs, err = bgp.UnmarshalAttrs(ab); err != nil {
			return rec, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return rec, nil
}

// layers is what Open, Create, OpenMRT and CreateMRT stack under a log
// stream, outermost first: the gzip layer of a ".gz" name, then the file.
type layers []io.Closer

// Close closes every layer and returns the first error. A failing layer
// must not leak the ones under it: gzip.Reader.Close reports a truncated
// stream, which is what a killed collector leaves behind.
func (l layers) Close() error {
	var first error
	for _, c := range l {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// openLayers opens path for reading, through gzip for a ".gz" name.
func openLayers(path string) (io.Reader, layers, error) {
	f, err := os.Open(path)
	if err != nil || !strings.HasSuffix(path, ".gz") {
		return f, layers{f}, err
	}
	// Buffer the file reads so the flate layer never issues small syscalls
	// (see fileReadBufSize).
	gz, err := gzip.NewReader(bufio.NewReaderSize(f, fileReadBufSize))
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return gz, layers{gz, f}, nil
}

// createLayers creates path for writing, through gzip for a ".gz" name.
func createLayers(path string) (io.Writer, layers, error) {
	f, err := os.Create(path)
	if err != nil || !strings.HasSuffix(path, ".gz") {
		return f, layers{f}, err
	}
	gz := gzip.NewWriter(f)
	return gz, layers{gz, f}, nil
}

// fileReadBufSize is the read buffer interposed between a log file and its
// gzip layer. Without it the flate decoder issues its own small reads
// straight to the kernel — one syscall every few records. 256 KiB covers
// several compressed store-sized blocks (512 records each) per syscall.
const fileReadBufSize = 1 << 18

// ReadAll decodes an entire log into memory.
func ReadAll(r *Reader) ([]Record, error) {
	var out []Record
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// WriteAll writes all records and keeps the writer open.
func WriteAll(w *Writer, recs []Record) error {
	for _, rec := range recs {
		if err := w.Write(rec); err != nil {
			return err
		}
	}
	return nil
}

// RecordReader is the common streaming interface over both log formats
// (native IRTL and MRT).
type RecordReader interface {
	// Next returns the next record, io.EOF at a clean end of stream.
	Next() (Record, error)
	// Close releases any file or compression layers.
	Close() error
}

// OpenAny opens path as whichever log format its name indicates: ".mrt" or
// ".mrt.gz" selects MRT, everything else the native format. The returned
// name is the exchange recorded in the header (empty for MRT, which carries
// none).
func OpenAny(path string) (RecordReader, string, error) {
	if strings.HasSuffix(path, ".mrt") || strings.HasSuffix(path, ".mrt.gz") {
		r, err := OpenMRT(path)
		if err != nil {
			return nil, "", err
		}
		return r, "", nil
	}
	r, err := Open(path)
	if err != nil {
		return nil, "", err
	}
	return r, r.Exchange(), nil
}
