package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"instability/internal/store"
)

// IRTQ is the record encoding the analysis CLIs read: the response body of
// GET /v1/records when the request says "Accept: application/x-irtq", as
// Client.Query does. The query travels as URL parameters and the token and
// trace context as headers, exactly as for NDJSON and every other endpoint;
// only the body differs. It is length-prefixed frames:
//
//	u32 payload length (big endian) | u8 frame type | payload
//
// zero or more frameBatch frames — a uvarint record count followed by that
// many records in the one record codec (collector.AppendRecord), so a
// remote result is bit-identical to a local one — terminated by one frameEnd
// carrying the record count and the scan's store.Explain, or by one
// frameError when the stream stopped short. A request refused before its
// stream starts gets an HTTP status and a JSON wireError body, as on every
// endpoint. Batching amortizes the frame header and the write: a
// dashboard-sized result is a handful of writes, not one per record.
const (
	irtqType = "application/x-irtq"

	frameBatch = 2
	frameEnd   = 3
	frameError = 4

	// maxFramePayload bounds a frame so a corrupt or hostile length prefix
	// cannot make the peer allocate unbounded memory.
	maxFramePayload = 16 << 20

	// batchRecords is how many records the server packs per frameBatch,
	// aligned with the store's block size so one decompressed block fills
	// about one frame.
	batchRecords = 512
)

// Error codes carried by wireError bodies and frameError payloads.
const (
	codeBusy     = "busy"
	codeQuota    = "quota"
	codeBadQuery = "bad_query"
	codeInternal = "internal"
)

// wireEnd is the frameEnd payload: the result is complete, and Explain is
// what its scan read, generation included.
type wireEnd struct {
	Records int           `json:"records"`
	Explain store.Explain `json:"explain"`
}

// wireError is the frameError payload and the JSON body of a refused request.
type wireError struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
}

// writeFrame writes one frame whose payload is the concatenation of parts.
func writeFrame(w io.Writer, typ byte, parts ...[]byte) error {
	var hdr [5]byte
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	binary.BigEndian.PutUint32(hdr[:4], uint32(n))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	for _, p := range parts {
		if _, err := w.Write(p); err != nil {
			return err
		}
	}
	return nil
}

func writeJSONFrame(w io.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return writeFrame(w, typ, payload)
}

func readFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("serve: frame of %d bytes exceeds limit", n)
	}
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("serve: truncated frame: %w", err)
	}
	return hdr[4], payload, nil
}

// error maps a wire code back to the client-side error.
func (we wireError) error() error {
	switch we.Code {
	case codeBusy:
		return fmt.Errorf("%w (%s)", ErrBusy, we.Msg)
	case codeQuota:
		return fmt.Errorf("%w (%s)", ErrQuota, we.Msg)
	default:
		return fmt.Errorf("serve: remote error (%s): %s", we.Code, we.Msg)
	}
}
