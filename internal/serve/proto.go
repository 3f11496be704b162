package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"instability/internal/store"
)

// IRTQ is the record encoding the analysis CLIs read: the response body of
// GET /v1/records when the request says "Accept: application/x-irtq", as
// Client.Query does. The query travels as URL parameters and the token and
// trace context as headers, exactly as for NDJSON and every other endpoint;
// only the body differs. The body is an IRTL v2 log (collector.NewWriter):
// the header naming exchange irtqExchange, then CRC-checked frames of
// records in the one record codec, so a remote result is bit-identical to a
// local one and a saved response is a log every -in tool reads. A request
// refused before its stream starts gets an HTTP status and a JSON wireError
// body, as on every endpoint.
//
// Both encodings end the same way, in declared HTTP trailers: the 200 is long
// gone by then, and without them a truncated body is indistinguishable from a
// short answer. scanErrorTrailer carries the error when the stream stopped
// short; explainTrailer carries the scan's store.Explain as JSON when it did
// not. A scan that fails before the first frame leaves an IRTQ body with no
// log header at all, so the error trailer is read even when the body is not
// a log.
const (
	irtqType     = "application/x-irtq"
	irtqExchange = "store" // the log header's name, as bgpstore query -out writes it

	scanErrorTrailer = "Irtl-Scan-Error"
	explainTrailer   = "Irtl-Explain"
)

// Error codes carried by wireError bodies.
const (
	codeBusy     = "busy"
	codeQuota    = "quota"
	codeBadQuery = "bad_query"
	codeInternal = "internal"
)

// wireError is the JSON body of a refused request.
type wireError struct {
	Code string `json:"code"`
	Msg  string `json:"msg"`
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

// streamEnd is the one check at the end of a record stream, in either
// encoding. err is why its body's decoder stopped, io.EOF at a clean end;
// the trailers are there once the body has been read to its end. The error
// trailer is the stream's error whatever the body held; otherwise a clean
// end must carry the end trailer, whose Explain is returned.
func streamEnd(trailer http.Header, err error) (*store.Explain, error) {
	if msg := trailer.Get(scanErrorTrailer); msg != "" {
		return nil, wireError{Code: codeInternal, Msg: msg}.error()
	}
	if err != io.EOF {
		return nil, err
	}
	v := trailer.Get(explainTrailer)
	if v == "" {
		return nil, errors.New("serve: record stream ended without its end trailer")
	}
	var ex store.Explain
	if err := json.Unmarshal([]byte(v), &ex); err != nil {
		return nil, fmt.Errorf("serve: bad %s trailer: %w", explainTrailer, err)
	}
	return &ex, nil
}
