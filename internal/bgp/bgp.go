// Package bgp implements the BGP-4 wire protocol (RFC 1163/1771 era, as
// deployed in the 1996-97 Internet the paper measured): message framing,
// OPEN / UPDATE / KEEPALIVE / NOTIFICATION encoding and decoding, and the
// path attributes that carry inter-domain routing information.
//
// The package is transport-agnostic: messages marshal to and from byte
// slices, and ReadRaw/WriteMessage frame them over any io.Reader/Writer
// (a real TCP connection, a net.Pipe, or the simulator's in-memory links).
package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"instability/internal/netaddr"
)

// Protocol constants from RFC 1771 §4.1.
const (
	// Version is the BGP protocol version spoken by this implementation.
	Version = 4

	// HeaderLen is the fixed size of the BGP message header: a 16-byte
	// marker, 2-byte length, and 1-byte type.
	HeaderLen = 19

	// MaxMessageLen is the largest legal BGP message, header included.
	MaxMessageLen = 4096

	// MinMessageLen is the smallest legal BGP message (a KEEPALIVE).
	MinMessageLen = HeaderLen
)

// MsgType identifies the kind of BGP message.
type MsgType uint8

// BGP message types.
const (
	MsgOpen         MsgType = 1
	MsgUpdate       MsgType = 2
	MsgNotification MsgType = 3
	MsgKeepalive    MsgType = 4
)

// String returns the conventional name of t.
func (t MsgType) String() string {
	switch t {
	case MsgOpen:
		return "OPEN"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return "NOTIFICATION"
	case MsgKeepalive:
		return "KEEPALIVE"
	}
	return fmt.Sprintf("UNKNOWN(%d)", uint8(t))
}

// Message is any BGP message body.
type Message interface {
	// Type returns the message type carried in the header.
	Type() MsgType
	// MarshalBody appends the message body (everything after the common
	// header) to b and returns the extended slice.
	MarshalBody(b []byte) ([]byte, error)
}

// marker is the all-ones authentication marker required when no
// authentication is in use.
var marker = [16]byte{
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
}

// Framing and validation errors.
var (
	ErrBadMarker   = errors.New("bgp: connection not synchronized (bad marker)")
	ErrBadLength   = errors.New("bgp: bad message length")
	ErrBadType     = errors.New("bgp: bad message type")
	ErrTruncated   = errors.New("bgp: truncated message")
	ErrMessageSize = errors.New("bgp: message exceeds 4096 octets")
)

// Marshal encodes msg as a complete wire message, header included.
func Marshal(msg Message) ([]byte, error) {
	buf := make([]byte, HeaderLen, 64)
	copy(buf, marker[:])
	buf[18] = byte(msg.Type())
	buf, err := msg.MarshalBody(buf)
	if err != nil {
		return nil, err
	}
	if len(buf) > MaxMessageLen {
		return nil, fmt.Errorf("%w: %d", ErrMessageSize, len(buf))
	}
	binary.BigEndian.PutUint16(buf[16:18], uint16(len(buf)))
	return buf, nil
}

// Unmarshal decodes a complete wire message (header included).
func Unmarshal(b []byte) (Message, error) {
	body, typ, err := checkHeader(b)
	if err != nil {
		return nil, err
	}
	switch typ {
	case MsgOpen:
		return unmarshalOpen(body)
	case MsgUpdate:
		return unmarshalUpdate(body)
	case MsgNotification:
		return unmarshalNotification(body)
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, fmt.Errorf("%w: keepalive with %d body octets", ErrBadLength, len(body))
		}
		return Keepalive{}, nil
	}
	return nil, fmt.Errorf("%w: %d", ErrBadType, typ)
}

func checkHeader(b []byte) (body []byte, typ MsgType, err error) {
	if len(b) < HeaderLen {
		return nil, 0, ErrTruncated
	}
	for i := 0; i < 16; i++ {
		if b[i] != 0xff {
			return nil, 0, ErrBadMarker
		}
	}
	length := int(binary.BigEndian.Uint16(b[16:18]))
	typ = MsgType(b[18])
	if length < MinMessageLen || length > MaxMessageLen {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	if length != len(b) {
		return nil, 0, fmt.Errorf("%w: header says %d, have %d", ErrBadLength, length, len(b))
	}
	return b[HeaderLen:], typ, nil
}

// WriteMessage marshals msg and writes it to w.
func WriteMessage(w io.Writer, msg Message) error {
	b, err := Marshal(msg)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadRaw reads exactly one framed BGP message from r and returns its raw
// bytes (header included) without decoding. Splitting the blocking read
// from the parse lets callers time the decode itself, excluding the time
// spent waiting for the peer to send.
func ReadRaw(r io.Reader) ([]byte, error) {
	var hdr [HeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint16(hdr[16:18]))
	if length < MinMessageLen || length > MaxMessageLen {
		return nil, fmt.Errorf("%w: %d", ErrBadLength, length)
	}
	buf := make([]byte, length)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[HeaderLen:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf, nil
}

// Keepalive is the empty-bodied KEEPALIVE message.
type Keepalive struct{}

// Type implements Message.
func (Keepalive) Type() MsgType { return MsgKeepalive }

// MarshalBody implements Message.
func (Keepalive) MarshalBody(b []byte) ([]byte, error) { return b, nil }

// Open is the BGP OPEN message sent when a session starts.
type Open struct {
	Version  uint8
	AS       uint16
	HoldTime uint16 // seconds; 0 disables keepalives
	BGPID    netaddr.Addr
	OptParms []byte // raw optional parameters (unused by the 1996-era core)
}

// Type implements Message.
func (Open) Type() MsgType { return MsgOpen }

// MarshalBody implements Message.
func (o Open) MarshalBody(b []byte) ([]byte, error) {
	if len(o.OptParms) > 255 {
		return nil, fmt.Errorf("bgp: optional parameters too long (%d)", len(o.OptParms))
	}
	b = append(b, o.Version)
	b = binary.BigEndian.AppendUint16(b, o.AS)
	b = binary.BigEndian.AppendUint16(b, o.HoldTime)
	b = binary.BigEndian.AppendUint32(b, uint32(o.BGPID))
	b = append(b, byte(len(o.OptParms)))
	b = append(b, o.OptParms...)
	return b, nil
}

func unmarshalOpen(body []byte) (Open, error) {
	if len(body) < 10 {
		return Open{}, fmt.Errorf("%w: open body %d octets", ErrTruncated, len(body))
	}
	o := Open{
		Version:  body[0],
		AS:       binary.BigEndian.Uint16(body[1:3]),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		BGPID:    netaddr.Addr(binary.BigEndian.Uint32(body[5:9])),
	}
	optLen := int(body[9])
	if len(body) != 10+optLen {
		return Open{}, fmt.Errorf("%w: open optional parameters", ErrBadLength)
	}
	if optLen > 0 {
		o.OptParms = append([]byte(nil), body[10:]...)
	}
	return o, nil
}

// Notification error codes (RFC 1771 §4.5).
type NotifCode uint8

// Notification codes.
const (
	NotifMessageHeaderError NotifCode = 1
	NotifOpenMessageError   NotifCode = 2
	NotifUpdateMessageError NotifCode = 3
	NotifHoldTimerExpired   NotifCode = 4
	NotifFSMError           NotifCode = 5
	NotifCease              NotifCode = 6
)

// String returns the RFC name for c.
func (c NotifCode) String() string {
	switch c {
	case NotifMessageHeaderError:
		return "Message Header Error"
	case NotifOpenMessageError:
		return "OPEN Message Error"
	case NotifUpdateMessageError:
		return "UPDATE Message Error"
	case NotifHoldTimerExpired:
		return "Hold Timer Expired"
	case NotifFSMError:
		return "Finite State Machine Error"
	case NotifCease:
		return "Cease"
	}
	return fmt.Sprintf("Unknown(%d)", uint8(c))
}

// Notification reports a fatal protocol error; the sender closes the session
// immediately after transmitting it.
type Notification struct {
	Code    NotifCode
	Subcode uint8
	Data    []byte
}

// Type implements Message.
func (Notification) Type() MsgType { return MsgNotification }

// MarshalBody implements Message.
func (n Notification) MarshalBody(b []byte) ([]byte, error) {
	b = append(b, byte(n.Code), n.Subcode)
	return append(b, n.Data...), nil
}

func unmarshalNotification(body []byte) (Notification, error) {
	if len(body) < 2 {
		return Notification{}, fmt.Errorf("%w: notification body %d octets", ErrTruncated, len(body))
	}
	n := Notification{Code: NotifCode(body[0]), Subcode: body[1]}
	if len(body) > 2 {
		n.Data = append([]byte(nil), body[2:]...)
	}
	return n, nil
}

// Error lets a Notification travel as a Go error through session plumbing.
func (n Notification) Error() string {
	return fmt.Sprintf("bgp: notification %v subcode %d", n.Code, n.Subcode)
}
