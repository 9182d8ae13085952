// Package giop implements the General Inter-ORB Protocol (GIOP) version
// 1.0 message formats that the Internet Inter-ORB Protocol (IIOP) carries
// over TCP, as specified in CORBA 2.3 chapter 15.
//
// The package provides message framing (the 12-byte GIOP header), and
// encoding/decoding of Request, Reply, CancelRequest, LocateRequest,
// LocateReply, CloseConnection and MessageError messages, together with
// the service-context lists that Eternal's enhanced clients use to carry
// fault-tolerance client identifiers (paper section 3.5).
package giop

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"eternalgw/internal/cdr"
)

// HeaderSize is the fixed size of the GIOP message header.
const HeaderSize = 12

// MaxMessageSize bounds accepted message bodies to guard against corrupt
// or hostile length fields.
const MaxMessageSize = 16 << 20

// magic is the GIOP header magic.
var magic = [4]byte{'G', 'I', 'O', 'P'}

// Errors reported by the framing layer.
var (
	ErrBadMagic   = errors.New("giop: bad magic")
	ErrBadVersion = errors.New("giop: unsupported GIOP version")
	ErrTooLarge   = errors.New("giop: message exceeds maximum size")
)

// MsgType identifies the GIOP message kind carried after the header.
type MsgType uint8

// GIOP 1.0 message types.
const (
	MsgRequest       MsgType = 0
	MsgReply         MsgType = 1
	MsgCancelRequest MsgType = 2
	MsgLocateRequest MsgType = 3
	MsgLocateReply   MsgType = 4
	MsgCloseConn     MsgType = 5
	MsgError         MsgType = 6
)

// String returns the spec name of the message type.
func (t MsgType) String() string {
	switch t {
	case MsgRequest:
		return "Request"
	case MsgReply:
		return "Reply"
	case MsgCancelRequest:
		return "CancelRequest"
	case MsgLocateRequest:
		return "LocateRequest"
	case MsgLocateReply:
		return "LocateReply"
	case MsgCloseConn:
		return "CloseConnection"
	case MsgError:
		return "MessageError"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// ReplyStatus is the GIOP reply status enumeration.
type ReplyStatus uint32

// Reply status values.
const (
	ReplyNoException     ReplyStatus = 0
	ReplyUserException   ReplyStatus = 1
	ReplySystemException ReplyStatus = 2
	ReplyLocationForward ReplyStatus = 3
)

// String returns the spec name of the reply status.
func (s ReplyStatus) String() string {
	switch s {
	case ReplyNoException:
		return "NO_EXCEPTION"
	case ReplyUserException:
		return "USER_EXCEPTION"
	case ReplySystemException:
		return "SYSTEM_EXCEPTION"
	case ReplyLocationForward:
		return "LOCATION_FORWARD"
	default:
		return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
	}
}

// Completion status values for system-exception bodies (CORBA
// completion_status). The distinction carries the §3.3 exactly-once
// contract to the client: COMPLETED_NO promises the request never
// entered the total order so a retry is always safe, COMPLETED_MAYBE
// says the outcome is genuinely unknown, COMPLETED_YES says the target
// ran. Every SystemExceptionBody call must pass one of these named
// constants — the completedno analyzer (cmd/gwlint) rejects bare
// literals and checks the status against the exception's repository ID.
const (
	CompletedYes   uint32 = 0
	CompletedNo    uint32 = 1
	CompletedMaybe uint32 = 2
)

// LocateStatus is the GIOP locate reply status enumeration.
type LocateStatus uint32

// Locate status values.
const (
	LocateUnknownObject LocateStatus = 0
	LocateObjectHere    LocateStatus = 1
	LocateForward       LocateStatus = 2
)

// ServiceContext is one entry of a GIOP service-context list. Eternal's
// enhanced client-side interception layer uses a private context id to
// carry its unique client identifier; ORBs that do not understand the id
// ignore the entry (paper section 3.5).
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// FTClientContextID is the private service-context id used by the
// enhanced client-side interception layer. The high three bytes spell
// "FT" plus a vendor nibble, chosen to avoid OMG-assigned ranges.
const FTClientContextID uint32 = 0x46545F43 // "FT_C"

// Header is the 12-byte GIOP message header.
type Header struct {
	Major, Minor byte
	Order        cdr.ByteOrder
	Type         MsgType
	Size         uint32 // body size, excluding the header itself
}

// Message is a framed GIOP message: its header and raw body bytes. The
// body is CDR-encoded in Header.Order with alignment relative to the body
// start.
type Message struct {
	Header Header
	Body   []byte
	// Frame, on a message a Reassembler read, is the buffer it was read
	// into: the reassembler's Room, the wire header, Body.
	Frame []byte
}

// Request is a decoded GIOP 1.0 Request message body.
type Request struct {
	ServiceContexts  []ServiceContext
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        []byte
	Operation        string
	Principal        []byte
	// Args holds the CDR-encoded in-parameters, still in the byte order
	// of the enclosing message.
	Args []byte
	// ArgsOrder records that byte order so Args can be re-decoded.
	ArgsOrder cdr.ByteOrder
}

// Reply is a decoded GIOP 1.0 Reply message body.
type Reply struct {
	ServiceContexts []ServiceContext
	RequestID       uint32
	Status          ReplyStatus
	// Result holds the CDR-encoded reply body (out-parameters, or the
	// exception, or the forwarding IOR). In a decoded reply it aliases
	// the message body it was decoded from (see DecodeReply).
	Result      []byte
	ResultOrder cdr.ByteOrder
}

// CancelRequest is a decoded CancelRequest body.
type CancelRequest struct {
	RequestID uint32
}

// LocateRequest is a decoded LocateRequest body.
type LocateRequest struct {
	RequestID uint32
	ObjectKey []byte
}

// LocateReply is a decoded LocateReply body.
type LocateReply struct {
	RequestID uint32
	Status    LocateStatus
}

// ContextByID returns the first service context with the given id, if any.
func ContextByID(list []ServiceContext, id uint32) ([]byte, bool) {
	for _, sc := range list {
		if sc.ID == id {
			return sc.Data, true
		}
	}
	return nil, false
}

// ReadMessage reads one framed GIOP message from r.
func ReadMessage(r io.Reader) (Message, error) {
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	h, err := parseHeader(hdr)
	if err != nil {
		return Message{}, err
	}
	body := make([]byte, h.Size)
	if _, err := io.ReadFull(r, body); err != nil {
		return Message{}, fmt.Errorf("giop: reading %v body: %w", h.Type, err)
	}
	return Message{Header: h, Body: body}, nil
}

// wireBufs pools frame-encode buffers so the framing writers emit each
// message with a single Write call and no per-message allocation.
var wireBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func putWireBuf(bp *[]byte) {
	// Oversized buffers (a large fragmented body passed through) are left
	// to the collector rather than pinned in the pool.
	if cap(*bp) > 1<<20 {
		return
	}
	*bp = (*bp)[:0]
	wireBufs.Put(bp)
}

// WriteMessage writes msg, setting the header size from the body length.
func WriteMessage(w io.Writer, msg Message) error {
	return writeWithFlags(w, msg, false)
}

// Marshal returns the full wire form (header + body) of msg.
func Marshal(msg Message) []byte {
	msg.Header.Size = uint32(len(msg.Body))
	out := appendHeader(make([]byte, 0, HeaderSize+len(msg.Body)), msg.Header)
	return append(out, msg.Body...)
}

// Unmarshal parses a full wire-form message (header + body) from b.
func Unmarshal(b []byte) (Message, error) {
	if len(b) < HeaderSize {
		return Message{}, fmt.Errorf("giop: %d bytes is shorter than a header", len(b))
	}
	var hdr [HeaderSize]byte
	copy(hdr[:], b)
	h, err := parseHeader(hdr)
	if err != nil {
		return Message{}, err
	}
	if len(b)-HeaderSize < int(h.Size) {
		return Message{}, fmt.Errorf("giop: header declares %d body bytes, have %d", h.Size, len(b)-HeaderSize)
	}
	return Message{Header: h, Body: b[HeaderSize : HeaderSize+int(h.Size)]}, nil
}

func parseHeader(hdr [HeaderSize]byte) (Header, error) {
	if [4]byte(hdr[:4]) != magic {
		return Header{}, ErrBadMagic
	}
	h := Header{
		Major: hdr[4],
		Minor: hdr[5],
		Order: cdr.ByteOrder(hdr[6] & 1),
		Type:  MsgType(hdr[7]),
	}
	if h.Major != 1 || h.Minor > 2 {
		return Header{}, fmt.Errorf("%w: %d.%d", ErrBadVersion, h.Major, h.Minor)
	}
	r := cdr.NewReader(hdr[8:12], h.Order)
	h.Size = r.ReadULong()
	if h.Size > MaxMessageSize {
		return Header{}, ErrTooLarge
	}
	return h, nil
}

// appendHeader appends the 12-byte wire header to dst, encoding the size
// field directly in the header's byte order (no intermediate writer).
func appendHeader(dst []byte, h Header) []byte {
	if h.Major == 0 {
		h.Major, h.Minor = 1, 0
	}
	dst = append(dst, magic[0], magic[1], magic[2], magic[3],
		h.Major, h.Minor, byte(h.Order), byte(h.Type))
	if h.Order == cdr.BigEndian {
		return append(dst, byte(h.Size>>24), byte(h.Size>>16), byte(h.Size>>8), byte(h.Size))
	}
	return append(dst, byte(h.Size), byte(h.Size>>8), byte(h.Size>>16), byte(h.Size>>24))
}

// putSize writes a body size into the wire header hdr begins with, in
// that header's byte order: a message built in place learns its size last.
func putSize(hdr []byte, size uint32) {
	if cdr.ByteOrder(hdr[6]&1) == cdr.BigEndian {
		binary.BigEndian.PutUint32(hdr[8:], size)
	} else {
		binary.LittleEndian.PutUint32(hdr[8:], size)
	}
}

func encodeHeader(h Header) []byte {
	return appendHeader(make([]byte, 0, HeaderSize), h)
}
