package giop

import (
	"errors"
	"fmt"
	"slices"

	"eternalgw/internal/cdr"
)

// GIOP 1.2 message support. Version 1.2 (CORBA 2.3+) changes the Request
// and Reply headers: requests carry a response_flags octet and a
// TargetAddress union instead of the 1.0 boolean and raw object key, and
// both bodies are aligned to an 8-octet boundary. This package
// implements the KeyAddr target discriminant, which is what IIOP clients
// use when addressing by object key — the only form a gateway needs to
// resolve a target group (paper section 3.1).

// Target addressing dispositions (GIOP 1.2 TargetAddress union).
const (
	// TargetKeyAddr addresses the object by its object key.
	TargetKeyAddr uint16 = 0
	// TargetProfileAddr addresses by a full tagged profile.
	TargetProfileAddr uint16 = 1
	// TargetReferenceAddr addresses by a full IOR plus profile index.
	TargetReferenceAddr uint16 = 2
)

// Response flag values for GIOP 1.2 requests.
const (
	// responseFlagsNone requests no response (oneway).
	responseFlagsNone byte = 0x00
	// responseFlagsExpected requests a full response.
	responseFlagsExpected byte = 0x03
)

// ErrUnsupportedTarget reports a TargetAddress disposition other than
// KeyAddr; gateways resolve object groups by key, so profile and
// reference addressing would require IOR introspection the caller should
// perform instead.
var ErrUnsupportedTarget = errors.New("giop: unsupported GIOP 1.2 target addressing disposition")

// EncodeRequestV builds a framed Request in the given GIOP minor
// version (0, 1 or 2). Minor versions 0 and 1 share the 1.0 header
// layout.
func EncodeRequestV(order cdr.ByteOrder, minor byte, req Request) (Message, error) {
	switch minor {
	case 0:
		return EncodeRequest(order, req)
	case 1:
		return encodeRequest11(order, req)
	case 2:
		return encodeRequest12(order, req)
	default:
		return Message{}, fmt.Errorf("%w: 1.%d", ErrBadVersion, minor)
	}
}

// encodeRequest11 builds a GIOP 1.1 Request: the 1.0 layout plus three
// reserved octets between response_expected and the object key.
func encodeRequest11(order cdr.ByteOrder, req Request) (Message, error) {
	w := cdr.NewWriterCap(order, requestSizeHint(req))
	writeServiceContexts(w, req.ServiceContexts)
	w.WriteULong(req.RequestID)
	w.WriteBool(req.ResponseExpected)
	w.WriteOctet(0) // reserved
	w.WriteOctet(0)
	w.WriteOctet(0)
	w.WriteOctetSeq(req.ObjectKey)
	w.WriteString(req.Operation)
	w.WriteOctetSeq(req.Principal)
	w.Align(8)
	w.WriteOctets(req.Args)
	if err := w.Err(); err != nil {
		return Message{}, fmt.Errorf("giop: encode 1.1 request: %w", err)
	}
	return Message{
		Header: Header{Major: 1, Minor: 1, Order: order, Type: MsgRequest},
		Body:   w.Bytes(),
	}, nil
}

func decodeRequest11(msg Message) (Request, error) {
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	var req Request
	req.ServiceContexts = readServiceContexts(r)
	req.RequestID = r.ReadULong()
	req.ResponseExpected = r.ReadBool()
	r.ReadOctet() // reserved
	r.ReadOctet()
	r.ReadOctet()
	req.ObjectKey = slices.Clip(r.ReadOctetSeq())
	req.Operation = r.ReadString()
	req.Principal = slices.Clip(r.ReadOctetSeq())
	r.Align(8)
	if err := r.Err(); err != nil {
		return Request{}, fmt.Errorf("giop: decode 1.1 request: %w", err)
	}
	req.Args = slices.Clip(r.ReadOctets(r.Remaining()))
	req.ArgsOrder = msg.Header.Order
	return req, nil
}

func encodeRequest12(order cdr.ByteOrder, req Request) (Message, error) {
	w := cdr.NewWriterCap(order, requestSizeHint(req))
	w.WriteULong(req.RequestID)
	flags := responseFlagsNone
	if req.ResponseExpected {
		flags = responseFlagsExpected
	}
	w.WriteOctet(flags)
	w.WriteOctet(0) // reserved
	w.WriteOctet(0)
	w.WriteOctet(0)
	w.WriteUShort(TargetKeyAddr)
	w.WriteOctetSeq(req.ObjectKey)
	w.WriteString(req.Operation)
	writeServiceContexts(w, req.ServiceContexts)
	if len(req.Args) > 0 {
		// GIOP 1.2: a non-empty body starts at an 8-octet boundary.
		w.Align(8)
		w.WriteOctets(req.Args)
	}
	if err := w.Err(); err != nil {
		return Message{}, fmt.Errorf("giop: encode 1.2 request: %w", err)
	}
	return Message{
		Header: Header{Major: 1, Minor: 2, Order: order, Type: MsgRequest},
		Body:   w.Bytes(),
	}, nil
}

func decodeRequest12(msg Message) (Request, error) {
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	var req Request
	req.RequestID = r.ReadULong()
	flags := r.ReadOctet()
	req.ResponseExpected = flags&0x01 != 0
	r.ReadOctet() // reserved
	r.ReadOctet()
	r.ReadOctet()
	disposition := r.ReadUShort()
	if r.Err() == nil && disposition != TargetKeyAddr {
		return Request{}, fmt.Errorf("%w: %d", ErrUnsupportedTarget, disposition)
	}
	req.ObjectKey = slices.Clip(r.ReadOctetSeq())
	req.Operation = r.ReadString()
	req.ServiceContexts = readServiceContexts(r)
	if err := r.Err(); err != nil {
		return Request{}, fmt.Errorf("giop: decode 1.2 request: %w", err)
	}
	if r.Remaining() > 0 {
		r.Align(8)
		req.Args = slices.Clip(r.ReadOctets(r.Remaining()))
	}
	req.ArgsOrder = msg.Header.Order
	return req, nil
}

// EncodeReplyV builds a framed Reply in the given GIOP minor version.
func EncodeReplyV(order cdr.ByteOrder, minor byte, rep Reply) (Message, error) {
	head, err := AppendReplyHead(make([]byte, 0, ReplySizeBound(rep)), order, minor, rep)
	if err != nil {
		return Message{}, err
	}
	return Message{
		Header: Header{Major: 1, Minor: minor, Order: order, Type: MsgReply},
		Body:   append(head, rep.Result...)[HeaderSize:],
	}, nil
}

// AppendReplyHead appends to dst everything of a framed Reply that comes
// ahead of its result: the GIOP header, sized for the whole message, and
// the reply header through the padding in front of the result. Every
// reply encoder is this and the result behind it, copied or gathered.
func AppendReplyHead(dst []byte, order cdr.ByteOrder, minor byte, rep Reply) (head []byte, err error) {
	if minor > 2 {
		return nil, fmt.Errorf("%w: 1.%d", ErrBadVersion, minor)
	}
	h := Header{Major: 1, Minor: minor, Order: order, Type: MsgReply}
	w := cdr.NewWriterOn(appendHeader(dst, h), order)
	if minor == 2 {
		writeReplyHead12(w, rep)
	} else {
		writeReplyHead(w, rep)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("giop: encode reply: %w", err)
	}
	head = w.Bytes()
	size := len(head) - len(dst) - HeaderSize + len(rep.Result)
	if size > MaxMessageSize {
		return nil, ErrTooLarge
	}
	h.Size = uint32(size)
	appendHeader(head[:len(dst)], h)
	return head, nil
}

// writeReplyHead12 writes a GIOP 1.2 Reply body up to its result, which
// if there is one starts at an 8-octet boundary.
func writeReplyHead12(w *cdr.Writer, rep Reply) {
	w.WriteULong(rep.RequestID)
	w.WriteULong(uint32(rep.Status))
	writeServiceContexts(w, rep.ServiceContexts)
	if len(rep.Result) > 0 {
		w.Align(8)
	}
}

func decodeReply12(msg Message) (Reply, error) {
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	rep := readReplyHead12(r)
	if err := r.Err(); err != nil {
		return Reply{}, fmt.Errorf("giop: decode 1.2 reply: %w", err)
	}
	if r.Remaining() > 0 {
		rep.Result = slices.Clip(r.ReadOctets(r.Remaining()))
	}
	rep.ResultOrder = msg.Header.Order
	return rep, nil
}

// readReplyHead12 reads what writeReplyHead12 writes.
func readReplyHead12(r *cdr.Reader) Reply {
	var rep Reply
	rep.RequestID = r.ReadULong()
	rep.Status = ReplyStatus(r.ReadULong())
	rep.ServiceContexts = readServiceContexts(r)
	if r.Err() == nil && r.Remaining() > 0 {
		r.Align(8)
	}
	return rep
}
