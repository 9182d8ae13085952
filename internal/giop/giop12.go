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
	head, err := AppendRequestHead(make([]byte, 0, RequestSizeBound(req)), order, minor, req)
	if err != nil {
		return Message{}, err
	}
	return Message{
		Header: Header{Major: 1, Minor: minor, Order: order, Type: MsgRequest},
		Body:   append(head, req.Args...)[HeaderSize:],
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

// writeRequestHead12 writes a GIOP 1.2 Request body up to its arguments,
// which if there are any start at an 8-octet boundary.
func writeRequestHead12(w *cdr.Writer, req Request) {
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
		w.Align(8)
	}
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
// reply encoder is this and the result behind it, copied or gathered —
// or its two halves around a result written in place, OpenReply and
// SealReply.
func AppendReplyHead(dst []byte, order cdr.ByteOrder, minor byte, rep Reply) ([]byte, error) {
	head, bare, err := replyHead(dst, order, minor, rep)
	if err != nil {
		return nil, err
	}
	if len(rep.Result) == 0 {
		head = head[:bare]
	}
	return sizeReply(head, len(dst), len(rep.Result))
}

// OpenReply appends to dst a framed Reply up to where its result begins,
// for the result to be written in place behind it: the GIOP header, its
// size still to come, and the reply header through the padding a result
// is aligned by. rep's request id and service contexts are final; its
// status stands until SealReply gives the outcome, and its Result is not
// read.
func OpenReply(dst []byte, order cdr.ByteOrder, minor byte, rep Reply) ([]byte, error) {
	head, _, err := replyHead(dst, order, minor, rep)
	return head, err
}

// SealReply completes the reply OpenReply began at buf[at:], whose result
// is whatever buf holds behind the head: it writes the head again, now
// that rep.Status is known, and the GIOP size. The reply it returns is
// buf, less the padding OpenReply left if the result turned out empty
// (GIOP 1.2 aligns only a result that is there). order, minor and rep's
// request id and service contexts are what OpenReply was given.
func SealReply(buf []byte, at int, order cdr.ByteOrder, minor byte, rep Reply) ([]byte, error) {
	head, bare, err := replyHead(buf[:at], order, minor, rep)
	switch {
	case err != nil:
		return nil, err
	case len(buf) < len(head):
		return nil, fmt.Errorf("giop: seal reply: %d bytes end ahead of the %d-byte head", len(buf)-at, len(head)-at)
	case len(buf) == len(head):
		buf = buf[:bare]
	}
	return sizeReply(buf, at, 0)
}

// sizeReply writes the GIOP size of the reply at buf[at:], of which more
// bytes are still to follow buf (the result, in a gathered write).
func sizeReply(buf []byte, at, more int) ([]byte, error) {
	size := len(buf) - at - HeaderSize + more
	if size > MaxMessageSize {
		return nil, ErrTooLarge
	}
	putSize(buf[at:], uint32(size))
	return buf, nil
}

// replyHead writes a Reply's GIOP header and reply header at the end of
// dst — over what lies there, when dst has the capacity (SealReply) —
// and returns it padded for a result to follow, and how long it is bare
// of that padding, as it stands when there is no result: GIOP 1.2 aligns
// only a result that is there; before 1.2 the padding is part of the
// reply header.
func replyHead(dst []byte, order cdr.ByteOrder, minor byte, rep Reply) (head []byte, bare int, err error) {
	if minor > 2 {
		return nil, 0, fmt.Errorf("%w: 1.%d", ErrBadVersion, minor)
	}
	w := cdr.NewWriterOn(appendHeader(dst, Header{Major: 1, Minor: minor, Order: order, Type: MsgReply}), order)
	if minor == 2 {
		w.WriteULong(rep.RequestID)
		w.WriteULong(uint32(rep.Status))
		writeServiceContexts(w, rep.ServiceContexts)
		bare = w.Len()
		w.Align(8)
	} else {
		writeServiceContexts(w, rep.ServiceContexts)
		w.WriteULong(rep.RequestID)
		w.WriteULong(uint32(rep.Status))
		w.Align(8)
		bare = w.Len()
	}
	if err := w.Err(); err != nil {
		return nil, 0, fmt.Errorf("giop: encode reply: %w", err)
	}
	return w.Bytes(), bare, nil
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

// readReplyHead12 reads what replyHead writes of a 1.2 reply.
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
