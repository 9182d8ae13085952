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
	switch minor {
	case 0, 1:
		msg, err := EncodeReply(order, rep)
		if err != nil {
			return Message{}, err
		}
		msg.Header.Minor = minor
		return msg, nil
	case 2:
		return encodeReply12(order, rep)
	default:
		return Message{}, fmt.Errorf("%w: 1.%d", ErrBadVersion, minor)
	}
}

func encodeReply12(order cdr.ByteOrder, rep Reply) (Message, error) {
	w := cdr.NewWriterCap(order, replySizeHint(rep))
	w.WriteULong(rep.RequestID)
	w.WriteULong(uint32(rep.Status))
	writeServiceContexts(w, rep.ServiceContexts)
	if len(rep.Result) > 0 {
		w.Align(8)
		w.WriteOctets(rep.Result)
	}
	if err := w.Err(); err != nil {
		return Message{}, fmt.Errorf("giop: encode 1.2 reply: %w", err)
	}
	return Message{
		Header: Header{Major: 1, Minor: 2, Order: order, Type: MsgReply},
		Body:   w.Bytes(),
	}, nil
}

func decodeReply12(msg Message) (Reply, error) {
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	var rep Reply
	rep.RequestID = r.ReadULong()
	rep.Status = ReplyStatus(r.ReadULong())
	rep.ServiceContexts = readServiceContexts(r)
	if err := r.Err(); err != nil {
		return Reply{}, fmt.Errorf("giop: decode 1.2 reply: %w", err)
	}
	if r.Remaining() > 0 {
		r.Align(8)
		rep.Result = slices.Clip(r.ReadOctets(r.Remaining()))
	}
	rep.ResultOrder = msg.Header.Order
	return rep, nil
}
