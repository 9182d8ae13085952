package giop

import (
	"fmt"
	"slices"

	"eternalgw/internal/cdr"
)

// EncodeRequest builds a framed GIOP 1.0 Request message in the given
// byte order. args must already be CDR-encoded in the same byte order
// (alignment within args is handled by appending it directly after the
// header fields, so args should be produced via a body writer obtained
// from the request encoder when strict alignment of the first argument
// matters; primitive echo payloads used throughout this repository are
// octet sequences, which carry their own alignment).
func EncodeRequest(order cdr.ByteOrder, req Request) (Message, error) {
	return EncodeRequestV(order, 0, req)
}

// AppendRequestHead appends to dst everything of a framed Request that
// comes ahead of its arguments: the GIOP header, sized for the whole
// message, and the request header of the given minor version through the
// padding in front of req.Args, which it does not read. Every request
// encoder is this and the arguments behind it, copied or gathered.
func AppendRequestHead(dst []byte, order cdr.ByteOrder, minor byte, req Request) ([]byte, error) {
	if minor > 2 {
		return nil, fmt.Errorf("%w: 1.%d", ErrBadVersion, minor)
	}
	w := cdr.NewWriterOn(appendHeader(dst, Header{Major: 1, Minor: minor, Order: order, Type: MsgRequest}), order)
	if minor == 2 {
		writeRequestHead12(w, req)
	} else {
		writeRequestHead(w, minor, req)
	}
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("giop: encode 1.%d request: %w", minor, err)
	}
	head := w.Bytes()
	size := len(head) - len(dst) - HeaderSize + len(req.Args)
	if size > MaxMessageSize {
		return nil, ErrTooLarge
	}
	putSize(head[len(dst):], uint32(size))
	return head, nil
}

// writeRequestHead writes a GIOP 1.0 or 1.1 Request body up to its
// arguments; 1.1 is the 1.0 layout plus three reserved octets between
// response_expected and the object key.
func writeRequestHead(w *cdr.Writer, minor byte, req Request) {
	writeServiceContexts(w, req.ServiceContexts)
	w.WriteULong(req.RequestID)
	w.WriteBool(req.ResponseExpected)
	if minor == 1 {
		w.WriteOctet(0) // reserved
		w.WriteOctet(0)
		w.WriteOctet(0)
	}
	w.WriteOctetSeq(req.ObjectKey)
	w.WriteString(req.Operation)
	w.WriteOctetSeq(req.Principal)
	// Body arguments follow the header; they were encoded relative to a
	// fresh stream, so realign to 8 to give them a deterministic base
	// that matches what the encoder of Args assumed.
	w.Align(8)
}

// AppendRequest appends to dst the wire form (header and body) of a GIOP
// 1.0 Request: the bytes Marshal gives for EncodeRequest's message,
// built in place. A layer that encapsulates the message sizes dst with
// RequestSizeBound and pays for one buffer, not three.
func AppendRequest(dst []byte, order cdr.ByteOrder, req Request) ([]byte, error) {
	head, err := AppendRequestHead(dst, order, 0, req)
	if err != nil {
		return nil, err
	}
	return append(head, req.Args...), nil
}

// AppendReply is AppendRequest for a GIOP 1.0 Reply.
func AppendReply(dst []byte, order cdr.ByteOrder, rep Reply) ([]byte, error) {
	head, err := AppendReplyHead(dst, order, 0, rep)
	if err != nil {
		return nil, err
	}
	return append(head, rep.Result...), nil
}

// DecodeRequest parses a Request message body. The request's ObjectKey,
// Principal and Args alias msg.Body and must not be written to (they are
// cap-clipped, so an append reallocates). Whoever holds the request
// holds the whole body; a caller that keeps one long after the message
// was handled copies what it needs.
func DecodeRequest(msg Message) (Request, error) {
	if msg.Header.Type != MsgRequest {
		return Request{}, fmt.Errorf("giop: decode request: message is %v", msg.Header.Type)
	}
	switch msg.Header.Minor {
	case 1:
		return decodeRequest11(msg)
	case 2:
		return decodeRequest12(msg)
	}
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	req := readRequest(r)
	if err := r.Err(); err != nil {
		return Request{}, fmt.Errorf("giop: decode request: %w", err)
	}
	req.ArgsOrder = msg.Header.Order
	return req, nil
}

// readRequest reads a 1.0 request: what writeRequestHead writes, and the
// arguments behind it.
func readRequest(r *cdr.Reader) Request {
	var req Request
	req.ServiceContexts = readServiceContexts(r)
	req.RequestID = r.ReadULong()
	req.ResponseExpected = r.ReadBool()
	req.ObjectKey = slices.Clip(r.ReadOctetSeq())
	req.Operation = r.ReadString()
	req.Principal = slices.Clip(r.ReadOctetSeq())
	r.Align(8)
	req.Args = slices.Clip(r.ReadOctets(r.Remaining()))
	return req
}

// requestSizeHint bounds a request body's encoded size, so encoders can
// preallocate their buffer instead of growing it through the default
// 64-byte writer: 38 bytes of fixed fields, length prefixes and worst-case
// padding in every minor version, 11 per service context beside its data,
// and no more — a small message changes size class over a few bytes.
func requestSizeHint(req Request) int {
	size := 40 + len(req.ObjectKey) + len(req.Operation) + len(req.Principal) + len(req.Args)
	for _, sc := range req.ServiceContexts {
		size += 12 + len(sc.Data)
	}
	return size
}

// replySizeHint is requestSizeHint for replies, whose fixed part is 16.
func replySizeHint(rep Reply) int {
	size := 16 + len(rep.Result)
	for _, sc := range rep.ServiceContexts {
		size += 12 + len(sc.Data)
	}
	return size
}

// RequestSizeBound bounds the length of what AppendRequest appends.
func RequestSizeBound(req Request) int { return HeaderSize + requestSizeHint(req) }

// ReplySizeBound bounds the length of what AppendReply appends.
func ReplySizeBound(rep Reply) int { return HeaderSize + replySizeHint(rep) }

// EncodeReply builds a framed Reply message in the given byte order.
func EncodeReply(order cdr.ByteOrder, rep Reply) (Message, error) {
	return EncodeReplyV(order, 0, rep)
}

// DecodeReply parses a Reply message body. The reply's Result aliases
// msg.Body under the rule DecodeRequest states for Args: read-only,
// cap-clipped, and whoever holds the reply holds the whole body. The
// service contexts are copied.
func DecodeReply(msg Message) (Reply, error) {
	if msg.Header.Type != MsgReply {
		return Reply{}, fmt.Errorf("giop: decode reply: message is %v", msg.Header.Type)
	}
	if msg.Header.Minor == 2 {
		return decodeReply12(msg)
	}
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	rep := readReply(r)
	if err := r.Err(); err != nil {
		return Reply{}, fmt.Errorf("giop: decode reply: %w", err)
	}
	rep.ResultOrder = msg.Header.Order
	return rep, nil
}

// readReply reads what replyHead writes of a 1.0 or 1.1 reply, and the
// result behind it.
func readReply(r *cdr.Reader) Reply {
	var rep Reply
	rep.ServiceContexts = readServiceContexts(r)
	rep.RequestID = r.ReadULong()
	rep.Status = ReplyStatus(r.ReadULong())
	r.Align(8)
	rep.Result = slices.Clip(r.ReadOctets(r.Remaining()))
	return rep
}

// EncodeCancelRequest builds a framed CancelRequest message.
func EncodeCancelRequest(order cdr.ByteOrder, c CancelRequest) Message {
	w := cdr.NewWriter(order)
	w.WriteULong(c.RequestID)
	return Message{
		Header: Header{Major: 1, Minor: 0, Order: order, Type: MsgCancelRequest},
		Body:   w.Bytes(),
	}
}

// DecodeCancelRequest parses a CancelRequest message body.
func DecodeCancelRequest(msg Message) (CancelRequest, error) {
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	c := CancelRequest{RequestID: r.ReadULong()}
	if err := r.Err(); err != nil {
		return CancelRequest{}, fmt.Errorf("giop: decode cancel: %w", err)
	}
	return c, nil
}

// EncodeLocateRequest builds a framed LocateRequest message.
func EncodeLocateRequest(order cdr.ByteOrder, lr LocateRequest) Message {
	w := cdr.NewWriter(order)
	w.WriteULong(lr.RequestID)
	w.WriteOctetSeq(lr.ObjectKey)
	return Message{
		Header: Header{Major: 1, Minor: 0, Order: order, Type: MsgLocateRequest},
		Body:   w.Bytes(),
	}
}

// DecodeLocateRequest parses a LocateRequest message body.
func DecodeLocateRequest(msg Message) (LocateRequest, error) {
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	lr := LocateRequest{RequestID: r.ReadULong(), ObjectKey: cloneBytes(r.ReadOctetSeq())}
	if err := r.Err(); err != nil {
		return LocateRequest{}, fmt.Errorf("giop: decode locate request: %w", err)
	}
	return lr, nil
}

// EncodeLocateReply builds a framed LocateReply message.
func EncodeLocateReply(order cdr.ByteOrder, lr LocateReply) Message {
	w := cdr.NewWriter(order)
	w.WriteULong(lr.RequestID)
	w.WriteULong(uint32(lr.Status))
	return Message{
		Header: Header{Major: 1, Minor: 0, Order: order, Type: MsgLocateReply},
		Body:   w.Bytes(),
	}
}

// DecodeLocateReply parses a LocateReply message body.
func DecodeLocateReply(msg Message) (LocateReply, error) {
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	lr := LocateReply{RequestID: r.ReadULong(), Status: LocateStatus(r.ReadULong())}
	if err := r.Err(); err != nil {
		return LocateReply{}, fmt.Errorf("giop: decode locate reply: %w", err)
	}
	return lr, nil
}

// EncodeCloseConnection builds a framed CloseConnection message.
func EncodeCloseConnection(order cdr.ByteOrder) Message {
	return Message{Header: Header{Major: 1, Minor: 0, Order: order, Type: MsgCloseConn}}
}

// EncodeMessageError builds a framed MessageError message.
func EncodeMessageError(order cdr.ByteOrder) Message {
	return Message{Header: Header{Major: 1, Minor: 0, Order: order, Type: MsgError}}
}

// SystemExceptionBody encodes the standard system-exception reply body:
// repository id, minor code, completion status.
func SystemExceptionBody(order cdr.ByteOrder, repoID string, minor, completed uint32) []byte {
	w := cdr.NewWriter(order)
	w.WriteString(repoID)
	w.WriteULong(minor)
	w.WriteULong(completed)
	return w.Bytes()
}

// DecodeSystemException parses a system-exception reply body.
func DecodeSystemException(body []byte, order cdr.ByteOrder) (repoID string, minor, completed uint32, err error) {
	r := cdr.NewReader(body, order)
	repoID = r.ReadString()
	minor = r.ReadULong()
	completed = r.ReadULong()
	if err := r.Err(); err != nil {
		return "", 0, 0, fmt.Errorf("giop: decode system exception: %w", err)
	}
	return repoID, minor, completed, nil
}

func writeServiceContexts(w *cdr.Writer, list []ServiceContext) {
	w.WriteULong(uint32(len(list)))
	for _, sc := range list {
		w.WriteULong(sc.ID)
		w.WriteOctetSeq(sc.Data)
	}
}

func readServiceContexts(r *cdr.Reader) []ServiceContext {
	n := r.ReadULong()
	if r.Err() != nil {
		return nil
	}
	// Each entry is at least 8 bytes, so cap the allocation hint by what
	// the remaining bytes could possibly hold; truncation then surfaces
	// through the reader's sticky error as entries are decoded.
	capHint := int(n)
	if maxEntries := r.Remaining() / 8; capHint > maxEntries {
		capHint = maxEntries
	}
	list := make([]ServiceContext, 0, capHint)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		id := r.ReadULong()
		data := cloneBytes(r.ReadOctetSeq())
		list = append(list, ServiceContext{ID: id, Data: data})
	}
	return list
}

// cloneBytes copies b: the small fields of a decoded message (service
// contexts, a locate request's key) do not alias network buffers.
func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
