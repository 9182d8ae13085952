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
// Principal, Args and each service context's Data alias msg.Body and
// must not be written to (they are cap-clipped, so an append
// reallocates). Whoever holds the request holds the whole body; a caller
// that keeps one long after the message was handled copies what it
// needs. The operation name does not alias the body: it is interned
// (operationName), so a decode allocates only the service-context list,
// when there is one — and a copy of a name the intern table does not
// hold.
func DecodeRequest(msg Message) (Request, error) {
	if msg.Header.Type != MsgRequest {
		return Request{}, fmt.Errorf("giop: decode request: message is %v", msg.Header.Type)
	}
	if msg.Header.Minor == 2 {
		return decodeRequest12(msg)
	}
	r := cdr.NewReader(msg.Body, msg.Header.Order)
	req := readRequest(r, msg.Header.Minor)
	if err := r.Err(); err != nil {
		return Request{}, fmt.Errorf("giop: decode 1.%d request: %w", msg.Header.Minor, err)
	}
	req.ArgsOrder = msg.Header.Order
	return req, nil
}

// readRequest reads a 1.0 or 1.1 request: what writeRequestHead writes,
// and the arguments behind it.
func readRequest(r *cdr.Reader, minor byte) Request {
	var req Request
	req.ServiceContexts = readServiceContexts(r)
	req.RequestID = r.ReadULong()
	req.ResponseExpected = r.ReadBool()
	if minor == 1 {
		r.ReadOctet() // reserved
		r.ReadOctet()
		r.ReadOctet()
	}
	req.ObjectKey = slices.Clip(r.ReadOctetSeq())
	req.Operation = operationName(r.ReadStringBytes())
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

// DecodeReply parses a Reply message body. The reply's Result and each
// service context's Data alias msg.Body under the rule DecodeRequest
// states for Args: read-only, cap-clipped, and whoever holds the reply
// holds the whole body.
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
	lr := LocateRequest{RequestID: r.ReadULong()}
	// Unlike a Request's, a LocateRequest's key does not alias the body.
	lr.ObjectKey = append([]byte(nil), r.ReadOctetSeq()...)
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

// Repository ids of the system exceptions raised here: CORBA's own, and
// two of this system's. Each has one spelling, so a raise site and a
// check for the exception name the same constant.
const (
	RepoObjectNotExist = "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0"
	RepoUnknown        = "IDL:omg.org/CORBA/UNKNOWN:1.0"
	RepoCommFailure    = "IDL:omg.org/CORBA/COMM_FAILURE:1.0"
	RepoImpLimit       = "IDL:omg.org/CORBA/IMP_LIMIT:1.0"
	// RepoTransient is the CORBA "overloaded, try again" exception;
	// gateways raise it (with the admission verdict in the minor code)
	// when shedding requests under overload or drain.
	RepoTransient = "IDL:omg.org/CORBA/TRANSIENT:1.0"
	// RepoNoAgreement: the replicas of a voting group split on a request
	// they executed.
	RepoNoAgreement = "IDL:eternalgw/NO_AGREEMENT:1.0"
	// RepoReplyDiscarded answers a duplicate of an operation that ran
	// and whose reply is no longer kept.
	RepoReplyDiscarded = "IDL:eternalgw/REPLY_DISCARDED:1.0"
)

// MinorCode is a system exception's minor code: a named Minor constant
// of the raising package, or a value of a type with this method, as
// admission's Verdict is one. No bare integer fits where a code goes.
type MinorCode interface{ Minor() uint32 }

// Minor is the type of a raising package's named minor codes.
type Minor uint32

// Minor returns the code.
func (m Minor) Minor() uint32 { return uint32(m) }

// Exception is a system exception this system raises: a repository id
// bound to the one completion status it may carry. The status carries the
// §3.3 exactly-once contract to the client, so no raise site chooses it.
type Exception struct {
	repoID    string
	completed uint32
}

// The exceptions raised, each with its status (docs/OPERATIONS.md).
var (
	// Transient refuses a request before the total order: shed, or no
	// majority.
	Transient = Exception{RepoTransient, CompletedNo}
	// ObjectNotExist: the object key names nothing; never dispatched.
	ObjectNotExist = Exception{RepoObjectNotExist, CompletedNo}
	// NoAgreement: the replicas of a voting group ran the request and split.
	NoAgreement = Exception{RepoNoAgreement, CompletedMaybe}
	// ReplyDiscarded answers a duplicate of an operation that ran.
	ReplyDiscarded = Exception{RepoReplyDiscarded, CompletedYes}
	// CommFailureNo: conveying the request failed before the multicast.
	CommFailureNo = Exception{RepoCommFailure, CompletedNo}
	// CommFailureMaybe: multicast, and no response came: it may have run.
	CommFailureMaybe = Exception{RepoCommFailure, CompletedMaybe}
	// ImpLimitNo refuses a request larger than the transport carries.
	ImpLimitNo = Exception{RepoImpLimit, CompletedNo}
	// ImpLimitYes stands in for a reply that large, of an operation that ran.
	ImpLimitYes = Exception{RepoImpLimit, CompletedYes}
)

// ServantException is a servant's own exception: the servant ran.
func ServantException(repoID string) Exception { return Exception{repoID, CompletedYes} }

// Body encodes the standard system-exception reply body: repository id,
// minor code, completion status.
func (e Exception) Body(order cdr.ByteOrder, minor MinorCode) []byte {
	w := cdr.NewWriter(order)
	w.WriteString(e.repoID)
	w.WriteULong(minor.Minor())
	w.WriteULong(e.completed)
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
		list = append(list, ServiceContext{ID: id, Data: slices.Clip(r.ReadOctetSeq())})
	}
	return list
}
