package replication

import (
	"encoding/binary"
	"fmt"

	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/logrec"
	"eternalgw/internal/memnet"
	"eternalgw/internal/slab"
)

// Kind distinguishes the messages the fault tolerance infrastructure
// multicasts inside a domain.
type Kind uint8

// Message kinds. Invocation and Response carry encapsulated IIOP
// messages (figure 4b/4c); the rest are infrastructure control traffic.
const (
	KindInvocation Kind = iota + 1
	KindResponse
	KindCreateGroup
	// 4 and 5 are retired (the join and leave announcements KindViewChange
	// now carries), so the surviving kinds keep their values.
	_
	_
	KindStateTransfer
	KindStateSync
	// KindGatewayControl carries gateway-group housekeeping: the
	// notification that a TCP client departed, on which each member of
	// the destination group forgets the client ClientID of server group
	// SrcGroup — identifiers are per-group counters (sections 3.2, 3.5).
	KindGatewayControl
	// KindDeleteGroup retires an object group everywhere: local replicas
	// stop and the directory entry disappears.
	KindDeleteGroup
	// KindViewChange installs a membership delta — joiners and removed
	// members in one message; JoinGroup, LeaveGroup and EvictMembers all
	// send it. Because it travels through the same total order as every
	// invocation, all replicas switch to the new numbered view at the
	// same sequence number; there is no separate agreement round.
	KindViewChange
	// KindMembershipSync recovers a group directory (handleConfig). With
	// an empty payload it is the request of a member whose directory is
	// awaiting; with one, the snapshot a member whose directory is not
	// cut where that request was delivered — a position every member
	// agrees on — for the awaiting to adopt.
	KindMembershipSync
)

// Header is the fault tolerance infrastructure and gateway header
// prepended to every multicast message (figure 4). The message timestamp
// of the paper is not a wire field: it is the Totem sequence number,
// filled in by the replication mechanisms at the receiving end when the
// message is delivered.
type Header struct {
	Kind Kind
	// ClientID identifies the external TCP client on whose behalf the
	// gateway issued an invocation; it is UnusedClientID for messages
	// exchanged between replicated objects (figure 4c).
	ClientID uint64
	// SrcGroup is the sending object group.
	SrcGroup GroupID
	// DstGroup is the target object group.
	DstGroup GroupID
	// Op is the operation identifier shared by an invocation and its
	// responses (figure 6).
	Op OperationID
}

// Message is one fault-tolerance multicast: header plus payload. For
// invocations the payload is an encapsulated IIOP Request; for responses
// an encapsulated IIOP Reply; control kinds define their own payloads.
type Message struct {
	Header  Header
	Payload []byte
}

// opKey identifies one operation for duplicate detection: the paper's
// routing triple (destination group, source group, TCP client id) plus
// the operation identifier.
type opKey struct {
	src      GroupID
	clientID uint64
	op       OperationID
}

// key names the operation a header is about: an invocation's among those
// its destination executes, a response's among those its source answered.
func (h Header) key() opKey { return opKey{src: h.SrcGroup, clientID: h.ClientID, op: h.Op} }

// headerLen is the encoded length of the fixed header, alignment padding
// and the payload's length prefix included: the payload starts here.
const headerLen = 40

// Encode serializes a message: the bare wire form, for a caller that
// wants the bytes (experiments, the benchmark's probe).
func Encode(m Message) []byte { return encode(0, m) }

// encode is the wire form behind room unwritten bytes (Mechanisms.room),
// which totem frames the message in: the buffer built here is the datagram
// that is broadcast (totem.Node.MulticastFramed).
func encode(room int, m Message) []byte {
	return sealPayload(room, append(openPayload(room, m.Header, len(m.Payload), nil), m.Payload...))
}

func writeHeader(w *cdr.Writer, h Header) {
	w.WriteOctet(byte(h.Kind))
	w.WriteULongLong(h.ClientID)
	w.WriteULong(uint32(h.SrcGroup))
	w.WriteULong(uint32(h.DstGroup))
	w.WriteULongLong(h.Op.ParentTS)
	w.WriteULong(h.Op.ChildSeq)
}

// encodeRequest encapsulates an IIOP Request (figure 4b) behind room
// unwritten bytes, as encode does a Message: Encode's wire form of a
// message whose payload is the framed request, built in one buffer —
// header, then the IIOP bytes appended in place, then the payload
// length, known only now, patched in. The request is framed in the byte
// order its arguments were marshalled in (the external client's, when a
// gateway forwards), so replicas decode the arguments correctly and
// answer in the same order.
func encodeRequest(room int, h Header, req giop.Request) ([]byte, error) {
	buf, err := giop.AppendRequest(openPayload(room, h, giop.RequestSizeBound(req), nil), req.ArgsOrder, req)
	if err != nil {
		return nil, err
	}
	return sealPayload(room, buf), nil
}

// frameInvocation is encodeRequest for an IIOP request that lies in its
// buffer already: frame is room unwritten bytes, headerLen more, and the
// request as it was read off a socket (Mechanisms.Headroom). The header
// is written into the room, and the request conveyed verbatim — in the
// client's byte order and GIOP version, which is figure 4b to the letter.
func frameInvocation(room int, h Header, frame []byte) ([]byte, error) {
	if len(frame) < room+headerLen+giop.HeaderSize {
		return nil, fmt.Errorf("replication: a frame of %d bytes has no room for the %d-byte headers ahead of a request", len(frame), room+headerLen)
	}
	writeHeader(cdr.NewWriterOn(frame[:room], cdr.BigEndian), h)
	return sealPayload(room, frame), nil
}

// encodeReply is encodeRequest for an IIOP Reply (figure 4c), framed in
// the byte order its result bytes were produced in (the original
// request's), so the label on the wire matches the payload.
func encodeReply(room int, h Header, rep giop.Reply) ([]byte, error) {
	buf, err := giop.AppendReply(openPayload(room, h, giop.ReplySizeBound(rep), nil), rep.ResultOrder, rep)
	if err != nil {
		return nil, err
	}
	return sealPayload(room, buf), nil
}

// openPayload starts a message behind room unwritten bytes, with space
// for a payload of up to size: the header, its payload length left for
// sealPayload. The buffer is carved from in, clipped to that length, so a
// payload that outgrows it is appended into a buffer of its own — a
// replica's responses (replica.respond); a nil in, the encoders', makes
// it on its own.
func openPayload(room int, h Header, size int, in *slab.Slab[byte]) []byte {
	w := cdr.NewWriterOn(in.Carve(room + headerLen + size)[:room], cdr.BigEndian)
	writeHeader(w, h)
	w.WriteULong(0)
	return w.Bytes()
}

// sealPayload patches the payload length into a message whose payload
// was appended behind openPayload's header.
func sealPayload(room int, buf []byte) []byte {
	binary.BigEndian.PutUint32(buf[room+headerLen-4:], uint32(len(buf)-room-headerLen))
	return buf
}

// HeaderView is the cheap header-first peek at a delivered message: the
// decoded fixed header plus the payload bytes, still encoded and
// aliasing the delivery buffer. The event loop routes every delivery on
// the header alone; payload decode is deferred to whoever needs it — the
// replica executor for request bodies, the first pending waiter for
// reply bodies — and skipped entirely for early-discarded duplicate
// responses. The payload must not be mutated, and anything retained
// beyond the delivery goes into the recovery log (logInvocation) or
// through retain: the datagram is the arena, shared by every payload
// packed into it and, on memnet, by every ring member that received it.
type HeaderView struct {
	Header  Header
	Payload []byte
}

// retain returns b, a window onto a delivered datagram, as the gateway-
// group record keeps it for as long as its window holds the reply
// (DESIGN.md section 7): b itself if sole (totem.Delivery.Sole), which
// pins one totem header besides and the chunk b lies in — the responder's
// (a response is carved from its replica's slab) or, over UDP, the
// receiving endpoint's — 4 KiB at most, so the record's answeredCapacity
// entries pin 32 MiB at worst (DESIGN.md section 8), and on memnet is the
// one buffer every member keeps; a copy of a part of a pack, carved out
// of copies, the record shard's slab, so that a hundred-byte record never
// pins 32 KiB and costs no allocation of its own. The recovery log, cut at
// every checkpoint, keeps either by reference (logInvocation). Kept bytes
// stay read-only, and no transport may pool a datagram that can be.
//
// gwlint:arena-retain
func retain(b []byte, sole bool, copies *slab.Slab[byte]) []byte {
	if sole {
		return b
	}
	return append(copies.Carve(len(b)), b...)
}

// Message materializes the view as a Message whose payload still aliases
// the delivery buffer.
func (v HeaderView) Message() Message {
	return Message{Header: v.Header, Payload: v.Payload}
}

// DecodeHeader parses the fixed header of a multicast message, leaving
// the payload unparsed and uncopied.
func DecodeHeader(b []byte) (HeaderView, error) {
	r := cdr.NewReader(b, cdr.BigEndian)
	var v HeaderView
	v.Header.Kind = Kind(r.ReadOctet())
	v.Header.ClientID = r.ReadULongLong()
	v.Header.SrcGroup = GroupID(r.ReadULong())
	v.Header.DstGroup = GroupID(r.ReadULong())
	v.Header.Op.ParentTS = r.ReadULongLong()
	v.Header.Op.ChildSeq = r.ReadULong()
	v.Payload = r.ReadOctetSeq()
	if err := r.Err(); err != nil {
		return HeaderView{}, fmt.Errorf("replication: decode: %w", err)
	}
	return v, nil
}

// Decode parses a multicast message, copying the payload so the result
// does not alias the input (experiments, the benchmark's probe); the
// datapath reads DecodeHeader's view.
func Decode(b []byte) (Message, error) {
	v, err := DecodeHeader(b)
	if err != nil {
		return Message{}, err
	}
	m := v.Message()
	m.Payload = append([]byte(nil), m.Payload...)
	return m, nil
}

// createGroupPayload carries group creation parameters.
type createGroupPayload struct {
	Style     Style
	ObjectKey []byte
}

func encodeCreateGroup(p createGroupPayload) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctet(byte(p.Style))
	w.WriteOctetSeq(p.ObjectKey)
	return w.Bytes()
}

func decodeCreateGroup(b []byte) (createGroupPayload, error) {
	r := cdr.NewReader(b, cdr.BigEndian)
	var p createGroupPayload
	p.Style = Style(r.ReadOctet())
	p.ObjectKey = append([]byte(nil), r.ReadOctetSeq()...)
	if err := r.Err(); err != nil {
		return createGroupPayload{}, fmt.Errorf("replication: decode create-group: %w", err)
	}
	return p, nil
}

// viewChangePayload carries one membership delta: nodes added to and
// removed from the group in a single totally-ordered view change.
type viewChangePayload struct {
	Add    []memnet.NodeID
	Remove []memnet.NodeID
}

func encodeViewChange(p viewChangePayload) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteULong(uint32(len(p.Add)))
	for _, n := range p.Add {
		w.WriteString(string(n))
	}
	w.WriteULong(uint32(len(p.Remove)))
	for _, n := range p.Remove {
		w.WriteString(string(n))
	}
	return w.Bytes()
}

func decodeViewChange(b []byte) (viewChangePayload, error) {
	r := cdr.NewReader(b, cdr.BigEndian)
	var p viewChangePayload
	for n := r.ReadULong(); n > 0 && r.Err() == nil; n-- {
		p.Add = append(p.Add, memnet.NodeID(r.ReadString()))
	}
	for n := r.ReadULong(); n > 0 && r.Err() == nil; n-- {
		p.Remove = append(p.Remove, memnet.NodeID(r.ReadString()))
	}
	if err := r.Err(); err != nil {
		return viewChangePayload{}, fmt.Errorf("replication: decode view change: %w", err)
	}
	return p, nil
}

// syncGroup is one group's directory entry inside a membership sync.
type syncGroup struct {
	ID        GroupID
	Style     Style
	ObjectKey []byte
	View      uint64
	ViewSeq   uint64
	Members   []memnet.NodeID
}

// membershipSyncPayload is a directory snapshot: every group as it stood
// at Cut, the total-order position of the request from Asker it answers.
type membershipSyncPayload struct {
	Asker  memnet.NodeID
	Cut    uint64
	Groups []syncGroup
}

func encodeMembershipSync(p membershipSyncPayload) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteString(string(p.Asker))
	w.WriteULongLong(p.Cut)
	w.WriteULong(uint32(len(p.Groups)))
	for _, g := range p.Groups {
		w.WriteULong(uint32(g.ID))
		w.WriteOctet(byte(g.Style))
		w.WriteOctetSeq(g.ObjectKey)
		w.WriteULongLong(g.View)
		w.WriteULongLong(g.ViewSeq)
		w.WriteULong(uint32(len(g.Members)))
		for _, n := range g.Members {
			w.WriteString(string(n))
		}
	}
	return w.Bytes()
}

func decodeMembershipSync(b []byte) (membershipSyncPayload, error) {
	r := cdr.NewReader(b, cdr.BigEndian)
	var p membershipSyncPayload
	p.Asker = memnet.NodeID(r.ReadString())
	p.Cut = r.ReadULongLong()
	for n := r.ReadULong(); n > 0 && r.Err() == nil; n-- {
		g := syncGroup{
			ID:        GroupID(r.ReadULong()),
			Style:     Style(r.ReadOctet()),
			ObjectKey: append([]byte(nil), r.ReadOctetSeq()...),
			View:      r.ReadULongLong(),
			ViewSeq:   r.ReadULongLong(),
		}
		for k := r.ReadULong(); k > 0 && r.Err() == nil; k-- {
			g.Members = append(g.Members, memnet.NodeID(r.ReadString()))
		}
		p.Groups = append(p.Groups, g)
	}
	if err := r.Err(); err != nil {
		return membershipSyncPayload{}, fmt.Errorf("replication: decode membership sync: %w", err)
	}
	return p, nil
}

// statePayload carries a recovery image between members of a group: a
// state transfer (the donor's checkpoint plus its log suffix, addressed
// to one joiner) or a passive primary's periodic synchronization (the
// checkpoint alone, addressed to every backup).
type statePayload struct {
	// Target is the joining node a transfer is addressed to; empty for
	// synchronizations.
	Target memnet.NodeID
	// Checkpoint is the application state and the position in the total
	// order it was cut at.
	Checkpoint logrec.Checkpoint
	// Entries are the invocations logged after the checkpoint, in total
	// order; the joiner catches up through them instead of replaying
	// history from zero.
	Entries []logrec.Entry
}

func encodeState(p statePayload) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteString(string(p.Target))
	w.WriteULongLong(p.Checkpoint.Seq)
	w.WriteULongLong(p.Checkpoint.OpCount)
	w.WriteOctetSeq(p.Checkpoint.State)
	w.WriteULong(uint32(len(p.Entries)))
	for _, e := range p.Entries {
		w.WriteULongLong(e.Seq)
		w.WriteOctetSeq(e.Data)
	}
	return w.Bytes()
}

// stateTarget is the joiner a state transfer is addressed to, read
// without decoding the image behind it.
func stateTarget(b []byte) memnet.NodeID {
	return memnet.NodeID(cdr.NewReader(b, cdr.BigEndian).ReadString())
}

func decodeState(b []byte) (statePayload, error) {
	r := cdr.NewReader(b, cdr.BigEndian)
	var p statePayload
	p.Target = memnet.NodeID(r.ReadString())
	p.Checkpoint.Seq = r.ReadULongLong()
	p.Checkpoint.OpCount = r.ReadULongLong()
	p.Checkpoint.State = append([]byte(nil), r.ReadOctetSeq()...)
	for n := r.ReadULong(); n > 0 && r.Err() == nil; n-- {
		e := logrec.Entry{Seq: r.ReadULongLong()}
		e.Data = append([]byte(nil), r.ReadOctetSeq()...)
		p.Entries = append(p.Entries, e)
	}
	if err := r.Err(); err != nil {
		return statePayload{}, fmt.Errorf("replication: decode state: %w", err)
	}
	return p, nil
}
