package totem

import (
	"fmt"
	"slices"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
)

// Wire message kinds.
const (
	kindRegular byte = 1
	kindToken   byte = 2
	kindJoin    byte = 3
	kindPacked  byte = 4
	kindForward byte = 5 // leader mode: payloads forwarded to the sequencer
	kindBatch   byte = 6 // leader mode: an ordered batch from the sequencer
	kindAck     byte = 7 // leader mode: a follower's stability report
	kindPromote byte = 8 // leader mode: sequencer installation / heartbeat
)

// regularMsg is a sequenced application broadcast (possibly a
// retransmission, which is byte-identical except for the ring id being
// restamped to the current configuration).
//
// When Parts is non-nil the message is a packed broadcast: several
// application payloads sharing one sequence number and one datagram, as
// in the original Totem, where the token holder fills each packet with
// as many queued messages as fit. Packed messages occupy one buffer
// slot, one window slot and one retransmission unit; they are unpacked
// only at delivery, where each part becomes its own Delivery with a
// sub-index. Payload is unused when Parts is set.
type regularMsg struct {
	RingID  uint64
	Seq     uint64
	Sender  memnet.NodeID
	Payload []byte
	Parts   [][]byte
	// Via is the member a retransmission comes from, behind the payloads
	// on the wire; the original has none. The gate asks about it instead
	// of the sender, who ordered the message in some earlier ring of this
	// history and need not be a member of this one.
	Via memnet.NodeID
}

// token is the circulating ring token. Tokens are broadcast rather than
// unicast so every node (including nodes outside the ring) can use them
// for liveness and partition-merge detection; Succ names the one member
// that actually processes this token.
type token struct {
	RingID  uint64
	TokenID uint64 // monotonically increasing per ring; detects stale duplicates
	Seq     uint64 // highest sequence number assigned so far
	// Aru accumulates the minimum all-received-up-to value over the
	// current rotation: every node folds its own watermark in with min.
	Aru uint64
	// Stable is the confirmed global watermark: the Aru of the last
	// completed rotation, published by the leader. Every member is known
	// to have received all messages with seq <= Stable, so they may be
	// garbage-collected and their retransmission requests dropped.
	Stable uint64
	Succ   memnet.NodeID // the member this token is addressed to
	Rtr    []rtrEntry    // outstanding retransmission requests
	Skip   []uint64      // sequence numbers declared unrecoverable
	// On a commit (core.partOf) alone: the ring proposed, an entry per
	// member, and whether its creator has read them all and decided.
	Members []memnet.NodeID
	Entries []commitEntry
	Decided bool
}

// commitEntry is what one member writes into a commit: the ring whose
// history it holds — none for a processor never in a ring — the latest
// majority ring in that history, and how far.
type commitEntry struct {
	Filled   bool
	Last     ringRef
	Majority uint64 // id of the latest ring of most of the configured processors in Last's history; zero for none
	Highest  uint64 // highest received sequence number
	Aru      uint64 // contiguous received watermark
}

// ringRef names an installed ring: its id with its lowest member. Ring
// ids alone collide — both sides of a partition count up in lockstep —
// but rings of one id share no member (core.partOf), and a member
// installs an id once. The zero value is no ring.
type ringRef struct {
	ID  uint64
	Low memnet.NodeID
}

// rtrEntry is one retransmission request with its rotation age.
type rtrEntry struct {
	Seq uint64
	Age uint32
}

// joinMsg is a membership-recovery message.
type joinMsg struct {
	Sender memnet.NodeID
	Alive  []memnet.NodeID
	RingID uint64 // proposed new ring id
}

// datagramWriter returns the writer of a payload-bearing datagram: on in,
// the sender's buffer from where the datagram begins (core's submission:
// the header's room, then the one payload), or else on a new buffer of
// about size bytes that the payloads are copied into.
func datagramWriter(in []byte, size int) *cdr.Writer {
	if in != nil {
		return cdr.NewWriterOn(in[:0], cdr.BigEndian)
	}
	return cdr.NewWriterCap(cdr.BigEndian, size)
}

func encodeRegular(m regularMsg, in []byte) []byte {
	if len(m.Parts) > 0 {
		w := cdr.NewWriterCap(cdr.BigEndian, 40+len(m.Sender)+len(m.Via)+partsSize(nil, m.Parts))
		w.WriteOctet(kindPacked)
		w.WriteULongLong(m.RingID)
		w.WriteULongLong(m.Seq)
		w.WriteString(string(m.Sender))
		w.WriteULong(uint32(len(m.Parts)))
		writeParts(w, nil, nil, m.Parts)
		if m.Via != "" {
			w.WriteString(string(m.Via))
		}
		return w.Bytes()
	}
	w := datagramWriter(in, 48+len(m.Sender)+len(m.Via)+len(m.Payload))
	w.WriteOctet(kindRegular)
	w.WriteULongLong(m.RingID)
	w.WriteULongLong(m.Seq)
	w.WriteString(string(m.Sender))
	if in != nil {
		return writeParts(w, in, m.Payload, nil)
	}
	w.WriteOctetSeq(m.Payload)
	if m.Via != "" {
		w.WriteString(string(m.Via))
	}
	return w.Bytes()
}

func decodeRegular(r *cdr.Reader, ids idTable) (regularMsg, error) {
	var m regularMsg
	m.RingID = r.ReadULongLong()
	m.Seq = r.ReadULongLong()
	m.Sender = ids.id(r.ReadStringBytes())
	payload := r.ReadOctetSeq()
	if r.Remaining() > 0 {
		m.Via = ids.id(r.ReadStringBytes())
	}
	if err := r.Err(); err != nil {
		return regularMsg{}, fmt.Errorf("totem: decode regular: %w", err)
	}
	m.Payload = slices.Clip(payload)
	return m, nil
}

// decodePacked parses the packed form: the regular header followed by a
// counted list of payloads.
func decodePacked(r *cdr.Reader, ids idTable) (regularMsg, error) {
	var m regularMsg
	m.RingID = r.ReadULongLong()
	m.Seq = r.ReadULongLong()
	m.Sender = ids.id(r.ReadStringBytes())
	n := r.ReadULong()
	// Each part costs at least its 4-byte length prefix, which bounds a
	// hostile count before any allocation happens.
	if r.Err() != nil || int(n) > r.Remaining()/4 {
		return regularMsg{}, fmt.Errorf("totem: decode packed: bad part count %d", n)
	}
	if n == 0 {
		return regularMsg{}, fmt.Errorf("totem: decode packed: empty pack")
	}
	m.Payload, m.Parts = readParts(r, n)
	if r.Remaining() > 0 {
		m.Via = ids.id(r.ReadStringBytes())
	}
	if err := r.Err(); err != nil {
		return regularMsg{}, fmt.Errorf("totem: decode packed: %w", err)
	}
	return m, nil
}

// idTable resolves the node ids inside a datagram without allocating a
// string per id: the ids a ring exchanges are, almost always, the ring's
// own members (the core rebuilds its table at every install), and a map
// lookup keyed by string(b) does not allocate. Decoding an id that is not
// in the table converts it, allocating, and never adds it, so hostile
// datagrams cannot grow it. A nil table resolves nothing.
type idTable map[string]memnet.NodeID

func newIDTable(members []memnet.NodeID) idTable {
	t := make(idTable, len(members))
	for _, m := range members {
		t[string(m)] = m
	}
	return t
}

func (t idTable) id(b []byte) memnet.NodeID {
	if id, ok := t[string(b)]; ok {
		return id
	}
	return memnet.NodeID(b)
}

// The payloads of a forward or a batch follow regularMsg's convention:
// one payload travels in Payload, several in Parts, and the wire form is
// the same counted list either way. A single-part datagram — nearly all
// of them outside a burst — then costs no slice header to decode.

// partCount is the count writeParts' list is announced with.
func partCount(parts [][]byte) uint32 {
	if len(parts) > 0 {
		return uint32(len(parts))
	}
	return 1
}

// partsSize bounds the encoded size of the list.
func partsSize(payload []byte, parts [][]byte) int {
	size := 8 + len(payload)
	for _, p := range parts {
		size += 8 + len(p)
	}
	return size
}

// writeParts writes the payloads behind a part count and returns the
// datagram they end. Framed in place (in, see datagramWriter) that is in:
// the payload lies there already, its length ends the header, and the
// header fills its room to the byte.
func writeParts(w *cdr.Writer, in, payload []byte, parts [][]byte) []byte {
	switch {
	case in != nil:
		w.WriteULong(uint32(len(payload)))
		if w.Len()+len(payload) != len(in) {
			panic("totem: a header framed in place does not fill the room in front of its payload")
		}
		return in
	case len(parts) == 0:
		w.WriteOctetSeq(payload)
	}
	for _, p := range parts {
		w.WriteOctetSeq(p)
	}
	return w.Bytes()
}

// readParts reads n counted payloads in place: the datagram is the
// arena. Each part is a subslice of the received datagram (see
// Transport for who owns it), so decoding a datagram allocates at most
// the part headers; the cap on each part keeps an append from bleeding
// into the next part's bytes. The caller has already bounded n by the
// reader's remainder.
func readParts(r *cdr.Reader, n uint32) (payload []byte, parts [][]byte) {
	if n == 1 {
		return slices.Clip(r.ReadOctetSeq()), nil
	}
	parts = make([][]byte, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		parts = append(parts, slices.Clip(r.ReadOctetSeq()))
	}
	return nil, parts
}

func encodeToken(t token) []byte {
	w := cdr.NewWriterCap(cdr.BigEndian, 96+len(t.Succ)+12*len(t.Rtr)+8*len(t.Skip)+72*len(t.Members))
	w.WriteOctet(kindToken)
	w.WriteULongLong(t.RingID)
	w.WriteULongLong(t.TokenID)
	w.WriteULongLong(t.Seq)
	w.WriteULongLong(t.Aru)
	w.WriteULongLong(t.Stable)
	w.WriteString(string(t.Succ))
	w.WriteULong(uint32(len(t.Rtr)))
	for _, e := range t.Rtr {
		w.WriteULongLong(e.Seq)
		w.WriteULong(e.Age)
	}
	w.WriteULong(uint32(len(t.Skip)))
	for _, s := range t.Skip {
		w.WriteULongLong(s)
	}
	if len(t.Members) == 0 {
		return w.Bytes()
	}
	w.WriteBool(t.Decided)
	w.WriteULong(uint32(len(t.Members)))
	for _, id := range t.Members {
		w.WriteString(string(id))
	}
	for _, e := range t.Entries {
		w.WriteBool(e.Filled)
		w.WriteULongLong(e.Last.ID)
		w.WriteString(string(e.Last.Low))
		w.WriteULongLong(e.Majority)
		w.WriteULongLong(e.Highest)
		w.WriteULongLong(e.Aru)
	}
	return w.Bytes()
}

func decodeToken(r *cdr.Reader, ids idTable) (token, error) {
	var t token
	t.RingID = r.ReadULongLong()
	t.TokenID = r.ReadULongLong()
	t.Seq = r.ReadULongLong()
	t.Aru = r.ReadULongLong()
	t.Stable = r.ReadULongLong()
	t.Succ = ids.id(r.ReadStringBytes())
	nRtr := r.ReadULong()
	if r.Err() != nil || int(nRtr) > r.Remaining()/8 {
		// A hostile count must fail the decode, not silently yield an
		// empty retransmission list: the reads after it would continue
		// from the middle of the entries and produce a garbage token.
		return token{}, fmt.Errorf("totem: decode token: bad rtr count %d", nRtr)
	}
	t.Rtr = make([]rtrEntry, 0, nRtr)
	for i := uint32(0); i < nRtr && r.Err() == nil; i++ {
		t.Rtr = append(t.Rtr, rtrEntry{Seq: r.ReadULongLong(), Age: r.ReadULong()})
	}
	nSkip := r.ReadULong()
	if r.Err() != nil || int(nSkip) > r.Remaining()/8 {
		return token{}, fmt.Errorf("totem: decode token: bad skip count %d", nSkip)
	}
	t.Skip = make([]uint64, 0, nSkip)
	for i := uint32(0); i < nSkip && r.Err() == nil; i++ {
		t.Skip = append(t.Skip, r.ReadULongLong())
	}
	if r.Err() == nil && r.Remaining() == 0 {
		return t, nil
	}
	// The commit form: a member list with its addressee in it and an
	// entry per member, every one filled in once it is decided.
	t.Decided = r.ReadBool()
	n := r.ReadULong()
	if r.Err() != nil || n == 0 || int(n) > r.Remaining()/8 {
		return token{}, fmt.Errorf("totem: decode token: bad member count %d", n)
	}
	t.Members = make([]memnet.NodeID, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		t.Members = append(t.Members, ids.id(r.ReadStringBytes()))
	}
	t.Entries = make([]commitEntry, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		t.Entries = append(t.Entries, commitEntry{r.ReadBool(), ringRef{r.ReadULongLong(), ids.id(r.ReadStringBytes())}, r.ReadULongLong(), r.ReadULongLong(), r.ReadULongLong()})
	}
	if err := r.Err(); err != nil {
		return token{}, fmt.Errorf("totem: decode token: %w", err)
	}
	if !slices.Contains(t.Members, t.Succ) || t.Decided && slices.ContainsFunc(t.Entries, func(e commitEntry) bool { return !e.Filled }) {
		return token{}, fmt.Errorf("totem: decode token: commit addressed to a stranger, or decided with an entry not filled in")
	}
	return t, nil
}

func encodeJoin(j joinMsg) []byte {
	w := cdr.NewWriter(cdr.BigEndian)
	w.WriteOctet(kindJoin)
	w.WriteString(string(j.Sender))
	w.WriteULong(uint32(len(j.Alive)))
	for _, id := range j.Alive {
		w.WriteString(string(id))
	}
	w.WriteULongLong(j.RingID)
	return w.Bytes()
}

// forwardMsg carries a follower's queued payloads to the sequencer in
// leader mode. FwdSeq numbers the sender's forwards within the current
// leader epoch, giving the sequencer a per-origin FIFO to order by and a
// way to recognize resent duplicates. Forwards are broadcast like every
// datagram, so every member sees the payloads the sequencer is about to
// order — which is what lets the sequencer order them by reference.
type forwardMsg struct {
	RingID  uint64
	Sender  memnet.NodeID
	FwdSeq  uint64
	Payload []byte
	Parts   [][]byte
}

// batchMsg is one leader-ordered batch: the leader header plus, in the
// full form, the packed wire form. Each batch orders exactly one forward
// (Origin, OriginFwd), consumes one sequence number, and piggybacks the
// sequencer's current stability horizon so followers garbage-collect
// without a token.
//
// With Ref set the batch orders by reference: it carries no payloads
// (part count zero on the wire) and every member binds Seq to the
// forward (Origin, OriginFwd) it already holds. The sequencer orders
// other members' forwards this way; its own submissions, and every
// retransmission, take the full form.
type batchMsg struct {
	RingID    uint64
	Seq       uint64
	Leader    memnet.NodeID
	Origin    memnet.NodeID
	OriginFwd uint64
	Stable    uint64
	Ref       bool
	Payload   []byte
	Parts     [][]byte
}

// ackMsg is a follower's stability report in leader mode: its contiguous
// received watermark plus retransmission requests for observed gaps. The
// sequencer folds the Aru values into the stability horizon that
// replaces the token-carried aru.
type ackMsg struct {
	RingID uint64
	Sender memnet.NodeID
	Aru    uint64
	Nak    []uint64
}

// promoteMsg installs (and then heartbeats) a sequencer. StartSeq is the
// agreed mode-switch sequence: the last ring-ordered sequence number,
// identical at every node, below which everything was token-ordered and
// above which everything is leader-ordered within this ring. Seq is the
// highest sequence number the sequencer has ordered: a follower that
// lost the last batches of an idle epoch learns of them here.
type promoteMsg struct {
	RingID   uint64
	Leader   memnet.NodeID
	StartSeq uint64
	Stable   uint64
	Seq      uint64
}

func encodeForward(f forwardMsg, in []byte) []byte {
	w := datagramWriter(in, 40+len(f.Sender)+partsSize(f.Payload, f.Parts))
	w.WriteOctet(kindForward)
	w.WriteULongLong(f.RingID)
	w.WriteString(string(f.Sender))
	w.WriteULongLong(f.FwdSeq)
	w.WriteULong(partCount(f.Parts))
	return writeParts(w, in, f.Payload, f.Parts)
}

func decodeForward(r *cdr.Reader, ids idTable) (forwardMsg, error) {
	var f forwardMsg
	f.RingID = r.ReadULongLong()
	f.Sender = ids.id(r.ReadStringBytes())
	f.FwdSeq = r.ReadULongLong()
	n := r.ReadULong()
	// Each part costs at least its 4-byte length prefix, which bounds a
	// hostile count before any allocation happens.
	if r.Err() != nil || int(n) > r.Remaining()/4 {
		return forwardMsg{}, fmt.Errorf("totem: decode forward: bad part count %d", n)
	}
	if n == 0 {
		return forwardMsg{}, fmt.Errorf("totem: decode forward: empty forward")
	}
	f.Payload, f.Parts = readParts(r, n)
	if err := r.Err(); err != nil {
		return forwardMsg{}, fmt.Errorf("totem: decode forward: %w", err)
	}
	return f, nil
}

func encodeBatch(b batchMsg, in []byte) []byte {
	size := 64 + len(b.Leader) + len(b.Origin)
	if !b.Ref {
		size += partsSize(b.Payload, b.Parts)
	}
	w := datagramWriter(in, size)
	w.WriteOctet(kindBatch)
	w.WriteULongLong(b.RingID)
	w.WriteULongLong(b.Seq)
	w.WriteString(string(b.Leader))
	w.WriteString(string(b.Origin))
	w.WriteULongLong(b.OriginFwd)
	w.WriteULongLong(b.Stable)
	if b.Ref {
		w.WriteULong(0)
		return w.Bytes()
	}
	w.WriteULong(partCount(b.Parts))
	return writeParts(w, in, b.Payload, b.Parts)
}

func decodeBatch(r *cdr.Reader, ids idTable) (batchMsg, error) {
	var b batchMsg
	b.RingID = r.ReadULongLong()
	b.Seq = r.ReadULongLong()
	b.Leader = ids.id(r.ReadStringBytes())
	b.Origin = ids.id(r.ReadStringBytes())
	b.OriginFwd = r.ReadULongLong()
	b.Stable = r.ReadULongLong()
	n := r.ReadULong()
	if r.Err() != nil || int(n) > r.Remaining()/4 {
		return batchMsg{}, fmt.Errorf("totem: decode batch: bad part count %d", n)
	}
	if n == 0 {
		// No parts: the batch orders the forward (Origin, OriginFwd) by
		// reference. The header is all there is, so anything behind it is
		// a malformed datagram, not a payload to be guessed at.
		if r.Remaining() != 0 {
			return batchMsg{}, fmt.Errorf("totem: decode batch: %d bytes behind a by-reference batch", r.Remaining())
		}
		b.Ref = true
		return b, nil
	}
	b.Payload, b.Parts = readParts(r, n)
	if err := r.Err(); err != nil {
		return batchMsg{}, fmt.Errorf("totem: decode batch: %w", err)
	}
	return b, nil
}

func encodeAck(a ackMsg) []byte {
	w := cdr.NewWriterCap(cdr.BigEndian, 40+len(a.Sender)+8*len(a.Nak))
	w.WriteOctet(kindAck)
	w.WriteULongLong(a.RingID)
	w.WriteString(string(a.Sender))
	w.WriteULongLong(a.Aru)
	w.WriteULong(uint32(len(a.Nak)))
	for _, s := range a.Nak {
		w.WriteULongLong(s)
	}
	return w.Bytes()
}

// decodeAck parses a stability report. Only the sequencer consumes acks,
// but every member receives them: with full unset the decode stops behind
// the ring id, which is all a non-sequencer looks at (handleAck).
func decodeAck(r *cdr.Reader, ids idTable, full bool) (ackMsg, error) {
	var a ackMsg
	a.RingID = r.ReadULongLong()
	if !full {
		if err := r.Err(); err != nil {
			return ackMsg{}, fmt.Errorf("totem: decode ack: %w", err)
		}
		return a, nil
	}
	a.Sender = ids.id(r.ReadStringBytes())
	a.Aru = r.ReadULongLong()
	n := r.ReadULong()
	// Each nak costs 8 bytes, which bounds a hostile count before any
	// allocation happens.
	if r.Err() != nil || int(n) > r.Remaining()/8 {
		return ackMsg{}, fmt.Errorf("totem: decode ack: bad nak count %d", n)
	}
	if n > 0 {
		a.Nak = make([]uint64, 0, n)
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			a.Nak = append(a.Nak, r.ReadULongLong())
		}
	}
	if err := r.Err(); err != nil {
		return ackMsg{}, fmt.Errorf("totem: decode ack: %w", err)
	}
	return a, nil
}

func encodePromote(p promoteMsg) []byte {
	w := cdr.NewWriterCap(cdr.BigEndian, 40+len(p.Leader))
	w.WriteOctet(kindPromote)
	w.WriteULongLong(p.RingID)
	w.WriteString(string(p.Leader))
	w.WriteULongLong(p.StartSeq)
	w.WriteULongLong(p.Stable)
	w.WriteULongLong(p.Seq)
	return w.Bytes()
}

func decodePromote(r *cdr.Reader, ids idTable) (promoteMsg, error) {
	var p promoteMsg
	p.RingID = r.ReadULongLong()
	p.Leader = ids.id(r.ReadStringBytes())
	p.StartSeq = r.ReadULongLong()
	p.Stable = r.ReadULongLong()
	p.Seq = r.ReadULongLong()
	if err := r.Err(); err != nil {
		return promoteMsg{}, fmt.Errorf("totem: decode promote: %w", err)
	}
	return p, nil
}

func decodeJoin(r *cdr.Reader) (joinMsg, error) {
	var j joinMsg
	j.Sender = memnet.NodeID(r.ReadString())
	n := r.ReadULong()
	if r.Err() != nil || int(n) > r.Remaining()/4 {
		return joinMsg{}, fmt.Errorf("totem: decode join: bad alive count %d", n)
	}
	j.Alive = make([]memnet.NodeID, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		j.Alive = append(j.Alive, memnet.NodeID(r.ReadString()))
	}
	j.RingID = r.ReadULongLong()
	if err := r.Err(); err != nil {
		return joinMsg{}, fmt.Errorf("totem: decode join: %w", err)
	}
	return j, nil
}
