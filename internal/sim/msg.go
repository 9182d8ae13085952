package sim

import "encoding/binary"

// msgKind enumerates the sim's unicast messages: between a client or a
// subscriber and a gateway, and between the domains. They travel as
// real memnet datagrams (so loss, duplication, delay, partition and
// crash apply), whose payload is an 8-byte handle into the world's
// message table. None passes between two protocol nodes of one domain:
// what those exchange is the ring's own datagrams.
type msgKind int

const (
	mRequest   msgKind = iota // client -> gateway invocation
	mReply                    // gateway -> client reply
	mBridge                   // replica -> remote gateway nested invocation
	mBridgeAck                // remote gateway -> origin domain ack
	mPush                     // gateway -> subscriber fan-out item
	mFetch                    // subscriber -> gateway backfill request
	mItems                    // gateway -> subscriber backfill reply
)

// msg is one unicast datagram.
type msg struct {
	kind   msgKind
	op     *Op
	val    uint64
	items  []uint64
	have   uint64
	client string
}

// entryKind enumerates what a domain orders through its totem ring.
type entryKind int

const (
	eInvoke   entryKind = iota // a client or bridge invocation
	eResponse                  // a replica's response, ordered back so every gateway records it
	eReport                    // how far a member has delivered: the stability rule's input
	eAsk                       // a member that does not hold the kept history asks for a snapshot
	eAnswer                    // a snapshot cut where an ask was delivered
)

// entry is one payload of the total order. It travels as an 8-byte
// handle into the world's entry table; totem orders the handle.
type entry struct {
	kind  entryKind
	op    *Op
	val   uint64 // eResponse: the response value
	group int
	from  int    // eReport, eAsk, eAnswer: the member that submitted it
	ring  uint64 // eReport: the ring it was made in
	upTo  uint64 // eReport: the timestamp through which its member has delivered
	ask   uint64 // eAsk, eAnswer: the request's id
	snap  *snapshot
}

// logged is one delivered invocation or response awaiting execution,
// at its place in the order (totem.Delivery.Timestamp).
type logged struct {
	ts uint64
	e  *entry
}

// snapshot is a member's replicated state cut where an ask was
// delivered: the applications, duplicate-detection tables, bridge outbox
// and publication count as executed, and the delivered entries not yet
// executed. Adopters deep-copy everything mutable; entries themselves are
// immutable once created.
type snapshot struct {
	apps      map[int]App
	executed  map[int]map[OpKey]execRec
	outbox    map[OpKey]*Op
	published uint64
	log       []logged
}

// execRec is a replica's memory of one executed op: the agreed position
// in the order and the cached reply value used to answer duplicates.
type execRec struct {
	seq uint64
	val uint64
}

// handle encodes a table index as an 8-byte payload.
func handle(idx int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(idx))
	return b[:]
}

func handleIndex(payload []byte) int {
	if len(payload) != 8 {
		return -1
	}
	return int(binary.BigEndian.Uint64(payload))
}
