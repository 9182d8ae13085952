// Package totem implements a single-ring totally-ordered reliable
// multicast protocol in the style of Totem (Moser et al., CACM 39(4),
// 1996), which the Eternal system uses as the communication substrate
// inside a fault tolerance domain.
//
// A logical token circulates around a ring of nodes. Only the token
// holder may broadcast regular messages, stamping each with the next
// global sequence number taken from the token; every node delivers
// regular messages in sequence-number order, which yields a single
// system-wide total order. The token also carries a retransmission-
// request list (recovering lost messages), an all-received-up-to
// watermark (garbage-collecting stable messages), and a skip list
// (declaring messages that no surviving member holds after a failure).
//
// Membership: when a node's token-loss timer fires, it enters a gather
// phase, exchanging Join messages until every configured node has sent
// one naming the same set, or else until the set of responsive nodes has
// been stable for GatherTimeout; the lowest id then sends a commit token
// twice round that set, which installs the ring (core.go). Configuration
// changes are delivered in order with respect to regular messages, as
// virtual synchrony requires.
//
// The sequence numbers exposed in Delivery.Seq are exactly the
// "timestamps derived from the totally-ordered message sequence numbers"
// that the paper's operation identifiers are built from (paper section
// 3.3): they are filled in at the receiving end, because a sender cannot
// know its message's position in the total order in advance.
package totem

import (
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
)

// Delivery is one totally-ordered message handed to the application.
type Delivery struct {
	// Seq is the enclosing wire message's global sequence number:
	// identical at every node and non-decreasing across deliveries.
	// Several payloads may travel in one packed message and share its
	// Seq; Sub orders them within it.
	Seq uint64
	// Sub is the payload's index within its packed wire message (0 for
	// unpacked messages). (Seq, Sub) is unique and strictly increasing
	// in lexicographic order, identically at every node.
	Sub uint32
	// RingID identifies the ring configuration the message was ordered
	// in.
	RingID uint64
	// Sender is the node that originated the message.
	Sender memnet.NodeID
	// Payload is the application payload: a cap-clipped subslice of the
	// received datagram, read-only and possibly shared with other ring
	// members (see Transport). What outlives the delivery is kept
	// read-only: by reference for a bounded time, or, if Sole, for as
	// long as the keeper likes; otherwise copied (DESIGN.md section 7).
	Payload []byte
	// Sole reports that Payload is the only message of its datagram, not
	// a part of a pack: the datagram is its sender's buffer, so keeping
	// it pins one totem header besides and whatever that buffer pins — a
	// replica's response the chunk of responses it was carved from, 4 KiB
	// at most (DESIGN.md section 7) — and it may be kept by reference for
	// as long as a keeper bounded by count likes, read-only and shared as
	// it is; a part pins the whole pack.
	Sole bool
}

// subTimestampBits is how far Seq is shifted when folding Sub into a
// single ordered timestamp; maxPackCount stays below 1<<subTimestampBits.
const subTimestampBits = 16

const (
	// maxBurst bounds how many queued messages one token visit may
	// broadcast, so one busy member cannot hold the ring.
	maxBurst = 64
	// maxPackCount bounds how many payloads one packed message carries.
	maxPackCount = 32
	// maxPackBytes bounds the payload bytes of one packed message, so a
	// pack fits one datagram on real transports (udpnet reassembles up to
	// 64 KiB). A payload larger than the bound is never packed; it travels
	// alone as a plain regular message.
	maxPackBytes = 32 << 10
	// lagLimit bounds, in sequence numbers, how far the sequencer may run
	// ahead of the stability horizon before it demotes the ring back to
	// token rotation (leader mode's backlog-imbalance escape: a follower
	// that cannot keep up would otherwise force unbounded buffering
	// everywhere).
	lagLimit = 4096
)

// Timestamp folds (Seq, Sub) into one uint64 that is unique, strictly
// increasing in delivery order, and identical at every node: the
// "timestamp derived from the totally-ordered message sequence numbers"
// that the paper's operation identifiers are built from (section 3.3).
func (d Delivery) Timestamp() uint64 {
	return d.Seq<<subTimestampBits | uint64(d.Sub)
}

// ConfigChange reports a membership change: this member has read the
// decided commit of a new ring, which says who is in it and whose history
// it keeps, and installed it. Nothing the ring delivers precedes it.
type ConfigChange struct {
	RingID  uint64
	Members []memnet.NodeID
	// Continues is the ring's one verdict on this member: the history the
	// ring goes on from is the one it holds, so what it derived from its
	// deliveries stands. False, it was elsewhere while that history was
	// made (DESIGN.md section 5) and rebuilds from a member that was not;
	// every ring has one, but a founding ring, which all continue.
	Continues bool
	// Primary reports that the ring holds most of the configured
	// processors: later rings keep the latest such ring's history
	// (DESIGN.md section 5), so only a primary ring acts on its deliveries.
	Primary bool
}

// Transport carries the ring's datagrams: unordered, unreliable,
// broadcast-capable (with self-delivery), exactly the service a LAN
// offers the original Totem. memnet.Endpoint implements it for the
// simulated network; udpnet.Endpoint implements it over real UDP.
//
// Ownership of datagram bytes (the one rule of the datapath, DESIGN.md
// section 7): a received Packet.Payload belongs to its receivers. The
// node decodes it in place — every Delivery.Payload is a subslice of it
// — and keeps it for as long as a delivered or buffered message refers
// to it, so a transport must never reuse or write to a payload it has
// handed out. The bytes are immutable for everyone, the sender included,
// from the moment Broadcast returns, and may be shared between
// receivers (memnet hands all of them the sender's slice; udpnet gives
// each its own copy off the socket).
type Transport interface {
	// ID is the local node's identity on the network.
	ID() memnet.NodeID
	// Recv returns the incoming datagram stream.
	Recv() <-chan memnet.Packet
	// Broadcast sends a datagram to every node, including the sender.
	// The caller must not modify payload afterwards. The transport
	// retains it only while it is in transit — queued to be sent, or in
	// an inbox until its receiver takes it — so a datagram nobody
	// received into a message is garbage once delivered: a core carves
	// the datagrams that carry no payload out of shared chunks, and a
	// transport that kept one would keep its whole chunk.
	Broadcast(payload []byte) error
	// MaxDatagram is the longest datagram Broadcast can carry, zero when
	// there is no limit. A message that could not travel is refused where
	// it is submitted (ErrTooLarge): once ordered it would be retransmitted
	// for ever.
	MaxDatagram() int
}

// OrderingMode selects how a ring totally orders messages.
type OrderingMode int

const (
	// OrderingRing is the classic Totem rotation: only the circulating
	// token's holder broadcasts, so a submission waits for the token to
	// come around. Latency is bounded below by the rotation time, but no
	// single node is on the datapath of every message.
	OrderingRing OrderingMode = iota
	// OrderingLeader enables the leader-ordered fast path (in the style
	// of LLFT's leader-follower ordering): once a ring is installed and
	// quiescent, the current token holder promotes itself to sequencer
	// and retires the token. The rotation that installs a ring orders
	// nothing, so a ring that owes no recovery is promoted at its first
	// plain visit, and what was submitted meanwhile is the sequencer's to
	// order. Nodes forward pending payloads to the
	// sequencer immediately; it assigns sequence numbers and multicasts
	// ordered batches, while followers ack so the sequencer advances a
	// stability horizon replacing the token-carried aru. Leader failure
	// or an unbounded stability lag demotes the ring cleanly back to
	// token rotation (the membership-recovery protocol), from which a
	// fresh promotion can follow. The total-order, gap-recovery and
	// virtual-synchrony guarantees are identical in both modes.
	OrderingLeader
)

// Config parameterizes a Node.
type Config struct {
	// ID is this node's identity; it must match the endpoint's.
	ID memnet.NodeID
	// Endpoint is the node's attachment to the network.
	Endpoint Transport
	// Members is the initial ring membership, including this node.
	// All founding members must be configured with the same list.
	Members []memnet.NodeID

	// IdleHold is how long an idle token holder waits before forwarding
	// the token, throttling rotation when there is no traffic. Leader
	// mode reads it too: a follower acknowledges IdleHold/2 after what
	// it delivered (Core.ackDelay), and a parked reference whose nak is
	// due waits on in steps of IdleHold/2 while the transport has input
	// queued, at most TokenRetransmit longer (Core.refWait). Zero means
	// the default of 200 microseconds.
	IdleHold time.Duration
	// TokenRetransmit is how long the previous holder waits for evidence
	// of progress before resending the token. Zero means 25ms.
	TokenRetransmit time.Duration
	// FailTimeout is how long a node tolerates not seeing the token (or
	// any ring traffic) before starting membership recovery, and half of
	// it how long a gather waits for its commit. Zero means 250ms.
	FailTimeout time.Duration
	// GatherTimeout is the fallback end of membership recovery: how long
	// the candidate set must be stable before it is sent round as a commit
	// when it has not reached full-house consensus — every configured
	// processor in the set, and each having sent a join for exactly that
	// set, which ends the gather at once. It is how a silent processor is
	// declared failed. Zero means 60ms.
	GatherTimeout time.Duration

	// Ordering selects the total-order mechanism: the token ring
	// (default) or the leader-ordered fast path. All members must
	// configure the same value; every ring starts with its token
	// rotating and promotes a sequencer once installed and quiescent —
	// at its first plain visit when it owes no recovery — so mixed
	// settings degrade to whichever nodes refuse to adopt (and then to a
	// membership change), not to an ordering violation.
	Ordering OrderingMode

	// Metrics, when set, exposes the node's protocol counters on the
	// registry, labelled node=<ID>. The protocol goroutine keeps its
	// bare atomic counters; the registry reads them only at scrape time.
	Metrics *obs.Registry
}

func (c *Config) applyDefaults() {
	if c.IdleHold == 0 {
		c.IdleHold = 200 * time.Microsecond
	}
	if c.TokenRetransmit == 0 {
		c.TokenRetransmit = 25 * time.Millisecond
	}
	if c.FailTimeout == 0 {
		c.FailTimeout = 250 * time.Millisecond
	}
	if c.GatherTimeout == 0 {
		c.GatherTimeout = 60 * time.Millisecond
	}
}

// Stats is a snapshot of a node's protocol counters.
type Stats struct {
	Broadcast     uint64 // regular datagrams this node originated (a pack counts once)
	Delivered     uint64 // application payloads delivered in total order
	Retransmitted uint64 // retransmissions this node served
	Skipped       uint64 // sequence numbers declared unrecoverable
	Resumed       uint64 // times this node resumed at the horizon of a history it was not in
	TokenPasses   uint64 // tokens this node forwarded
	Reconfigs     uint64 // ring installations
	Gathers       uint64 // membership recoveries begun; those beyond Reconfigs were abandoned at the commit
	PackedMsgs    uint64 // packed datagrams this node originated
	PackedParts   uint64 // payloads that travelled inside those packs
	Forwarded     uint64 // payloads this node forwarded to a sequencer (leader mode)
	LeaderBatches uint64 // sequence numbers this node ordered as sequencer (full and by-reference batches)
	RefBatches    uint64 // of those, the ones ordered by reference (no payloads on the wire)
	RefMisses     uint64 // by-reference batches this node had to have retransmitted in full
	Promotions    uint64 // leader epochs this node installed (as sequencer or follower)
	Demotions     uint64 // falls from leader mode back to ring rotation
	StabilityLag  uint64 // sequencer's current seq minus its stability horizon
	FramedInPlace uint64 // payload-bearing datagrams framed in the buffer their one payload was submitted in
	FramedByCopy  uint64 // those built by copying payloads: packs, retransmissions, a payload sent a second time
}
