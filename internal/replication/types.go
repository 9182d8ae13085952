// Package replication implements the Eternal Replication Mechanisms: the
// component of the fault tolerance infrastructure that maintains strongly
// consistent object replication on top of the Totem totally-ordered
// multicast (paper section 2.2).
//
// It provides object groups with five replication styles (stateless, cold
// passive, warm passive, active, active-with-voting), detection and
// suppression of duplicate invocations and duplicate responses using the
// operation identifiers of paper section 3.3 / figure 6, support for
// nested invocations, deterministic primary election, and state transfer
// to new and recovering replicas.
package replication

import (
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/orb"
	"eternalgw/internal/totem"
)

// GroupID is the unique object-group identifier that addresses a
// replicated object inside a fault tolerance domain. Replicas of an
// object are contacted by multicasting to the object's group identifier,
// never through TCP/IP (paper section 3).
type GroupID uint32

// Style is the replication style of an object group, matching the
// user-specified fault tolerance properties listed in paper section 2.
type Style uint8

// Replication styles.
const (
	// Stateless replicas hold no state; any replica may execute any
	// invocation independently.
	Stateless Style = iota + 1
	// ColdPassive keeps backups idle: only the primary executes; backups
	// log its checkpoints and the invocation stream, and load the newest
	// checkpoint (topped up with the replayed invocations) on failover.
	ColdPassive
	// WarmPassive is ColdPassive with the backups kept loaded: they apply
	// each checkpoint as it arrives, and the primary sends them more often
	// (WarmSyncInterval against CheckpointInterval).
	WarmPassive
	// Active replication executes every invocation at every replica;
	// duplicate responses are suppressed downstream.
	Active
	// ActiveWithVoting executes everywhere and the invoker accepts a
	// result only when a majority of replicas return identical bytes.
	ActiveWithVoting
)

// passive reports whether only the group's primary executes, the other
// members following through checkpoints and the logged invocation stream.
func (s Style) passive() bool { return s == WarmPassive || s == ColdPassive }

// String returns the conventional name of the style.
func (s Style) String() string {
	switch s {
	case Stateless:
		return "stateless"
	case ColdPassive:
		return "cold-passive"
	case WarmPassive:
		return "warm-passive"
	case Active:
		return "active"
	case ActiveWithVoting:
		return "active-with-voting"
	default:
		return "unknown"
	}
}

// OperationID uniquely identifies one operation (an invocation-response
// pair), exactly as in figure 6 of the paper: ParentTS is the timestamp
// (Totem sequence number) of the message that carried the invocation the
// issuing group was executing when it issued this operation, and ChildSeq
// is this operation's index in the issuer's sequence of invocations. The
// operation identifier is determined identically at every replica of the
// issuing group, which is what makes duplicate detection possible.
type OperationID struct {
	ParentTS uint64
	ChildSeq uint32
}

// InvocationID is the full identifier of an invocation message:
// (T_B_inv, (T_A_inv, S_A_inv)). The timestamp is filled in at the
// receiving end from the totally-ordered sequence number.
type InvocationID struct {
	Timestamp uint64
	Op        OperationID
}

// ResponseID is the full identifier of a response message:
// (T_B_res, (T_A_inv, S_A_inv)). It shares the operation identifier with
// its invocation.
type ResponseID struct {
	Timestamp uint64
	Op        OperationID
}

// View is a numbered membership view of an object group. Every
// membership change — create, join, leave, eviction, failure — is
// delivered through the total order (or, for processor failures, at the
// single point where the new ring is installed), so every surviving
// member increments the view number at the same place in the message
// stream and the (Number, Members) pair is identical domain-wide.
type View struct {
	// Number counts membership changes since the group was created; the
	// creation itself is view 1.
	Number uint64
	// Seq is the total-order position at which this view was installed:
	// the totem timestamp of the membership message, or the ring
	// identifier for failure-driven changes.
	Seq uint64
	// Members is the view's membership in join order; Members[0] is the
	// primary of passive groups and the state-transfer donor.
	Members []memnet.NodeID
}

// UnusedClientID is the TCP client identifier carried by messages
// exchanged between replicated objects within the fault tolerance domain
// ("some unused value" in figure 4c).
const UnusedClientID uint64 = 0

// Application is the interface a replicated object implements: servant
// dispatch plus state capture and restoration for checkpointing and
// state transfer. Implementations must be deterministic: identical state
// and identical invocation streams must produce identical behaviour at
// every replica.
//
// Invoke writes its result, through the writer it is handed, into the
// datagram the response is multicast in (DESIGN.md section 7): once it
// returns, the writer and reply.Bytes() are totem's, and it keeps neither.
type Application interface {
	orb.Servant
	// State captures the full application state.
	State() ([]byte, error)
	// SetState replaces the application state.
	SetState(state []byte) error
}

// Config parameterizes the replication mechanisms on one node.
type Config struct {
	// Node is the Totem node whose event stream these mechanisms consume.
	Node *totem.Node
	// NodeID is this node's identity (defaults to Node.ID()).
	NodeID memnet.NodeID
	// WarmSyncInterval is the number of executed operations between the
	// checkpoints a warm-passive primary cuts and sends its backups. Zero
	// means 8.
	WarmSyncInterval int
	// CheckpointInterval is the same for a cold-passive primary, and the
	// number of operations between the local checkpoints of every other
	// style. Zero means 32.
	CheckpointInterval int
	// InvokeTimeout bounds waiting for a response. Zero means 10s.
	InvokeTimeout time.Duration
	// QuorumOf, when non-zero, enables majority-partition protection:
	// while the totem ring holds fewer than QuorumOf/2+1 of the domain's
	// processors, this node refuses to execute or issue invocations, so
	// a minority partition cannot diverge from the majority (the
	// partitionable-operation discipline of the Eternal papers, reference
	// [6] of the paper). Zero disables the check: every partition
	// component keeps serving, and reconciliation is the application's
	// concern.
	QuorumOf int
	// Metrics, when set, receives the mechanisms' counters and the
	// dedup-cache occupancy gauge, labelled with this node's id.
	Metrics *obs.Registry
	// Tracer, when set, records span events at total-order delivery,
	// replica execution and duplicate suppression. Nil — the default —
	// disables tracing; the datapath then pays one nil check per hop.
	Tracer *obs.Tracer
}

func (c *Config) applyDefaults() {
	if c.NodeID == "" && c.Node != nil {
		c.NodeID = c.Node.ID()
	}
	if c.WarmSyncInterval == 0 {
		c.WarmSyncInterval = 8
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 32
	}
	if c.InvokeTimeout == 0 {
		c.InvokeTimeout = 10 * time.Second
	}
}

// Stats snapshots the mechanisms' counters. The duplicate-suppression
// counters are the quantities the paper's gateway discussion revolves
// around (sections 3.2-3.3).
type Stats struct {
	InvocationsSent      uint64
	InvocationsExecuted  uint64
	DuplicateInvocations uint64 // dedup hits: detected and suppressed
	DedupMisses          uint64 // executions that were not duplicates
	ResponsesSent        uint64
	ResponsesDelivered   uint64
	DuplicateResponses   uint64 // detected and suppressed
	// ResponsesDiscardedEarly is the subset of DuplicateResponses
	// dropped from the header peek alone, without payload decode.
	ResponsesDiscardedEarly uint64
	// DuplicatesBeyondWindow is the subset of DuplicateInvocations that met
	// the operation's identifier without its response and were answered
	// with REPLY_DISCARDED.
	DuplicatesBeyondWindow uint64
	// RepliesTooLarge counts the responses no datagram of the transport
	// could carry, answered with IMP_LIMIT, COMPLETED_YES in their place.
	RepliesTooLarge uint64
	// StateTransfers counts recovery images donated to joiners.
	StateTransfers uint64
	// StateSyncs and Checkpoints count the checkpoints a warm-passive and
	// a cold-passive primary cut and multicast to its backups;
	// CatchupCheckpoints counts those cut into the local log only (per
	// interval by replicas of the other styles, on demand by a donor that
	// has none yet). Every cut lands in exactly one of the three.
	StateSyncs          uint64
	Checkpoints         uint64
	CatchupCheckpoints  uint64
	Failovers           uint64
	ReplayedInvocations uint64
	// ViewChanges counts group membership views installed at this node
	// (joins, leaves, evictions, failure-driven removals).
	ViewChanges uint64
	// TransferEntriesReplayed counts logged invocations replayed by
	// joining replicas catching up from a donated checkpoint.
	TransferEntriesReplayed uint64
	// MembershipSyncs counts the directory snapshots this node adopted;
	// DirectoryAwaiting says it is waiting for one now — its directory is
	// another history's than the one its ring keeps, and lookups answer
	// from it only until a member that continues that history has served
	// it. One that stays set has nobody in its ring to be served by.
	MembershipSyncs   uint64
	DirectoryAwaiting bool
	// ClientsDeparted counts departed-client notifications processed as
	// a member of the gateway group they were addressed to.
	ClientsDeparted uint64
}

// traceKey derives the obs trace key of a message: the paper's
// operation identifier plus the client identifier, identical at every
// replica, so span events emitted on different nodes join one trace.
func traceKey(h Header) obs.TraceKey {
	return obs.TraceKey{ClientID: h.ClientID, ParentTS: h.Op.ParentTS, ChildSeq: h.Op.ChildSeq}
}
