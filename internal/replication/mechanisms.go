package replication

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/giop"
	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/orb"
	"eternalgw/internal/totem"
)

// Errors reported by the mechanisms.
var (
	ErrNoQuorum      = errors.New("replication: node's ring holds no majority of the domain's processors")
	ErrStopped       = errors.New("replication: mechanisms stopped")
	ErrNoSuchGroup   = errors.New("replication: no such group")
	ErrGroupExists   = errors.New("replication: group already exists")
	ErrNotMember     = errors.New("replication: node is not a member")
	ErrAlreadyMember = errors.New("replication: node already a member")
	ErrTimeout       = errors.New("replication: timed out")
	ErrNoAgreement   = errors.New("replication: voting replicas disagree")
)

// groupState is the directory entry for one object group. It is mutated
// only by the event loop, under mu for the benefit of concurrent readers.
type groupState struct {
	id        GroupID
	style     Style
	objectKey string
	// members lists hosting nodes in join order; members[0] is the
	// primary of passive groups and the state-transfer donor.
	members []memnet.NodeID
	// local is this node's replica runtime, if the node is a member.
	local *replica
	// pendingJoins is the set of joiners still awaiting state transfer;
	// true once this node, as their donor, has queued the capture.
	pendingJoins map[memnet.NodeID]bool
	// view numbers this group's membership views; viewSeq is the
	// total-order position the current view was installed at. Both are
	// bumped by the event loop at every membership change, so all members
	// agree on (view, members) at every point in the message stream.
	view    uint64
	viewSeq uint64
}

func (g *groupState) isMember(id memnet.NodeID) bool {
	for _, m := range g.members {
		if m == id {
			return true
		}
	}
	return false
}

func (g *groupState) removeMember(id memnet.NodeID) {
	kept := g.members[:0]
	for _, m := range g.members {
		if m != id {
			kept = append(kept, m)
		}
	}
	g.members = kept
}

// pendingCall is one invocation awaiting its response(s). The fields
// below ch are mutated only by the event loop, under the call's pending
// shard lock. Calls and their channels are reused (acquireCall).
type pendingCall struct {
	ch chan pendingResult
	// next is the next call awaiting the same operation: the rare second
	// waiter (pendingShard.calls).
	next *pendingCall
	// votesNeeded is zero for first-response delivery; otherwise the
	// number of identical results required (active-with-voting).
	votesNeeded int
	votes       map[string]int
	responded   map[memnet.NodeID]bool
	expected    int // group size at invocation time (voting)
}

// pendingResult is what the event loop hands a pending waiter: either
// the raw encapsulated IIOP reply (the common first-response path, where
// the waiter decodes it off the event loop) or an already-decoded reply
// (the voting path, which must decode on the loop to compare result
// bytes across replicas). raw aliases the delivery buffer, and so does
// the Result of the reply decoded from it — in both cases the borrow
// passes to Invoke's caller, who reads the reply and lets it go.
type pendingResult struct {
	rep giop.Reply
	raw []byte
}

// Mechanisms is the per-node replication engine. Create with New, stop
// with Stop.
type Mechanisms struct {
	node *totem.Node
	id   memnet.NodeID // node.ID()
	room int           // node.Headroom(): what every multicast is encoded behind
	// ceiling is node.Ceiling(): the longest encoded multicast, room
	// included, that totem takes; zero for any.
	ceiling int
	tracer  *obs.Tracer // nil when tracing is disabled
	// responseHop is the hop a duplicate response discarded early is
	// traced at, built once: building it per discard allocated whether or
	// not a tracer was set.
	responseHop string

	stop chan struct{}
	done chan struct{}

	// mu guards the group directory. Only the event loop takes the write
	// lock (directory mutations are delivered in total order); the
	// invocation datapath takes read locks, so concurrent Invokes and
	// response deliveries do not serialize behind membership changes.
	mu     sync.RWMutex
	groups map[GroupID]*groupState
	byKey  map[string]GroupID
	// prearmed holds applications registered by Arm, installed when a
	// delta adding this node is delivered in total order.
	prearmed map[GroupID]Application
	// ring is the membership of the ring the loop's deliveries are in: the
	// latest ring change it took in, or, while it replays what it held, the
	// ring of the event replayed. Loop-owned, under mu.
	ring      []memnet.NodeID
	observers map[GroupID]Observer
	changed   chan struct{} // closed and replaced on directory change

	// awaiting marks the directory as another history's than the one the
	// ring keeps (handleConfig); held is what the loop was delivered since
	// that the directory it adopts must still see, in order. Loop-owned,
	// under mu.
	awaiting atomic.Bool
	held     []heldEvent
	// primary is the latest ring's ConfigChange.Primary, true before the
	// first: outside a primary ring nothing is executed (replica executors
	// wait, awaitPrimary) or invoked. Written under mu.
	primary atomic.Bool

	// pending is the sharded pending-call and answered-operation table,
	// outside mu entirely: response delivery, Invoke registration and a
	// gateway's record lookup meet only on a shard lock.
	pending *pendingTable

	stopOnce sync.Once
	// wg tracks goroutines the event loop hands blocking work to (send);
	// Stop waits for them so no multicast fires after the caller assumes
	// quiescence.
	wg sync.WaitGroup

	invocationsSent      atomic.Uint64
	invocationsExecuted  atomic.Uint64
	duplicateInvocations atomic.Uint64
	dedupMisses          atomic.Uint64
	responsesSent        atomic.Uint64
	responsesDelivered   atomic.Uint64
	duplicateResponses   atomic.Uint64
	// responsesDiscardedEarly counts the subset of duplicate responses
	// dropped from the header peek alone, without payload decode.
	responsesDiscardedEarly atomic.Uint64
	// duplicatesBeyondWindow counts the subset of duplicate invocations
	// that met a bare identifier and were answered with REPLY_DISCARDED.
	duplicatesBeyondWindow atomic.Uint64
	// repliesTooLarge counts the responses replaced by an IMP_LIMIT
	// exception because no datagram of the transport could carry them.
	repliesTooLarge         atomic.Uint64
	stateTransfers          atomic.Uint64
	stateSyncs              atomic.Uint64
	checkpoints             atomic.Uint64
	failovers               atomic.Uint64
	replayedInvocations     atomic.Uint64
	viewChanges             atomic.Uint64
	transferEntriesReplayed atomic.Uint64
	catchupCheckpoints      atomic.Uint64
	membershipSyncs         atomic.Uint64
	clientsDeparted         atomic.Uint64
}

// New creates the replication mechanisms over a running totem node and
// starts consuming its event stream.
func New(cfg Config) (*Mechanisms, error) {
	if cfg.Node == nil {
		return nil, errors.New("replication: config needs a totem node")
	}
	m := &Mechanisms{
		node:        cfg.Node,
		id:          cfg.Node.ID(),
		room:        cfg.Node.Headroom(),
		ceiling:     cfg.Node.Ceiling(),
		tracer:      cfg.Tracer,
		responseHop: string(cfg.Node.ID()) + "/response",
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
		groups:      make(map[GroupID]*groupState),
		byKey:       make(map[string]GroupID),
		prearmed:    make(map[GroupID]Application),
		observers:   make(map[GroupID]Observer),
		pending:     newPendingTable(answeredCapacity, ReplyWindow),
		changed:     make(chan struct{}),
	}
	m.primary.Store(true) // an invoke before the first ring queues for it
	m.registerMetrics(cfg.Metrics)
	go m.run()
	return m, nil
}

// registerMetrics publishes the mechanisms' counters on the registry,
// labelled with this node's identity. The datapath keeps its bare
// atomic increments; the registry reads only at scrape time.
func (m *Mechanisms) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lbl := obs.Labels{"node": string(m.id)}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"eternalgw_replication_invocations_sent_total", "Invocations multicast by this node.", m.invocationsSent.Load},
		{"eternalgw_replication_invocations_executed_total", "Invocations executed by local replicas.", m.invocationsExecuted.Load},
		{"eternalgw_replication_duplicate_invocations_total", "Duplicate invocations detected and suppressed (dedup hits).", m.duplicateInvocations.Load},
		{"eternalgw_replication_duplicates_beyond_window_total", "Duplicate invocations that met the operation's identifier without its response (stripped by the reply window, or run by a primary since lost) and were answered with REPLY_DISCARDED, not executed.", m.duplicatesBeyondWindow.Load},
		{"eternalgw_replication_replies_too_large_total", "Responses longer than one datagram of the transport carries, answered with IMP_LIMIT, COMPLETED_YES in their place.", m.repliesTooLarge.Load},
		{"eternalgw_replication_dedup_misses_total", "Executed invocations that were not duplicates (dedup misses).", m.dedupMisses.Load},
		{"eternalgw_replication_responses_sent_total", "Responses multicast by local replicas.", m.responsesSent.Load},
		{"eternalgw_replication_responses_delivered_total", "Responses delivered to local pending invocations.", m.responsesDelivered.Load},
		{"eternalgw_replication_duplicate_responses_total", "Duplicate responses detected and suppressed.", m.duplicateResponses.Load},
		{"eternalgw_replication_responses_discarded_early_total", "Duplicate responses discarded from the header peek, without payload decode.", m.responsesDiscardedEarly.Load},
		{"eternalgw_replication_state_transfers_total", "State transfers donated: the donor's checkpoint plus its log suffix.", m.stateTransfers.Load},
		{"eternalgw_replication_state_syncs_total", "Warm-passive checkpoints cut and multicast to the backups.", m.stateSyncs.Load},
		{"eternalgw_replication_checkpoints_total", "Cold-passive checkpoints cut and multicast to the backups.", m.checkpoints.Load},
		{"eternalgw_replication_failovers_total", "Passive-group failovers performed.", m.failovers.Load},
		{"eternalgw_replication_replayed_invocations_total", "Invocations re-executed during failover.", m.replayedInvocations.Load},
		{"eternalgw_replication_view_changes_total", "Group membership views installed (joins, leaves, evictions, failures).", m.viewChanges.Load},
		{"eternalgw_replication_transfer_entries_replayed_total", "Logged invocations replayed by joining replicas catching up from a checkpoint.", m.transferEntriesReplayed.Load},
		{"eternalgw_replication_catchup_checkpoints_total", "Checkpoints cut into the local log only: per interval by the executing styles, on demand by a donor that has none.", m.catchupCheckpoints.Load},
		{"eternalgw_replication_membership_syncs_total", "Directory snapshots this node adopted while its directory was awaiting (after a ring merge, or joining a running domain).", m.membershipSyncs.Load},
	} {
		reg.CounterFunc(c.name, c.help, lbl, c.fn)
	}
	reg.GaugeFunc("eternalgw_replication_dedup_cache_entries", "Operation identifiers held for duplicate detection, all local replicas.", lbl, func() float64 {
		return float64(m.dedupTotal().Entries)
	})
	reg.GaugeFunc("eternalgw_replication_dedup_cache_bytes", "Response bytes held among those identifiers, all local replicas; each replica's share is bounded by the reply window.", lbl, func() float64 {
		return float64(m.dedupTotal().ReplyBytes)
	})
	reg.GaugeFunc("eternalgw_replication_pending_calls", "Invocations registered and awaiting responses on this node.", lbl, func() float64 {
		return float64(m.PendingCalls())
	})
	reg.GaugeFunc("eternalgw_replication_directory_awaiting", "1 while this node's group directory is another history's than the one its ring keeps and no snapshot has been adopted; staying 1 means no member that could answer is in the ring.", lbl, func() float64 {
		if m.awaiting.Load() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("eternalgw_replication_backpressure", "Domain-side load signal in [0,1]: max of totem send backlog and pending-call occupancy against their windows.", lbl, m.Backpressure)
}

// PendingCalls reports how many invocations this node has registered and
// not yet resolved (responses outstanding toward the domain).
func (m *Mechanisms) PendingCalls() int {
	return m.pending.occupancy()
}

// backpressureWindow is the pending-call occupancy at which the
// Backpressure signal saturates to 1.0 — how many invocations this node
// can comfortably have in flight toward the domain before a gateway
// should start shedding at its edge.
const backpressureWindow = 1024

// Backpressure is the domain-side load signal in [0, 1] that admission
// breakers sample: the worse of (a) the totem send backlog against the
// submission queue's capacity — ordered multicasts waiting for a token
// visit — and (b) the pending-call occupancy against
// backpressureWindow — invocations conveyed but unanswered. Either one
// saturating means the domain is falling behind this node's offered
// load, which an edge gateway should stop accepting.
func (m *Mechanisms) Backpressure() float64 {
	var sig float64
	if queued, capacity := m.node.Backlog(); capacity > 0 {
		sig = float64(queued) / float64(capacity)
	}
	if p := float64(m.PendingCalls()) / backpressureWindow; p > sig {
		sig = p
	}
	if sig > 1 {
		sig = 1
	}
	return sig
}

// DedupUsage is what one replica's operation table holds: identifiers,
// and the bytes of the responses kept among them.
type DedupUsage struct {
	Entries, ReplyBytes int
}

// DedupOccupancy reports, per group with a local servant replica, what
// the replica's operation table currently holds (the /statusz dedup
// section and the two dedup-cache gauges read this).
func (m *Mechanisms) DedupOccupancy() map[GroupID]DedupUsage {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make(map[GroupID]DedupUsage)
	for id, g := range m.groups {
		if g.local != nil && g.local.app != nil {
			out[id] = DedupUsage{Entries: int(g.local.opsLen.Load()), ReplyBytes: int(g.local.opsBytes.Load())}
		}
	}
	return out
}

// dedupTotal is DedupOccupancy summed over the local replicas.
func (m *Mechanisms) dedupTotal() (total DedupUsage) {
	for _, u := range m.DedupOccupancy() {
		total.Entries += u.Entries
		total.ReplyBytes += u.ReplyBytes
	}
	return total
}

// NodeID returns the identity of the node these mechanisms run on.
func (m *Mechanisms) NodeID() memnet.NodeID { return m.id }

// Stop shuts down the event loop and all replica executors, then waits
// for any in-flight handoff goroutines (totem.Multicast unblocks them
// once the node stops, so the wait terminates on every shutdown path).
func (m *Mechanisms) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
	m.wg.Wait()
}

// Stats snapshots the counters.
func (m *Mechanisms) Stats() Stats {
	return Stats{
		InvocationsSent:         m.invocationsSent.Load(),
		InvocationsExecuted:     m.invocationsExecuted.Load(),
		DuplicateInvocations:    m.duplicateInvocations.Load(),
		DuplicatesBeyondWindow:  m.duplicatesBeyondWindow.Load(),
		RepliesTooLarge:         m.repliesTooLarge.Load(),
		DedupMisses:             m.dedupMisses.Load(),
		ResponsesSent:           m.responsesSent.Load(),
		ResponsesDelivered:      m.responsesDelivered.Load(),
		DuplicateResponses:      m.duplicateResponses.Load(),
		ResponsesDiscardedEarly: m.responsesDiscardedEarly.Load(),
		StateTransfers:          m.stateTransfers.Load(),
		StateSyncs:              m.stateSyncs.Load(),
		Checkpoints:             m.checkpoints.Load(),
		Failovers:               m.failovers.Load(),
		ReplayedInvocations:     m.replayedInvocations.Load(),
		ViewChanges:             m.viewChanges.Load(),
		TransferEntriesReplayed: m.transferEntriesReplayed.Load(),
		CatchupCheckpoints:      m.catchupCheckpoints.Load(),
		MembershipSyncs:         m.membershipSyncs.Load(),
		DirectoryAwaiting:       m.awaiting.Load(),
		ClientsDeparted:         m.clientsDeparted.Load(),
	}
}

// --- group administration -------------------------------------------------

// CreateGroup announces a new object group. The announcement is ordered
// by totem; use WaitForGroup to synchronize. Creating an existing group
// id is a delivered no-op, so concurrent creators agree on the first.
func (m *Mechanisms) CreateGroup(id GroupID, style Style, objectKey []byte) error {
	return m.multicast(Message{
		Header:  Header{Kind: KindCreateGroup, ClientID: UnusedClientID, DstGroup: id},
		Payload: encodeCreateGroup(createGroupPayload{Style: style, ObjectKey: objectKey}),
	})
}

// JoinGroup adds a replica of the group on this node, hosting app. A nil
// app joins as a client-only member (how gateways join the gateway
// group): it can invoke through the group and receive responses but
// hosts no servant. Use WaitSynced to block until the replica has
// received its state transfer and is live.
func (m *Mechanisms) JoinGroup(id GroupID, app Application) error {
	if err := m.Arm(id, app); err != nil {
		return err
	}
	return m.AddMembers(id, m.id)
}

// Arm registers app as this node's replica of the group, installed when a
// membership delta that adds this node is delivered in total order. It
// sends nothing: JoinGroup sends this node's own delta, and the
// Replication Manager sends one delta for every replica a group is
// founded with (AddMembers).
func (m *Mechanisms) Arm(id GroupID, app Application) error {
	// An awaiting directory describes another history than the join is for.
	if err := m.waitCondition(invokeTimeout, func() bool { return !m.awaiting.Load() }); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.groups[id]
	if _, armed := m.prearmed[id]; (ok && g.local != nil) || armed {
		return fmt.Errorf("group %d on %s: %w", id, m.id, ErrAlreadyMember)
	}
	m.prearmed[id] = app
	return nil
}

// Disarm withdraws what Arm registered for the group and no delivered
// delta has installed: the replica of a founding that was never ordered,
// or of a founder that was not in the ring when it was.
func (m *Mechanisms) Disarm(id GroupID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.prearmed, id)
}

// AddMembers adds nodes to a group through one totally-ordered view
// change; each must have armed its replica first (Arm). Added to an empty
// group, they found it: every one is live at the delta's delivery and
// owed no state transfer (applyView).
func (m *Mechanisms) AddMembers(id GroupID, nodes ...memnet.NodeID) error {
	return m.changeView(id, viewChangePayload{Add: nodes})
}

// DeleteGroup retires the group across the whole domain: every node
// stops its local replica (if any) and removes the directory entry. The
// deletion is ordered by totem like every other membership change.
func (m *Mechanisms) DeleteGroup(id GroupID) error {
	return m.multicast(Message{
		Header: Header{Kind: KindDeleteGroup, ClientID: UnusedClientID, DstGroup: id},
	})
}

// LeaveGroup removes this node's replica from the group.
func (m *Mechanisms) LeaveGroup(id GroupID) error {
	return m.changeView(id, viewChangePayload{Remove: []memnet.NodeID{m.id}})
}

// changeView multicasts one membership delta of a group; it takes effect
// where the total order delivers it (applyView).
func (m *Mechanisms) changeView(id GroupID, delta viewChangePayload) error {
	return m.multicast(viewChange(id, delta))
}

// viewChange is the message that carries one membership delta of a group.
func viewChange(id GroupID, delta viewChangePayload) Message {
	return Message{
		Header:  Header{Kind: KindViewChange, ClientID: UnusedClientID, DstGroup: id},
		Payload: encodeViewChange(delta),
	}
}

// GroupByKey resolves a CORBA object key to its object group. This is
// the lookup the gateway performs on the object key embedded in each
// incoming IIOP request (paper section 3.1).
func (m *Mechanisms) GroupByKey(objectKey []byte) (GroupID, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	id, ok := m.byKey[string(objectKey)]
	return id, ok
}

// GroupStyle returns the replication style of a group.
func (m *Mechanisms) GroupStyle(id GroupID) (Style, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g, ok := m.groups[id]
	if !ok {
		return 0, false
	}
	return g.style, true
}

// Members returns a group's hosting nodes in join order (index 0 is the
// primary of passive groups).
func (m *Mechanisms) Members(id GroupID) []memnet.NodeID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g, ok := m.groups[id]
	if !ok {
		return nil
	}
	out := make([]memnet.NodeID, len(g.members))
	copy(out, g.members)
	return out
}

// View returns the group's current membership view.
func (m *Mechanisms) View(id GroupID) (View, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g, ok := m.groups[id]
	if !ok {
		return View{}, false
	}
	v := View{Number: g.view, Seq: g.viewSeq, Members: make([]memnet.NodeID, len(g.members))}
	copy(v.Members, g.members)
	return v, true
}

// Groups lists the identifiers of every object group in the directory.
func (m *Mechanisms) Groups() []GroupID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]GroupID, 0, len(m.groups))
	for id := range m.groups {
		out = append(out, id)
	}
	return out
}

// EvictMembers removes nodes from a group through one totally-ordered
// view change, without the evicted nodes' cooperation: the resource
// manager's shrink and replace operations use it to retire replicas
// (the cooperative exit is LeaveGroup). Evicting a non-member is a
// delivered no-op.
func (m *Mechanisms) EvictMembers(id GroupID, nodes ...memnet.NodeID) error {
	if len(nodes) == 0 {
		return nil
	}
	return m.changeView(id, viewChangePayload{Remove: nodes})
}

// WaitForView blocks until the group's view number reaches at least n.
func (m *Mechanisms) WaitForView(id GroupID, n uint64, timeout time.Duration) error {
	return m.waitCondition(timeout, func() bool {
		g, ok := m.groups[id]
		return ok && g.view >= n
	})
}

// waitCondition blocks until cond (evaluated under mu) holds.
func (m *Mechanisms) waitCondition(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		m.mu.RLock()
		ok := cond()
		ch := m.changed
		m.mu.RUnlock()
		if ok {
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return ErrTimeout
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
		case <-timer.C:
		case <-m.stop:
			timer.Stop()
			return ErrStopped
		}
		timer.Stop()
	}
}

// WaitForGroup blocks until the group exists.
func (m *Mechanisms) WaitForGroup(id GroupID, timeout time.Duration) error {
	return m.waitCondition(timeout, func() bool {
		_, ok := m.groups[id]
		return ok
	})
}

// WaitForMembers blocks until the group has at least n members.
func (m *Mechanisms) WaitForMembers(id GroupID, n int, timeout time.Duration) error {
	return m.waitCondition(timeout, func() bool {
		g, ok := m.groups[id]
		return ok && len(g.members) >= n
	})
}

// WaitSynced blocks until this node's replica of the group is live
// (joined, state transferred).
func (m *Mechanisms) WaitSynced(id GroupID, timeout time.Duration) error {
	return m.waitCondition(timeout, func() bool {
		g, ok := m.groups[id]
		return ok && g.local != nil && g.local.synced.Load()
	})
}

// notifyChanged wakes all condition waiters. Callers hold mu.
func (m *Mechanisms) notifyChanged() {
	close(m.changed)
	m.changed = make(chan struct{})
}

// --- invocation -----------------------------------------------------------

// Invoke multicasts an invocation of the dst group and waits for the
// response, suppressing duplicate responses by response identifier. src
// must be a group this node is a member of (responses are addressed to
// it). clientID carries the TCP client identifier when a gateway invokes
// on behalf of an external client, and UnusedClientID otherwise. op must
// be determined identically by every replica of the issuing group.
//
// The reply's Result is a read-only view of the datagram the response
// was delivered in (DESIGN.md section 7): the caller reads or re-encodes
// it and copies what it means to keep.
func (m *Mechanisms) Invoke(src GroupID, clientID uint64, dst GroupID, op OperationID, req giop.Request, timeout time.Duration) (giop.Reply, error) {
	h := invocationHeader(src, clientID, dst, op)
	enc, err := encodeRequest(m.room, h, req)
	if err != nil {
		return giop.Reply{}, err
	}
	return m.invoke(h, enc, timeout)
}

// InvokeFrame is Invoke for a request that lies framed in the buffer it
// was read into: frame is Headroom's room unwritten bytes and then the
// IIOP message whole, GIOP header first (giop.Message.Frame). The request
// is conveyed as it was read, in its sender's byte order and GIOP
// version, and the buffer is totem's from here on (DESIGN.md section 7):
// the caller may go on reading what it decoded from it and writes to
// nothing of it. Refused before anything is sent — no such group, a ring
// without a majority (ErrNoQuorum), totem.ErrTooLarge — the frame is
// still the caller's.
func (m *Mechanisms) InvokeFrame(src GroupID, clientID uint64, dst GroupID, op OperationID, frame []byte, timeout time.Duration) (giop.Reply, error) {
	h := invocationHeader(src, clientID, dst, op)
	enc, err := frameInvocation(m.room, h, frame)
	if err != nil {
		return giop.Reply{}, err
	}
	return m.invoke(h, enc, timeout)
}

// invocationHeader addresses an invocation of group dst on behalf of
// (src, clientID).
func invocationHeader(src GroupID, clientID uint64, dst GroupID, op OperationID) Header {
	return Header{Kind: KindInvocation, ClientID: clientID, SrcGroup: src, DstGroup: dst, Op: op}
}

// invoke registers a pending call for the invocation h, multicasts enc,
// its encoded form behind m.room, and waits for the response.
func (m *Mechanisms) invoke(h Header, enc []byte, timeout time.Duration) (giop.Reply, error) {
	if timeout == 0 {
		timeout = invokeTimeout
	}
	dst := h.DstGroup
	if !m.primary.Load() {
		return giop.Reply{}, fmt.Errorf("invoke group %d: %w", dst, ErrNoQuorum)
	}
	key := opKey{src: dst, clientID: h.ClientID, op: h.Op}

	m.mu.RLock()
	g, ok := m.groups[dst]
	if !ok {
		m.mu.RUnlock()
		return giop.Reply{}, fmt.Errorf("group %d: %w", dst, ErrNoSuchGroup)
	}
	style, groupSize := g.style, len(g.members)
	m.mu.RUnlock()
	call := acquireCall()
	if style == ActiveWithVoting {
		call.expected = groupSize
		call.votesNeeded = groupSize/2 + 1
		call.votes = make(map[string]int)
		call.responded = make(map[memnet.NodeID]bool)
	}
	m.pending.register(key, call)
	defer m.pending.unregister(key, call)

	if err := m.multicastEncoded(enc); err != nil {
		return giop.Reply{}, err
	}
	m.invocationsSent.Add(1)
	m.tracer.Event(traceKey(h), obs.StageMulticastSend, string(m.id))

	timer := orb.AcquireTimer(timeout)
	defer orb.ReleaseTimer(timer)
	select {
	case res := <-call.ch:
		if res.raw == nil {
			return res.rep, nil
		}
		// The common path: the event loop handed over the raw
		// encapsulated reply and this waiter — off the event loop —
		// decodes it. The reply's Result stays a view of the delivered
		// datagram (giop.DecodeReply): read-only, and the caller's for as
		// long as it holds the reply.
		wire, derr := giop.Unmarshal(res.raw)
		if derr != nil {
			return giop.Reply{}, fmt.Errorf("replication: decode response: %w", derr)
		}
		rep, derr := giop.DecodeReply(wire)
		if derr != nil {
			return giop.Reply{}, fmt.Errorf("replication: decode response: %w", derr)
		}
		return rep, nil
	case <-timer.C:
		return giop.Reply{}, fmt.Errorf("%w: op %v on group %d", ErrTimeout, h.Op, dst)
	case <-m.stop:
		return giop.Reply{}, ErrStopped
	}
}

// Headroom says how a request is to lie in its buffer for InvokeFrame and
// MulticastFrame to convey it from there: behind room unwritten bytes,
// and, where ceiling is not zero, in a buffer of at most ceiling bytes in
// all — what one datagram of this node's transport carries.
func (m *Mechanisms) Headroom() (room, ceiling int) { return m.room + headerLen, m.ceiling }

// multicast encodes a message and submits it to totem.
func (m *Mechanisms) multicast(msg Message) error {
	return m.multicastEncoded(encode(m.room, msg))
}

// multicastEncoded submits a message encoded behind m.room to totem,
// which keeps the buffer: the caller must not touch it afterwards.
func (m *Mechanisms) multicastEncoded(enc []byte) error {
	if err := m.node.MulticastFramed(enc); err != nil {
		return fmt.Errorf("replication: multicast: %w", err)
	}
	return nil
}

// MulticastRequest conveys an IIOP request into the domain as an
// invocation of group dst on behalf of (src, clientID), without waiting
// for a response: the whole of a one-way request, and the send half of
// Invoke.
func (m *Mechanisms) MulticastRequest(src GroupID, clientID uint64, dst GroupID, op OperationID, req giop.Request) error {
	enc, err := encodeRequest(m.room, invocationHeader(src, clientID, dst, op), req)
	if err != nil {
		return err
	}
	return m.multicastEncoded(enc)
}

// MulticastFrame is MulticastRequest for a request framed as InvokeFrame
// takes it.
func (m *Mechanisms) MulticastFrame(src GroupID, clientID uint64, dst GroupID, op OperationID, frame []byte) error {
	enc, err := frameInvocation(m.room, invocationHeader(src, clientID, dst, op), frame)
	if err != nil {
		return err
	}
	return m.multicastEncoded(enc)
}

// MulticastMessage multicasts an arbitrary infrastructure message into
// the domain. Gateways use it to tell the gateway group that a TCP
// client departed (paper section 3.5).
func (m *Mechanisms) MulticastMessage(msg Message) error {
	return m.multicast(msg)
}

// RecordedReply returns the gateway-group record's response to the
// operation a gateway would convey as Invoke(_, clientID, group, op, ...):
// the encapsulated IIOP reply of its first response, if this processor
// observed one as a client-only member of the group it was addressed to
// and still remembers it. Every gateway on the processor reads the one
// record (paper section 3.5). The bytes are shared and read-only.
func (m *Mechanisms) RecordedReply(group GroupID, clientID uint64, op OperationID) ([]byte, bool) {
	return m.pending.reply(opKey{src: group, clientID: clientID, op: op})
}

// RecordedReplies reports how many responses this processor holds in the
// gateway-group record, their bytes, and how many entries its
// answered-operation table holds in all (diagnostics and tests).
func (m *Mechanisms) RecordedReplies() (replies, replyBytes, answered int) {
	return m.pending.remembered()
}

// Observer receives the invocations addressed to an observed group, in
// total order, together with their delivery timestamps. Observers run on
// the event loop and must not block.
type Observer func(msg Message, ts uint64)

// SetObserver registers fn to observe every invocation delivered to the
// group while this node is a member. The event loop calls fn after
// releasing the directory lock: observers are foreign code, which under
// the lock would stretch the loop's critical section and hide lock-order
// edges from gwlint lockorder. The message payload aliases the delivery
// buffer; observers copy what they retain.
func (m *Mechanisms) SetObserver(group GroupID, fn Observer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observers[group] = fn
}
