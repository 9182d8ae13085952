package totem

// Leader-ordered fast path (Config.Ordering == OrderingLeader), in the
// style of LLFT's leader-follower ordering. Once a ring is installed and
// fully quiescent, the current token holder promotes itself to sequencer
// and retires the token. From then on the common path has no token wait:
// a node with pending payloads forwards them to the sequencer
// immediately (kindForward), the sequencer assigns the next sequence
// numbers and multicasts ordered batches (kindBatch, a leader header plus
// the packed wire form), and followers report their contiguous received
// watermark (kindAck) so the sequencer advances a stability horizon that
// replaces the token-carried aru for garbage collection and
// retransmission decisions. Promotion and each heartbeat are kindPromote.
//
// The transport only broadcasts, so a forward has put its payloads in
// front of every member by the time the sequencer orders it. Another
// member's forward is therefore ordered by reference: the batch carries
// the header alone and each member binds the sequence number to the
// forward it holds (epoch.held; the origin to its awaiting list). The
// payload-carrying batch is what the sequencer's own submissions and all
// retransmissions are, so a member that missed the forward recovers
// through the ordinary nak. A reference can overtake its forward (two
// senders, no order between them): it is parked, bound when the forward
// arrives, and nak'd only once that has had TokenRetransmit to show up.
//
// Failure handling is demotion: the sequencer demotes when a member's
// acks go stale past FailTimeout or when the stability lag exceeds
// FastpathLagLimit; a follower demotes when the sequencer's traffic
// stops (the ordinary fail timer) or when its forwards are resent
// maxFwdResends times without being ordered (a wedged-but-heartbeating
// sequencer). Demotion is simply membership recovery — startGather — so
// the token-regeneration path doubles as the fast path's recovery
// protocol, after which a fresh promotion can follow on the new ring.
//
// The mode switch is installed at an agreed sequence: promotion requires
// every assigned sequence number delivered at every member (stable ==
// seq == local aru, no outstanding requests or skips), so promoteSeq is
// exactly the boundary below which everything was token-ordered and
// above which everything is leader-ordered within the ring. Everything
// here is part of the core (core.go) and runs inside its steps.

import (
	"time"

	"eternalgw/internal/memnet"
)

const (
	// maxHeldFwds bounds the forwards held per origin (epoch.held); drops
	// beyond it are recovered by the origin's resend timer at the
	// sequencer and by nak at a follower. maxParkedRefs bounds the
	// references a follower parks; beyond it one is a gap like any other.
	maxHeldFwds   = 64
	maxParkedRefs = 64
	// maxFwdResends is how many times a follower resends an unordered
	// forward before declaring the sequencer wedged and demoting.
	maxFwdResends = 8
	// maxNaks bounds gap requests per ack datagram.
	maxNaks = 64
)

// epoch is the fast path's state for one sequencer's reign: one value,
// replaced wholesale on promotion, adoption and demotion. The zero value
// — no leader — is a ring that rotates its token; every table of it
// reads as empty.
type epoch struct {
	leader     memnet.NodeID // the installed sequencer
	promoteSeq uint64        // ring-ordered sequence the mode switch was installed at
	stable     uint64        // stability horizon: the sequencer's min aru over the ring, as followers learn it

	// held keeps the forwards this member has seen on the wire and not
	// yet seen ordered (the received datagram is the storage), per origin
	// and bounded by maxHeldFwds: the sequencer's out-of-order stash, and
	// what a follower binds a by-reference batch to. fwdSeen is the
	// per-origin watermark at or below which a forward is known ordered
	// and not held again: contiguous at the sequencer, the highest seen
	// ordered at a follower. fwdNext numbers this member's own forwards.
	held    map[memnet.NodeID]map[uint64]forwardMsg
	fwdSeen map[memnet.NodeID]uint64
	fwdNext uint64

	// sequencer side
	seq         uint64                      // last sequence number assigned
	memberAru   map[memnet.NodeID]uint64    // latest acked aru per member
	memberAckAt map[memnet.NodeID]time.Time // when each member last acked (liveness)
	fwdLast     map[memnet.NodeID]uint64    // seq of each origin's most recent batch
	batchOrigin map[uint64]batchRef         // seq -> forward identity, for nak retransmission

	// follower side
	awaiting      []awaitingFwd        // forwards sent but not yet seen ordered
	awaitingParts int                  // payloads inside awaiting (backlog accounting)
	parked        map[uint64]parkedRef // by-reference batches whose forward has not arrived, by seq
}

// batchRef identifies the forward a sequence number ordered.
type batchRef struct {
	origin memnet.NodeID
	fwd    uint64
}

// awaitingFwd is a forward this follower sent to the sequencer and has
// not yet seen come back ordered. It is also what the origin binds its
// own by-reference batches to.
type awaitingFwd struct {
	fwd      uint64
	payload  []byte
	parts    [][]byte
	datagram []byte // the forward as it was broadcast: a resend is the same bytes
	resends  int
}

// parkedRef is a by-reference batch that overtook its forward: the
// sequence number is known, the payloads are still on the wire. It is
// bound when the forward arrives; nakAt is when the member stops waiting
// for it and asks the sequencer for the full form.
type parkedRef struct {
	batchRef
	nakAt time.Time
}

func (n *Core) heartbeatInterval() time.Duration { return n.cfg.FailTimeout / 4 }
func (n *Core) ackDelay() time.Duration          { return n.cfg.IdleHold / 2 }

// sequencing reports whether this node is the installed sequencer,
// following whether it is in an epoch under another's.
func (n *Core) sequencing() bool { return n.fp.leader == n.cfg.ID }
func (n *Core) following() bool  { return n.fp.leader != "" && !n.sequencing() }

// enter installs ep as the current epoch: the token is retired and the
// ring-mode deadlines with it.
func (n *Core) enter(ep epoch) {
	ep.fwdSeen = make(map[memnet.NodeID]uint64)
	ep.held = make(map[memnet.NodeID]map[uint64]forwardMsg)
	n.fp = ep
	n.heldToken = nil
	n.disarm(dlHold)
	n.clearTokenResend()
	n.promotionN.Add(1)
	n.setFastpathMirror(ep.leader, ep.promoteSeq)
}

// promote installs this node as the ring's sequencer, consuming the
// token for good (only the addressed holder of a live token can get
// here, so at most one promotion happens per ring).
func (n *Core) promote(t token) {
	ep := epoch{
		leader: n.cfg.ID, promoteSeq: t.Seq, seq: t.Seq, stable: t.Stable,
		memberAru:   make(map[memnet.NodeID]uint64, len(n.ring)),
		memberAckAt: make(map[memnet.NodeID]time.Time, len(n.ring)),
		fwdLast:     make(map[memnet.NodeID]uint64),
		batchOrigin: make(map[uint64]batchRef),
	}
	for _, m := range n.ring {
		if m != n.cfg.ID {
			ep.memberAru[m] = t.Stable
			ep.memberAckAt[m] = n.now
		}
	}
	n.enter(ep)
	n.fpSeqA.Store(t.Seq)
	n.fpStableA.Store(t.Stable)
	n.arm(dlHeartbeat, n.heartbeatInterval())
	n.arm(dlFail, n.cfg.FailTimeout)
	n.broadcast(encodePromote(promoteMsg{
		RingID: n.ringID, Leader: n.cfg.ID, StartSeq: t.Seq, Stable: t.Stable, Seq: t.Seq,
	}))
	n.leaderOrderPending()
}

// adoptLeader installs a remote sequencer on this node. startSeq may be
// zero when adoption was triggered by a batch (the promote datagram was
// lost); the next heartbeat fills in the agreed switch sequence.
func (n *Core) adoptLeader(leader memnet.NodeID, startSeq, stable uint64) {
	n.enter(epoch{leader: leader, promoteSeq: startSeq, parked: make(map[uint64]parkedRef)})
	n.touchLiveness()
	n.applyStable(stable)
	n.forwardPending()
	n.sendAck()
}

// leaveLeaderMode tears the fast path down on the way into membership
// recovery (the only exit from leader mode).
func (n *Core) leaveLeaderMode() {
	// Forwards the sequencer never ordered go back to the front of the
	// send queue and rotate out with the new ring. If a batch for one of
	// them did reach some member, ring recovery re-delivers it there and
	// the requeued copy becomes a second delivery under a new sequence
	// number — which the replication layer's operation-id dedup absorbs,
	// the same way it absorbs gateway retries. Held forwards and parked
	// references go with the epoch: what they would have become is
	// buffered at a survivor or requeued here, at its origin — without
	// its buffer, which every member holds (submission).
	if len(n.fp.awaiting) > 0 {
		requeued := make([]submission, 0, n.fp.awaitingParts+len(n.pending))
		for _, a := range n.fp.awaiting {
			if a.parts == nil {
				requeued = append(requeued, submission{payload: a.payload})
			}
			for _, p := range a.parts {
				requeued = append(requeued, submission{payload: p})
			}
		}
		n.pending = append(requeued, n.pending...)
	}
	n.fp = epoch{}
	n.noteBacklog()
	n.disarm(dlHeartbeat, dlFwdResend, dlAck, dlRefNak)
	n.fpSeqA.Store(0)
	n.fpStableA.Store(0)
	n.setFastpathMirror("", 0)
}

func (n *Core) setFastpathMirror(leader memnet.NodeID, startSeq uint64) {
	n.mu.Lock()
	n.curLeader = leader
	n.curLeaderSeq = startSeq
	n.mu.Unlock()
}

// noteBacklog publishes how many payloads are submitted and not yet
// ordered: the send queue plus what a follower has forwarded and not
// seen come back.
func (n *Core) noteBacklog() { n.pendingN.Store(int64(len(n.pending) + n.fp.awaitingParts)) }

// nextPack takes the run of pending payloads starting at first that one
// message carries (one sequence number, one datagram, one window slot),
// as the original Totem fills each packet from the send queue, and
// returns its end and the message's payloads. The first payload is
// always accepted, so an oversized payload still travels (alone); later
// ones must keep the pack within MaxPackCount and MaxPackBytes. A single
// payload travels as itself, framed in own if it still has one; a
// longer run is counted as a packed message and gets a list of its own.
func (n *Core) nextPack(first int) (end int, payload []byte, parts [][]byte, own []byte) {
	end = first + 1
	bytes := len(n.pending[first].payload)
	for end < len(n.pending) &&
		end-first < n.cfg.MaxPackCount &&
		bytes+len(n.pending[end].payload) <= n.cfg.MaxPackBytes {
		bytes += len(n.pending[end].payload)
		end++
	}
	if end-first == 1 {
		return end, n.pending[first].payload, nil, n.pending[first].own
	}
	n.packedMsgN.Add(1)
	n.packedPartN.Add(uint64(end - first))
	parts = make([][]byte, 0, end-first)
	for _, s := range n.pending[first:end] {
		parts = append(parts, s.payload)
	}
	return end, nil, parts, nil
}

// compactPending drops the first drained entries of the send queue
// without retaining payload slices in the backing array.
func (n *Core) compactPending(drained int) {
	if drained == 0 {
		return
	}
	rest := len(n.pending) - drained
	copy(n.pending, n.pending[drained:])
	clear(n.pending[rest:])
	n.pending = n.pending[:rest]
	n.noteBacklog()
}

// forwardPending ships every queued payload to the sequencer instead of
// waiting for a token visit: the fast path's datapath entry on a
// follower. Payloads are chunked by the same packing bounds the ring
// uses, each chunk one forward; the chunk stays in awaiting until its
// ordered batch comes back.
func (n *Core) forwardPending() {
	fp := &n.fp
	drained := 0
	for drained < len(n.pending) {
		end, payload, parts, own := n.nextPack(drained)
		fp.fwdNext++
		datagram := encodeForward(forwardMsg{
			RingID: n.ringID, Sender: n.cfg.ID, FwdSeq: fp.fwdNext, Payload: payload, Parts: parts,
		}, n.frameIn(kindForward, own))
		fp.awaiting = append(fp.awaiting, awaitingFwd{fwd: fp.fwdNext, payload: payload, parts: parts, datagram: datagram})
		fp.awaitingParts += end - drained
		n.broadcast(datagram)
		n.broadcastN.Add(1)
		n.forwardedN.Add(uint64(end - drained))
		drained = end
	}
	n.compactPending(drained)
	if len(fp.awaiting) > 0 && !n.armed(dlFwdResend) {
		n.arm(dlFwdResend, n.cfg.TokenRetransmit)
	}
}

// leaderOrderPending orders the sequencer's own submissions directly.
func (n *Core) leaderOrderPending() {
	drained := 0
	for drained < len(n.pending) {
		end, payload, parts, own := n.nextPack(drained)
		drained = end
		n.fp.fwdNext++
		n.broadcastN.Add(1)
		if !n.order(n.cfg.ID, n.fp.fwdNext, payload, parts, own) {
			// Demoted mid-drain (stability lag): what was not ordered
			// stays pending for the ring.
			break
		}
	}
	n.compactPending(drained)
}

// order assigns the next sequence number to one forward's payloads,
// multicasts the ordered batch — by reference for another member's
// forward, which everyone saw on the wire; in full for the sequencer's
// own, which has been nowhere yet (framed in own, see frameIn) — and
// delivers locally. It reports false when ordering stopped because the
// stability-lag limit demoted the ring.
func (n *Core) order(origin memnet.NodeID, fwd uint64, payload []byte, parts [][]byte, own []byte) bool {
	n.fp.seq++
	seq := n.fp.seq
	n.buffer[seq] = regularMsg{RingID: n.ringID, Seq: seq, Sender: origin, Payload: payload, Parts: parts}
	if seq > n.highest {
		n.highest = seq
	}
	n.fp.batchOrigin[seq] = batchRef{origin: origin, fwd: fwd}
	n.fp.fwdLast[origin] = seq
	n.fpSeqA.Store(seq)
	n.leaderBatchN.Add(1)
	b := batchMsg{
		RingID: n.ringID, Seq: seq, Leader: n.cfg.ID,
		Origin: origin, OriginFwd: fwd, Stable: n.fp.stable,
	}
	var in []byte
	if origin == n.cfg.ID {
		b.Payload, b.Parts = payload, parts
		in = n.frameIn(kindBatch, own)
	} else {
		b.Ref = true
		n.refN.Add(1)
	}
	n.broadcast(encodeBatch(b, in))
	n.tryDeliver()
	n.updateStability()
	if seq-n.fp.stable > uint64(n.cfg.FastpathLagLimit) {
		// Backlog imbalance: a member is not confirming. Demote to ring
		// rotation rather than buffer without bound.
		n.startGather()
		return false
	}
	return true
}

// handleForward is every member's view of a forward. The sequencer
// orders each origin's forwards in FwdSeq order, exactly once; everyone
// else keeps the forward for the by-reference batch that will order it.
func (n *Core) handleForward(f forwardMsg) {
	if !n.admit(f.RingID, f.Sender, false) || n.fp.leader == "" {
		return
	}
	if !n.sequencing() {
		n.holdForward(f)
		return
	}
	fp := &n.fp
	n.touchLiveness()
	fp.memberAckAt[f.Sender] = n.now
	seen := fp.fwdSeen[f.Sender]
	if f.FwdSeq <= seen {
		// A resend of a forward already ordered: the origin has not seen
		// its batch. Repeat the origin's most recent batch so it can
		// clear its awaiting list (earlier ones re-trigger naks if also
		// lost).
		if seq, ok := fp.fwdLast[f.Sender]; ok {
			if m, have := n.buffer[seq]; have {
				n.rebroadcastOrdered(seq, m)
			}
		}
		return
	}
	if f.FwdSeq > seen+1 {
		// Out of order: hold until the gap fills; the origin's resend
		// timer recovers drops beyond the bound.
		n.hold(f)
		return
	}
	for {
		if !n.order(f.Sender, f.FwdSeq, f.Payload, f.Parts, nil) {
			return
		}
		fp.fwdSeen[f.Sender] = f.FwdSeq
		next, ok := fp.held[f.Sender][f.FwdSeq+1]
		if !ok {
			return
		}
		delete(fp.held[f.Sender], next.FwdSeq)
		f = next
	}
}

// hold keeps a forward until it is seen ordered, within the per-origin
// bound.
func (n *Core) hold(f forwardMsg) {
	h := n.fp.held[f.Sender]
	if h == nil {
		h = make(map[uint64]forwardMsg)
		n.fp.held[f.Sender] = h
	}
	if len(h) < maxHeldFwds {
		h[f.FwdSeq] = f
	}
}

// holdForward is a follower's side of a forward: bind the reference that
// overtook it, or keep it for the reference to come. The node's own
// forwards are bound from awaiting, and one at or below the origin's
// watermark is a resend of something already seen ordered.
func (n *Core) holdForward(f forwardMsg) {
	if f.Sender == n.cfg.ID {
		return
	}
	// The sequencer orders a forward once, so at most one reference is
	// parked for it; were there ever two, the lowest is the one bound.
	var bound uint64
	for seq, p := range n.fp.parked {
		if p.origin == f.Sender && p.fwd == f.FwdSeq && (bound == 0 || seq < bound) {
			bound = seq
		}
	}
	if bound != 0 {
		delete(n.fp.parked, bound)
		n.handleRegular(regularMsg{RingID: n.ringID, Seq: bound, Sender: f.Sender, Payload: f.Payload, Parts: f.Parts})
	} else if f.FwdSeq > n.fp.fwdSeen[f.Sender] {
		n.hold(f)
	}
}

// rebroadcastOrdered retransmits an ordered sequence number: as a batch
// when it was leader-ordered (so the origin also learns its forward came
// back) — always in the full form, whoever asks has not got the forward
// — and otherwise in the plain regular form, restamped for the current
// configuration and, its sender's membership of that being nobody's
// business by now, in this member's name (Via). Always by copy: the
// payloads lie in a datagram other members hold.
func (n *Core) rebroadcastOrdered(seq uint64, m regularMsg) {
	if ref, ok := n.fp.batchOrigin[seq]; ok {
		n.broadcast(encodeBatch(batchMsg{
			RingID: n.ringID, Seq: seq, Leader: n.cfg.ID,
			Origin: ref.origin, OriginFwd: ref.fwd,
			Stable: n.fp.stable, Payload: m.Payload, Parts: m.Parts,
		}, nil))
	} else {
		n.broadcast(encodeRegular(regularMsg{RingID: n.ringID, Seq: seq, Sender: m.Sender, Via: n.cfg.ID, Payload: m.Payload, Parts: m.Parts}, nil))
	}
	n.framedByCopyN.Add(1)
	n.retransmittedN.Add(1)
}

// handleBatch accepts an ordered batch from the sequencer. The payload
// path is handleRegular — a batch is a packed regular message ordered by
// the leader instead of a token visit — so buffering, gap detection,
// contiguous delivery and recovery-time retransmission all behave
// identically in both modes.
func (n *Core) handleBatch(b batchMsg) {
	if !n.admit(b.RingID, b.Leader, !b.Ref) {
		return
	}
	m := regularMsg{RingID: b.RingID, Seq: b.Seq, Sender: b.Origin, Payload: b.Payload, Parts: b.Parts}
	if n.gathering {
		// Outside an epoch nothing can be bound, and nothing needs to be:
		// the full form is buffered for recovery like any ordered message.
		n.handleRegular(m)
		return
	}
	switch n.fp.leader {
	case b.Leader:
	case "":
		if n.cfg.Ordering != OrderingLeader {
			return // misconfigured peer promoted; refuse the mode
		}
		// First evidence of a promotion whose datagram we lost: adopt
		// now; the heartbeat fills in the switch sequence.
		n.adoptLeader(b.Leader, 0, b.Stable)
	default:
		// Two sequencers inside one ring is impossible by construction
		// (one live token, one promotion per ring); treat it as
		// corruption and resolve through recovery.
		n.startGather()
		return
	}
	if n.sequencing() {
		return // own broadcast echo: what this node ordered, it buffered
	}
	if _, waiting := n.fp.parked[b.Seq]; waiting && !b.Ref {
		// The retransmission a parked reference asked for.
		delete(n.fp.parked, b.Seq)
		n.refMissN.Add(1)
	}
	if !b.Ref || n.bindRef(b, &m) {
		n.handleRegular(m)
	}
	if n.fp.leader != b.Leader {
		return // the origin turned out a stranger: recovery has begun
	}
	n.applyStable(b.Stable)
	// (Origin, OriginFwd) has been seen ordered: the origin stops
	// resending it, everyone else stops holding it.
	if b.Origin == n.cfg.ID {
		n.clearOrdered(b.OriginFwd)
		return
	}
	delete(n.fp.held[b.Origin], b.OriginFwd)
	if b.OriginFwd > n.fp.fwdSeen[b.Origin] {
		n.fp.fwdSeen[b.Origin] = b.OriginFwd
	}
}

// bindRef resolves a by-reference batch to the payloads this member
// holds for (Origin, OriginFwd) and reports whether m now carries them.
// When the forward has not arrived the reference is parked: the sequence
// number counts as a known gap, but holdForward gets until nakAt to fill
// it before sendAck asks the sequencer for the full form.
func (n *Core) bindRef(b batchMsg, m *regularMsg) bool {
	fp := &n.fp
	if _, have := n.buffer[b.Seq]; have || b.Seq <= n.deliveredSeq || n.skipped[b.Seq] {
		return false // duplicate
	}
	if b.Origin == n.cfg.ID {
		for _, a := range fp.awaiting {
			if a.fwd == b.OriginFwd {
				m.Payload, m.Parts = a.payload, a.parts
				return true
			}
		}
	} else if f, ok := fp.held[b.Origin][b.OriginFwd]; ok {
		m.Payload, m.Parts = f.Payload, f.Parts
		return true
	}
	if _, dup := fp.parked[b.Seq]; dup {
		return false
	}
	n.touchLiveness()
	if b.Seq > n.highest {
		n.highest = b.Seq
	}
	if len(fp.parked) >= maxParkedRefs {
		// No room to wait in: an ordinary gap.
		n.refMissN.Add(1)
		n.scheduleAck()
		return false
	}
	fp.parked[b.Seq] = parkedRef{batchRef{origin: b.Origin, fwd: b.OriginFwd}, n.now.Add(n.cfg.TokenRetransmit)}
	if !n.armed(dlRefNak) {
		n.arm(dlRefNak, n.cfg.TokenRetransmit)
	}
	return false
}

// clearOrdered drops awaiting forwards up to fwd: the sequencer orders
// one origin's forwards in FwdSeq order, so seeing fwd ordered implies
// everything before it was too.
func (n *Core) clearOrdered(fwd uint64) {
	fp := &n.fp
	kept := fp.awaiting[:0]
	parts := 0
	for _, a := range fp.awaiting {
		if a.fwd <= fwd {
			continue
		}
		parts += int(partCount(a.parts))
		kept = append(kept, a)
	}
	clear(fp.awaiting[len(kept):]) // release payload slices
	fp.awaiting = kept
	fp.awaitingParts = parts
	n.noteBacklog()
	if len(kept) == 0 {
		n.disarm(dlFwdResend)
	}
}

// handleAck folds a follower's watermark into the stability horizon and
// serves its gap requests. Only the sequencer consumes acks, and only
// for it is an ack decoded past its ring id (decodeAck): everyone else
// puts that id through the gate in its own name.
func (n *Core) handleAck(a ackMsg) {
	if !n.sequencing() {
		n.admit(a.RingID, n.cfg.ID, false)
		return
	}
	if !n.admit(a.RingID, a.Sender, false) || a.Sender == n.cfg.ID {
		return
	}
	n.touchLiveness()
	n.fp.memberAckAt[a.Sender] = n.now
	if a.Aru > n.fp.memberAru[a.Sender] {
		n.fp.memberAru[a.Sender] = a.Aru
	}
	n.updateStability()
	for _, s := range a.Nak {
		if m, ok := n.buffer[s]; ok {
			n.rebroadcastOrdered(s, m)
		}
		// A buffer miss means s is at or below the stability horizon —
		// the requester is proven to have received it — so the nak is a
		// stale crossing and is ignored.
	}
}

// handlePromote installs a sequencer (first receipt) or refreshes it
// (heartbeats). Heartbeats are the sequencer's liveness signal and carry
// the stability horizon for idle epochs.
func (n *Core) handlePromote(p promoteMsg) {
	// A peer that promotes in a ring not configured for it is refused:
	// that starves it of acks and it demotes within its fail timeout.
	if !n.admit(p.RingID, p.Leader, false) || n.cfg.Ordering != OrderingLeader {
		return
	}
	n.highest = max(n.highest, p.Seq) // the acks below ask for what this member now knows it lacks
	switch n.fp.leader {
	case p.Leader:
	case "":
		n.adoptLeader(p.Leader, p.StartSeq, p.Stable)
		return
	default:
		n.startGather() // conflicting sequencers: resolve through recovery
		return
	}
	n.fp.promoteSeq = p.StartSeq
	n.setFastpathMirror(p.Leader, p.StartSeq)
	if n.sequencing() {
		return // own broadcast echo
	}
	n.touchLiveness()
	n.applyStable(p.Stable)
	// Answer immediately so the sequencer's failure detector sees this
	// member alive even when the epoch is idle.
	n.sendAck()
}

// applyStable advances the follower's view of the stability horizon.
func (n *Core) applyStable(stable uint64) {
	if stable > n.fp.stable {
		n.fp.stable = stable
		n.gc(stable)
	}
}

// updateStability recomputes the sequencer's stability horizon: the
// minimum acked watermark across the ring (its own is deliveredSeq).
func (n *Core) updateStability() {
	min := n.deliveredSeq
	for _, a := range n.fp.memberAru {
		if a < min {
			min = a
		}
	}
	if min > n.fp.stable {
		n.fpStableA.Store(min)
		n.applyStable(min)
	}
}

// leaderHeartbeat runs on the sequencer's heartbeat timer: check member
// liveness through ack staleness, then re-announce the epoch.
func (n *Core) leaderHeartbeat() {
	// Ack staleness is the sequencer's failure detector (it no longer
	// sees the token): a silent member demotes the ring back to
	// rotation, whose membership recovery sorts out who is alive.
	for _, m := range n.ring {
		if at, ok := n.fp.memberAckAt[m]; ok && n.now.Sub(at) > n.cfg.FailTimeout {
			n.startGather()
			return
		}
	}
	n.broadcast(encodePromote(promoteMsg{
		RingID: n.ringID, Leader: n.cfg.ID, StartSeq: n.fp.promoteSeq, Stable: n.fp.stable, Seq: n.fp.seq,
	}))
	n.arm(dlHeartbeat, n.heartbeatInterval())
	// The members just proved live above; the sequencer's own fail timer
	// must not fire merely because an idle epoch has no inbound traffic.
	n.arm(dlFail, n.cfg.FailTimeout)
}

// resendForwards retries forwards the sequencer has not ordered yet, the
// same datagrams again, and escapes through recovery when it never does.
func (n *Core) resendForwards() {
	for i := range n.fp.awaiting {
		a := &n.fp.awaiting[i]
		a.resends++
		if a.resends > maxFwdResends {
			// The sequencer heartbeats but never orders our forwards:
			// wedged. Escape through membership recovery.
			n.startGather()
			return
		}
		n.broadcast(a.datagram)
	}
	n.arm(dlFwdResend, n.cfg.TokenRetransmit)
}

// scheduleAck coalesces a follower's stability reports: the first
// watermark movement arms the timer, later ones ride along when it
// fires.
func (n *Core) scheduleAck() {
	if !n.armed(dlAck) {
		n.arm(dlAck, n.ackDelay())
	}
}

// refWait is how much longer a parked reference waits for its forward
// before it is nak'd: until nakAt, and past it — a timer that fires
// late, after a stall of the machine, finds the forward sitting in the
// inbox — while the transport has something to look at first. Within
// reason: a saturated node's inbox is never empty, and a lost forward
// must be asked for.
func (n *Core) refWait(p parkedRef) time.Duration {
	if d := p.nakAt.Sub(n.now); d > 0 {
		return d
	}
	if n.waiting > 0 && n.now.Before(p.nakAt.Add(n.cfg.TokenRetransmit)) {
		return n.ackDelay()
	}
	return 0
}

// sendAck reports this follower's contiguous watermark plus
// retransmission requests for any observed gaps. A gap that is a parked
// reference is not requested before its forward has had its wait.
func (n *Core) sendAck() {
	n.disarm(dlAck, dlRefNak)
	a := ackMsg{RingID: n.ringID, Sender: n.cfg.ID, Aru: n.deliveredSeq}
	var owed time.Duration // the shortest wait a parked reference still has coming
	for s := n.deliveredSeq + 1; s <= n.highest && len(a.Nak) < maxNaks; s++ {
		if _, ok := n.buffer[s]; ok || n.skipped[s] {
			continue
		}
		if p, ok := n.fp.parked[s]; ok {
			if wait := n.refWait(p); wait > 0 {
				if owed == 0 || wait < owed {
					owed = wait
				}
				continue
			}
		}
		a.Nak = append(a.Nak, s)
	}
	n.broadcast(encodeAck(a))
	if owed > 0 {
		n.arm(dlRefNak, owed)
	}
	if len(a.Nak) > 0 {
		// Gaps outstanding: keep re-nakking until retransmissions land.
		n.arm(dlAck, n.cfg.TokenRetransmit)
	}
}
