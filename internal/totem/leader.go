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
// forward it holds (Node.held; the origin to its awaiting list). The
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
// above which everything is leader-ordered within the ring. All
// functions here run on the protocol goroutine and share its state
// ownership rules.

import (
	"time"

	"eternalgw/internal/memnet"
)

const (
	// maxHeldFwds bounds the forwards held per origin (Node.held); drops
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

func (n *Node) heartbeatInterval() time.Duration { return n.cfg.FailTimeout / 4 }
func (n *Node) ackDelay() time.Duration          { return n.cfg.IdleHold / 2 }

// sequencing reports whether this node is the installed sequencer.
func (n *Node) sequencing() bool { return n.fpActive && n.leaderID == n.cfg.ID }

// promote installs this node as the ring's sequencer, consuming the
// token for good (only the addressed holder of a live token can get
// here, so at most one promotion happens per ring).
func (n *Node) promote(t token) {
	now := time.Now()
	n.fpActive = true
	n.leaderID = n.cfg.ID
	n.promoteSeq = t.Seq
	n.leaderSeq = t.Seq
	n.leaderStable = t.Stable
	n.fpSeqA.Store(t.Seq)
	n.fpStableA.Store(t.Stable)
	n.memberAru = make(map[memnet.NodeID]uint64, len(n.ring))
	n.memberAckAt = make(map[memnet.NodeID]time.Time, len(n.ring))
	for _, m := range n.ring {
		if m == n.cfg.ID {
			continue
		}
		n.memberAru[m] = t.Stable
		n.memberAckAt[m] = now
	}
	n.fwdSeen = make(map[memnet.NodeID]uint64)
	n.held = make(map[memnet.NodeID]map[uint64]forwardMsg)
	n.fwdLast = make(map[memnet.NodeID]uint64)
	n.batchOrigin = make(map[uint64]batchRef)
	n.fwdNext = 0
	n.awaiting = nil
	n.awaitingParts = 0
	n.heldToken = nil
	n.holdUntil = time.Time{}
	n.clearTokenResend()
	n.heartbeatAt = now.Add(n.heartbeatInterval())
	n.failDeadline = now.Add(n.cfg.FailTimeout)
	n.promotionN.Add(1)
	n.setFastpathMirror(n.cfg.ID, t.Seq)
	n.broadcastRaw(encodePromote(promoteMsg{
		RingID: n.ringID, Leader: n.cfg.ID, StartSeq: t.Seq, Stable: t.Stable,
	}))
	n.drainSendq()
	n.leaderOrderPending()
}

// adoptLeader installs a remote sequencer on this node. startSeq may be
// zero when adoption was triggered by a batch (the promote datagram was
// lost); the next heartbeat fills in the agreed switch sequence.
func (n *Node) adoptLeader(leader memnet.NodeID, startSeq, stable uint64) {
	n.fpActive = true
	n.leaderID = leader
	n.promoteSeq = startSeq
	n.fwdSeen = make(map[memnet.NodeID]uint64)
	n.held = make(map[memnet.NodeID]map[uint64]forwardMsg)
	n.parked = make(map[uint64]parkedRef)
	n.fwdNext = 0
	n.awaiting = nil
	n.awaitingParts = 0
	n.fwdResendAt = time.Time{}
	n.ackDueAt = time.Time{}
	n.heldToken = nil
	n.holdUntil = time.Time{}
	n.clearTokenResend()
	n.promotionN.Add(1)
	n.setFastpathMirror(leader, startSeq)
	n.touchLiveness()
	n.applyStable(stable)
	n.drainSendq()
	n.forwardPending()
	n.sendAck(time.Now())
}

// leaveLeaderMode tears the fast path down on the way into membership
// recovery (the only exit from leader mode).
func (n *Node) leaveLeaderMode() {
	n.fpActive = false
	n.leaderID = ""
	// Forwards the sequencer never ordered go back to the front of the
	// send queue and rotate out with the new ring. If a batch for one of
	// them did reach some member, ring recovery re-delivers it there and
	// the requeued copy becomes a second delivery under a new sequence
	// number — which the replication layer's operation-id dedup absorbs,
	// the same way it absorbs gateway retries. Held forwards and parked
	// references go with the epoch: what they would have become is
	// buffered at a survivor or requeued here, at its origin.
	if len(n.awaiting) > 0 {
		requeued := make([][]byte, 0, n.awaitingParts+len(n.pending))
		for _, a := range n.awaiting {
			if a.parts == nil {
				requeued = append(requeued, a.payload)
			} else {
				requeued = append(requeued, a.parts...)
			}
		}
		n.pending = append(requeued, n.pending...)
	}
	n.awaiting = nil
	n.awaitingParts = 0
	n.pendingN.Store(int64(len(n.pending)))
	n.memberAru = nil
	n.memberAckAt = nil
	n.fwdSeen = nil
	n.held = nil
	n.parked = nil
	n.fwdLast = nil
	n.batchOrigin = nil
	n.fwdNext = 0
	n.heartbeatAt = time.Time{}
	n.fwdResendAt = time.Time{}
	n.ackDueAt = time.Time{}
	n.refNakAt = time.Time{}
	n.fpSeqA.Store(0)
	n.fpStableA.Store(0)
	n.setFastpathMirror("", 0)
}

func (n *Node) setFastpathMirror(leader memnet.NodeID, startSeq uint64) {
	n.mu.Lock()
	n.curLeader = leader
	n.curLeaderSeq = startSeq
	n.mu.Unlock()
}

// nextPack returns the end of the run of pending payloads starting at
// first that one message carries (one sequence number, one datagram,
// one window slot), as the original Totem fills each packet from the
// send queue. The first payload is always accepted, so an oversized
// payload still travels (alone); later ones must keep the pack within
// MaxPackCount and MaxPackBytes. A run longer than one is counted as a
// packed message.
func (n *Node) nextPack(first int) int {
	end := first + 1
	bytes := len(n.pending[first])
	for end < len(n.pending) &&
		end-first < n.cfg.MaxPackCount &&
		bytes+len(n.pending[end]) <= n.cfg.MaxPackBytes {
		bytes += len(n.pending[end])
		end++
	}
	if end-first > 1 {
		n.packedMsgN.Add(1)
		n.packedPartN.Add(uint64(end - first))
	}
	return end
}

// compactPending drops the first drained entries of the send queue
// without retaining payload slices in the backing array.
func (n *Node) compactPending(drained int) {
	if drained == 0 {
		return
	}
	rest := len(n.pending) - drained
	copy(n.pending, n.pending[drained:])
	for i := rest; i < len(n.pending); i++ {
		n.pending[i] = nil
	}
	n.pending = n.pending[:rest]
	n.pendingN.Store(int64(rest))
}

// packOf returns a run of the send queue as one message's payloads: a
// single payload as itself, several as a list of their own (the queue's
// backing array is about to be compacted).
func packOf(run [][]byte) (payload []byte, parts [][]byte) {
	if len(run) == 1 {
		return run[0], nil
	}
	return nil, append([][]byte(nil), run...)
}

// forwardPending ships every queued payload to the sequencer instead of
// waiting for a token visit: the fast path's datapath entry on a
// follower. Payloads are chunked by the same packing bounds the ring
// uses, each chunk one forward; the chunk stays in awaiting until its
// ordered batch comes back.
func (n *Node) forwardPending() {
	n.drainSendq()
	drained := 0
	for drained < len(n.pending) {
		first := drained
		drained = n.nextPack(first)
		payload, parts := packOf(n.pending[first:drained])
		n.fwdNext++
		n.awaiting = append(n.awaiting, awaitingFwd{fwd: n.fwdNext, payload: payload, parts: parts})
		n.awaitingParts += drained - first
		n.broadcastRaw(encodeForward(forwardMsg{
			RingID: n.ringID, Sender: n.cfg.ID, FwdSeq: n.fwdNext, Payload: payload, Parts: parts,
		}))
		n.broadcastN.Add(1)
		n.forwardedN.Add(uint64(drained - first))
	}
	n.compactPending(drained)
	n.pendingN.Store(int64(len(n.pending) + n.awaitingParts))
	if len(n.awaiting) > 0 && n.fwdResendAt.IsZero() {
		n.fwdResendAt = time.Now().Add(n.cfg.TokenRetransmit)
	}
}

// leaderOrderPending orders the sequencer's own submissions directly.
func (n *Node) leaderOrderPending() {
	n.drainSendq()
	drained := 0
	for drained < len(n.pending) {
		first := drained
		drained = n.nextPack(first)
		payload, parts := packOf(n.pending[first:drained])
		n.fwdNext++
		n.broadcastN.Add(1)
		if !n.order(n.cfg.ID, n.fwdNext, payload, parts) {
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
// own, which has been nowhere yet — and delivers locally. It reports
// false when ordering stopped because the stability-lag limit demoted
// the ring.
func (n *Node) order(origin memnet.NodeID, fwd uint64, payload []byte, parts [][]byte) bool {
	n.leaderSeq++
	seq := n.leaderSeq
	n.buffer[seq] = regularMsg{RingID: n.ringID, Seq: seq, Sender: origin, Payload: payload, Parts: parts}
	if seq > n.highest {
		n.highest = seq
	}
	n.batchOrigin[seq] = batchRef{origin: origin, fwd: fwd}
	n.fwdLast[origin] = seq
	n.fpSeqA.Store(seq)
	n.leaderBatchN.Add(1)
	b := batchMsg{
		RingID: n.ringID, Seq: seq, Leader: n.cfg.ID,
		Origin: origin, OriginFwd: fwd, Stable: n.leaderStable,
	}
	if origin == n.cfg.ID {
		b.Payload, b.Parts = payload, parts
	} else {
		b.Ref = true
		n.refN.Add(1)
	}
	n.broadcastRaw(encodeBatch(b))
	n.tryDeliver()
	n.updateStability()
	if seq-n.leaderStable > uint64(n.cfg.FastpathLagLimit) {
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
func (n *Node) handleForward(f forwardMsg) {
	if f.RingID != n.ringID {
		if f.RingID > n.ringID && !n.gathering {
			n.startGather()
		}
		return
	}
	if n.gathering || !n.fpActive {
		return
	}
	if !n.inRing(f.Sender) {
		n.startGather()
		return
	}
	if n.leaderID != n.cfg.ID {
		n.holdForward(f)
		return
	}
	n.touchLiveness()
	n.memberAckAt[f.Sender] = time.Now()
	seen := n.fwdSeen[f.Sender]
	if f.FwdSeq <= seen {
		// A resend of a forward already ordered: the origin has not seen
		// its batch. Repeat the origin's most recent batch so it can
		// clear its awaiting list (earlier ones re-trigger naks if also
		// lost).
		if seq, ok := n.fwdLast[f.Sender]; ok {
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
		if !n.order(f.Sender, f.FwdSeq, f.Payload, f.Parts) {
			return
		}
		n.fwdSeen[f.Sender] = f.FwdSeq
		next, ok := n.held[f.Sender][f.FwdSeq+1]
		if !ok {
			return
		}
		delete(n.held[f.Sender], next.FwdSeq)
		f = next
	}
}

// hold keeps a forward until it is seen ordered, within the per-origin
// bound.
func (n *Node) hold(f forwardMsg) {
	h := n.held[f.Sender]
	if h == nil {
		h = make(map[uint64]forwardMsg)
		n.held[f.Sender] = h
	}
	if len(h) < maxHeldFwds {
		h[f.FwdSeq] = f
	}
}

// holdForward is a follower's side of a forward: bind the reference that
// overtook it, or keep it for the reference to come. The node's own
// forwards are bound from awaiting, and one at or below the origin's
// watermark is a resend of something already seen ordered.
func (n *Node) holdForward(f forwardMsg) {
	if f.Sender == n.cfg.ID {
		return
	}
	for seq, p := range n.parked {
		if p.origin == f.Sender && p.fwd == f.FwdSeq {
			delete(n.parked, seq)
			n.handleRegular(regularMsg{RingID: n.ringID, Seq: seq, Sender: f.Sender, Payload: f.Payload, Parts: f.Parts})
			return
		}
	}
	if f.FwdSeq > n.fwdSeen[f.Sender] {
		n.hold(f)
	}
}

// rebroadcastOrdered retransmits an ordered sequence number: as a batch
// when it was leader-ordered (so the origin also learns its forward came
// back) — always in the full form, whoever asks has not got the forward
// — and in the plain regular form for ring-era sequence numbers.
func (n *Node) rebroadcastOrdered(seq uint64, m regularMsg) {
	if ref, ok := n.batchOrigin[seq]; ok {
		n.broadcastRaw(encodeBatch(batchMsg{
			RingID: n.ringID, Seq: seq, Leader: n.cfg.ID,
			Origin: ref.origin, OriginFwd: ref.fwd,
			Stable: n.leaderStable, Payload: m.Payload, Parts: m.Parts,
		}))
	} else {
		m.RingID = n.ringID
		n.broadcastRaw(encodeRegular(m))
	}
	n.retransmittedN.Add(1)
}

// handleBatch accepts an ordered batch from the sequencer. The payload
// path is handleRegular — a batch is a packed regular message ordered by
// the leader instead of a token visit — so buffering, gap detection,
// contiguous delivery and recovery-time retransmission all behave
// identically in both modes.
func (n *Node) handleBatch(b batchMsg) {
	if b.RingID == n.ringID && !n.gathering {
		if !n.inRing(b.Leader) {
			n.startGather()
			return
		}
		if !n.fpActive {
			if n.cfg.Ordering != OrderingLeader {
				return // misconfigured peer promoted; refuse the mode
			}
			// First evidence of a promotion whose datagram we lost:
			// adopt now; the heartbeat fills in the switch sequence.
			n.adoptLeader(b.Leader, 0, b.Stable)
		} else if n.leaderID != b.Leader {
			// Two sequencers inside one ring is impossible by
			// construction (one live token, one promotion per ring);
			// treat it as corruption and resolve through recovery.
			n.startGather()
			return
		}
	}
	if n.sequencing() && n.following(b) {
		return // own broadcast echo: what this node ordered, it buffered
	}
	if _, waiting := n.parked[b.Seq]; waiting && !b.Ref && n.following(b) {
		// The retransmission a parked reference asked for.
		delete(n.parked, b.Seq)
		n.refMissN.Add(1)
	}
	m := regularMsg{RingID: b.RingID, Seq: b.Seq, Sender: b.Origin, Payload: b.Payload, Parts: b.Parts}
	switch {
	case !b.Ref, b.RingID != n.ringID, !n.inRing(b.Origin):
		// A reference from another ring, or naming a stranger, goes
		// through handleRegular for its merge detection alone: it
		// buffers nothing from either.
		n.handleRegular(m)
	case !n.following(b):
		// Nothing can be bound outside the epoch, and nothing needs to
		// be: recovery retransmits what was ordered in the regular form.
		return
	case n.bindRef(b, &m):
		n.handleRegular(m)
	}
	if !n.following(b) {
		return
	}
	n.applyStable(b.Stable)
	// (Origin, OriginFwd) has been seen ordered: the origin stops
	// resending it, everyone else stops holding it.
	if b.Origin == n.cfg.ID {
		n.clearOrdered(b.OriginFwd)
		return
	}
	delete(n.held[b.Origin], b.OriginFwd)
	if b.OriginFwd > n.fwdSeen[b.Origin] {
		n.fwdSeen[b.Origin] = b.OriginFwd
	}
}

// following reports whether b belongs to the leader epoch this node is
// in right now.
func (n *Node) following(b batchMsg) bool {
	return b.RingID == n.ringID && !n.gathering && n.fpActive && n.leaderID == b.Leader
}

// bindRef resolves a by-reference batch to the payloads this member
// holds for (Origin, OriginFwd) and reports whether m now carries them.
// When the forward has not arrived the reference is parked: the sequence
// number counts as a known gap, but holdForward gets until nakAt to fill
// it before sendAck asks the sequencer for the full form.
func (n *Node) bindRef(b batchMsg, m *regularMsg) bool {
	if _, have := n.buffer[b.Seq]; have || b.Seq <= n.deliveredSeq || n.skipped[b.Seq] {
		return false // duplicate
	}
	if b.Origin == n.cfg.ID {
		for _, a := range n.awaiting {
			if a.fwd == b.OriginFwd {
				m.Payload, m.Parts = a.payload, a.parts
				return true
			}
		}
	} else if f, ok := n.held[b.Origin][b.OriginFwd]; ok {
		m.Payload, m.Parts = f.Payload, f.Parts
		return true
	}
	if _, dup := n.parked[b.Seq]; dup {
		return false
	}
	n.touchLiveness()
	if b.Seq > n.highest {
		n.highest = b.Seq
	}
	if len(n.parked) >= maxParkedRefs {
		// No room to wait in: an ordinary gap.
		n.refMissN.Add(1)
		n.scheduleAck()
		return false
	}
	nakAt := time.Now().Add(n.cfg.TokenRetransmit)
	n.parked[b.Seq] = parkedRef{batchRef{origin: b.Origin, fwd: b.OriginFwd}, nakAt}
	if n.refNakAt.IsZero() {
		n.refNakAt = nakAt
	}
	return false
}

// clearOrdered drops awaiting forwards up to fwd: the sequencer orders
// one origin's forwards in FwdSeq order, so seeing fwd ordered implies
// everything before it was too.
func (n *Node) clearOrdered(fwd uint64) {
	kept := n.awaiting[:0]
	parts := 0
	for _, a := range n.awaiting {
		if a.fwd <= fwd {
			continue
		}
		parts += int(partCount(a.parts))
		kept = append(kept, a)
	}
	for i := len(kept); i < len(n.awaiting); i++ {
		n.awaiting[i] = awaitingFwd{} // release payload slices
	}
	n.awaiting = kept
	n.awaitingParts = parts
	n.pendingN.Store(int64(len(n.pending) + parts))
	if len(n.awaiting) == 0 {
		n.fwdResendAt = time.Time{}
	}
}

// handleAck folds a follower's watermark into the stability horizon and
// serves its gap requests. Only the sequencer consumes acks.
func (n *Node) handleAck(a ackMsg) {
	if a.RingID != n.ringID {
		if a.RingID > n.ringID && !n.gathering {
			n.startGather()
		}
		return
	}
	if n.gathering || !n.fpActive || n.leaderID != n.cfg.ID || a.Sender == n.cfg.ID {
		return
	}
	if !n.inRing(a.Sender) {
		n.startGather()
		return
	}
	n.touchLiveness()
	n.memberAckAt[a.Sender] = time.Now()
	if a.Aru > n.memberAru[a.Sender] {
		n.memberAru[a.Sender] = a.Aru
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
func (n *Node) handlePromote(p promoteMsg) {
	if p.RingID != n.ringID {
		if p.RingID > n.ringID && !n.gathering {
			n.startGather()
		} else if p.RingID < n.ringID && !n.inRing(p.Leader) && !n.gathering {
			n.startGather() // concurrent foreign ring: merge
		}
		return
	}
	if n.gathering {
		return
	}
	if !n.inRing(p.Leader) {
		n.startGather()
		return
	}
	if n.cfg.Ordering != OrderingLeader {
		// A misconfigured peer promoted; refusing to adopt starves it of
		// acks and it demotes within its fail timeout.
		return
	}
	if !n.fpActive {
		n.adoptLeader(p.Leader, p.StartSeq, p.Stable)
		return
	}
	if n.leaderID != p.Leader {
		n.startGather() // conflicting sequencers: resolve through recovery
		return
	}
	n.promoteSeq = p.StartSeq
	n.setFastpathMirror(p.Leader, p.StartSeq)
	if n.leaderID == n.cfg.ID {
		return // own broadcast echo
	}
	n.touchLiveness()
	n.clearTokenResend()
	n.applyStable(p.Stable)
	// Answer immediately so the sequencer's failure detector sees this
	// member alive even when the epoch is idle.
	n.sendAck(time.Now())
}

// applyStable advances the follower's view of the stability horizon.
func (n *Node) applyStable(stable uint64) {
	if stable > n.leaderStable {
		n.leaderStable = stable
		n.gc(stable)
	}
}

// updateStability recomputes the sequencer's stability horizon: the
// minimum acked watermark across the ring (its own is deliveredSeq).
func (n *Node) updateStability() {
	min := n.deliveredSeq
	for _, m := range n.ring {
		if m == n.cfg.ID {
			continue
		}
		if a := n.memberAru[m]; a < min {
			min = a
		}
	}
	if min > n.leaderStable {
		n.leaderStable = min
		n.fpStableA.Store(min)
		n.gc(min)
	}
}

// leaderHeartbeat runs on the sequencer's heartbeat timer: check member
// liveness through ack staleness, then re-announce the epoch.
func (n *Node) leaderHeartbeat(now time.Time) {
	if !n.fpActive || n.leaderID != n.cfg.ID {
		n.heartbeatAt = time.Time{}
		return
	}
	// Ack staleness is the sequencer's failure detector (it no longer
	// sees the token): a silent member demotes the ring back to
	// rotation, whose membership recovery sorts out who is alive.
	for _, m := range n.ring {
		if m == n.cfg.ID {
			continue
		}
		if at, ok := n.memberAckAt[m]; ok && now.Sub(at) > n.cfg.FailTimeout {
			n.startGather()
			return
		}
	}
	n.broadcastRaw(encodePromote(promoteMsg{
		RingID: n.ringID, Leader: n.cfg.ID, StartSeq: n.promoteSeq, Stable: n.leaderStable,
	}))
	n.heartbeatAt = now.Add(n.heartbeatInterval())
	// The members just proved live above; the sequencer's own fail timer
	// must not fire merely because an idle epoch has no inbound traffic.
	n.failDeadline = now.Add(n.cfg.FailTimeout)
}

// resendForwards retries forwards the sequencer has not ordered yet, and
// escapes through recovery when it never does.
func (n *Node) resendForwards(now time.Time) {
	if !n.fpActive || n.leaderID == n.cfg.ID || len(n.awaiting) == 0 {
		n.fwdResendAt = time.Time{}
		return
	}
	for i := range n.awaiting {
		a := &n.awaiting[i]
		a.resends++
		if a.resends > maxFwdResends {
			// The sequencer heartbeats but never orders our forwards:
			// wedged. Escape through membership recovery.
			n.startGather()
			return
		}
		n.broadcastRaw(encodeForward(forwardMsg{
			RingID: n.ringID, Sender: n.cfg.ID, FwdSeq: a.fwd, Payload: a.payload, Parts: a.parts,
		}))
	}
	n.fwdResendAt = now.Add(n.cfg.TokenRetransmit)
}

// scheduleAck coalesces stability reports: the first watermark movement
// arms the timer, later ones ride along when it fires.
func (n *Node) scheduleAck() {
	if !n.fpActive || n.leaderID == n.cfg.ID {
		return
	}
	if n.ackDueAt.IsZero() {
		n.ackDueAt = time.Now().Add(n.ackDelay())
	}
}

// refWait is how much longer a parked reference waits for its forward
// before it is nak'd: until nakAt, and past it — a timer that fires
// late, after a stall of the machine, finds the forward sitting in the
// inbox — while there is something to look at first. Within reason: a
// saturated node's inbox is never empty, and a lost forward must be
// asked for.
func (n *Node) refWait(p parkedRef, now time.Time) time.Duration {
	if d := p.nakAt.Sub(now); d > 0 {
		return d
	}
	if len(n.ep.Recv()) > 0 && now.Before(p.nakAt.Add(n.cfg.TokenRetransmit)) {
		return n.ackDelay()
	}
	return 0
}

// sendAck reports this follower's contiguous watermark plus
// retransmission requests for any observed gaps. A gap that is a parked
// reference is not requested before its forward has had its wait.
func (n *Node) sendAck(now time.Time) {
	n.refNakAt = time.Time{}
	if !n.fpActive || n.leaderID == n.cfg.ID {
		n.ackDueAt = time.Time{}
		return
	}
	a := ackMsg{RingID: n.ringID, Sender: n.cfg.ID, Aru: n.deliveredSeq}
	for s := n.deliveredSeq + 1; s <= n.highest && len(a.Nak) < maxNaks; s++ {
		if _, ok := n.buffer[s]; ok || n.skipped[s] {
			continue
		}
		if p, ok := n.parked[s]; ok {
			if wait := n.refWait(p, now); wait > 0 {
				if at := now.Add(wait); n.refNakAt.IsZero() || at.Before(n.refNakAt) {
					n.refNakAt = at
				}
				continue
			}
		}
		a.Nak = append(a.Nak, s)
	}
	n.broadcastRaw(encodeAck(a))
	if len(a.Nak) > 0 {
		// Gaps outstanding: keep re-nakking until retransmissions land.
		n.ackDueAt = now.Add(n.cfg.TokenRetransmit)
	} else {
		n.ackDueAt = time.Time{}
	}
}
