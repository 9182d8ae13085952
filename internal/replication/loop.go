package replication

import (
	"eternalgw/internal/cdr"
	"eternalgw/internal/giop"
	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
	"eternalgw/internal/totem"
)

// giopOrder is the byte order used for IIOP messages the infrastructure
// itself encodes.
const giopOrder = cdr.BigEndian

// minorNoAgreement is the NO_AGREEMENT minor code raised when every
// replica answered a voting invocation without a majority (documented
// in docs/OPERATIONS.md). The request did execute — the copies merely
// disagree — so it travels with COMPLETED_MAYBE: the outcome is
// unknown and a blind retry is not known to be safe.
const minorNoAgreement uint32 = 0

// run consumes the totem event stream. It is the only goroutine that
// mutates the group directory; replica executors receive work through
// their task queues in delivery order, which preserves the total order
// per group.
func (m *Mechanisms) run() {
	defer close(m.done)
	defer m.shutdownReplicas()
	for {
		select {
		case <-m.stop:
			return
		case ev := <-m.node.Events():
			switch ev.Type {
			case totem.EventDeliver:
				m.handleDelivery(ev.Delivery)
			case totem.EventConfig:
				m.handleConfig(ev.Config)
			}
		}
	}
}

func (m *Mechanisms) shutdownReplicas() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, g := range m.groups {
		if g.local != nil {
			g.local.close()
			g.local = nil
		}
	}
}

func (m *Mechanisms) handleDelivery(d totem.Delivery) {
	// Header-first: the loop peeks at the fixed header and routes on
	// {Kind, SrcGroup, DstGroup, ClientID, Op} alone. The payload stays
	// encoded, aliasing the delivery buffer; the datapath kinds defer its
	// decode to whoever needs it (the replica executor for requests, the
	// first pending waiter for replies) and duplicate responses are
	// discarded without ever touching CDR. Control kinds decode their
	// small payloads here as before.
	hv, err := DecodeHeader(d.Payload)
	if err != nil {
		return // not an infrastructure message; ignore
	}
	// The timestamp folds the packed-message sub-index into the sequence
	// number so that every payload — even ones sharing a datagram — gets a
	// unique, totally-ordered value for operation identifiers.
	ts := d.Timestamp()
	switch hv.Header.Kind {
	case KindCreateGroup:
		m.deliverCreateGroup(hv.Message(), ts)
	case KindViewChange:
		m.deliverViewChange(hv.Message(), ts)
	case KindInvocation:
		m.deliverInvocation(hv, d.Payload, ts)
	case KindResponse:
		m.deliverResponse(hv, d.Sender)
	case KindStateTransfer:
		m.deliverStateTransfer(hv.Message())
	case KindStateSync:
		m.deliverStateSync(hv.Message())
	case KindGatewayControl:
		m.deliverGatewayControl(hv.Header)
	case KindDeleteGroup:
		m.deliverDeleteGroup(hv.Message())
	case KindMembershipSync:
		m.deliverMembershipSync(hv.Message())
	}
}

// deliverDeleteGroup retires a group at this node.
func (m *Mechanisms) deliverDeleteGroup(msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	g, ok := m.groups[msg.Header.DstGroup]
	if !ok {
		return
	}
	if g.local != nil {
		g.local.close()
		g.local = nil
	}
	if g.objectKey != "" && m.byKey[g.objectKey] == g.id {
		delete(m.byKey, g.objectKey)
	}
	delete(m.groups, g.id)
	delete(m.observers, g.id)
	m.notifyChanged()
}

// deliverGatewayControl handles gateway-group housekeeping where the
// record lives: a TCP client of server group SrcGroup departed somewhere
// in gateway group DstGroup, so every member's processor drops what it
// remembered on the client's behalf (paper section 3.5) but the departure.
func (m *Mechanisms) deliverGatewayControl(h Header) {
	if h.ClientID == UnusedClientID {
		return
	}
	if member, _ := m.membership(h.DstGroup); !member {
		return
	}
	m.pending.forget(h.SrcGroup, h.ClientID)
	m.clientsDeparted.Add(1)
}

// membership reports whether this node is a member of the group, and
// whether a client-only one (it hosts no servant there, as a gateway's
// processor in the gateway group).
func (m *Mechanisms) membership(id GroupID) (member, clientOnly bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	g, ok := m.groups[id]
	if !ok || g.local == nil {
		return false, false
	}
	return true, g.local.app == nil
}

func (m *Mechanisms) deliverCreateGroup(msg Message, ts uint64) {
	p, err := decodeCreateGroup(msg.Payload)
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id := msg.Header.DstGroup
	if _, ok := m.groups[id]; ok {
		return // concurrent creators: first delivery wins
	}
	m.groups[id] = &groupState{
		id:           id,
		style:        p.Style,
		objectKey:    string(p.ObjectKey),
		pendingJoins: make(map[memnet.NodeID]bool),
		view:         1, // the empty group is view 1
		viewSeq:      ts,
	}
	if len(p.ObjectKey) > 0 {
		m.byKey[string(p.ObjectKey)] = id
	}
	m.notifyChanged()
}

// bumpView installs the next numbered view of a group after a membership
// change applied at total-order position seq. Callers hold mu.
func (m *Mechanisms) bumpView(g *groupState, seq uint64) {
	g.view++
	g.viewSeq = seq
	m.viewChanges.Add(1)
}

// addMember applies one join to the group directory: the membership slot,
// the local replica activation when the joiner is this node, and the
// pending-join record the donor's state capture is queued from. It
// reports whether the membership changed (a self-join that was never
// prearmed is rolled back for safety). Callers hold mu.
func (m *Mechanisms) addMember(g *groupState, node memnet.NodeID) bool {
	g.members = append(g.members, node)
	first := len(g.members) == 1

	if node == m.cfg.NodeID {
		app, armed := m.prearmed[g.id]
		if !armed {
			// A join we never prearmed (e.g. replayed from before a
			// restart): ignore the membership slot for safety.
			g.removeMember(node)
			return false
		}
		delete(m.prearmed, g.id)
		r := newReplica(m, g.id, g.style, app)
		g.local = r
		// The first member and client-only members need no state
		// transfer.
		if first || app == nil {
			r.synced.Store(true)
		} else {
			g.pendingJoins[node] = false
		}
	} else if g.local != nil && g.local.app != nil && !first {
		g.pendingJoins[node] = false
	}
	return true
}

// applyView applies one membership delta to a group: removals first, then
// joins (a replace delta frees the evicted slot before the joiner lands),
// then, if anything changed, the next numbered view, the primary role and
// the state transfers the new membership owes. Every membership change
// goes through here — the wire delta and a ring failure's removals from
// handleConfig alike — at one point in the total order, so every member
// installs the same numbered view at the same place. Callers hold mu.
func (m *Mechanisms) applyView(g *groupState, add, remove []memnet.NodeID, seq uint64) {
	changed := false
	for _, node := range remove {
		if !g.isMember(node) {
			continue
		}
		g.removeMember(node)
		delete(g.pendingJoins, node)
		if node == m.cfg.NodeID && g.local != nil {
			g.local.close()
			g.local = nil
		}
		changed = true
	}
	for _, node := range add {
		if !g.isMember(node) && m.addMember(g, node) {
			changed = true
		}
	}
	if !changed {
		return
	}
	m.bumpView(g, seq)
	m.updatePrimary(g)
	m.retriggerTransfers(g)
}

// deliverViewChange applies a membership delta off the wire. Like every
// membership change it is delivered in total order, so every member
// installs the same numbered view at the same sequence number.
func (m *Mechanisms) deliverViewChange(msg Message, ts uint64) {
	p, err := decodeViewChange(msg.Payload)
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g, ok := m.groups[msg.Header.DstGroup]; ok {
		m.applyView(g, p.Add, p.Remove, ts)
		m.notifyChanged()
	}
}

// handleConfig reacts to a totem membership change: nodes that left the
// ring are removed from every group, at a single point in the total
// order, so all survivors agree on the resulting memberships and on who
// is promoted. When the change is a merge (a healed partition brought
// nodes back), the two sides' directories have diverged — the majority
// component evicted the absentees and repaired around them, while the
// minority evicted everyone else and kept executing on state that then
// went stale. The minority side therefore discards its replicas at the
// merge point, before any post-merge invocation can reach them, and the
// majority side broadcasts its directory for the returning nodes to
// adopt (primary-component membership, paper section 2.4).
func (m *Mechanisms) handleConfig(c totem.ConfigChange) {
	inRing := make(map[memnet.NodeID]bool, len(c.Members))
	for _, id := range c.Members {
		inRing[id] = true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	prev := m.ring
	m.ring = append([]memnet.NodeID(nil), c.Members...)
	m.ringID = c.RingID
	merged := false
	if len(prev) > 0 {
		was := make(map[memnet.NodeID]bool, len(prev))
		for _, id := range prev {
			was[id] = true
		}
		for _, id := range c.Members {
			if !was[id] {
				merged = true
				break
			}
		}
	}
	for _, g := range m.groups {
		var gone []memnet.NodeID
		for _, node := range g.members {
			if !inRing[node] {
				gone = append(gone, node)
			}
		}
		// Failure-driven view change: every survivor installs the new ring
		// at the same point in the total order, so the ring identifier
		// stands in for the membership message's timestamp.
		m.applyView(g, nil, gone, c.RingID)
	}
	if merged {
		if fromMajority(prev, c.Members) {
			if payload := m.directorySyncLocked(c.RingID); payload != nil {
				// Multicast can block on the send queue; it must leave the
				// event loop. The snapshot was taken under mu at the merge
				// point, so every majority node sends identical content and
				// the first delivery wins. Stop waits on wg for this
				// handoff.
				m.wg.Add(1)
				go func() {
					defer m.wg.Done()
					_ = m.multicast(Message{
						Header:  Header{Kind: KindMembershipSync, ClientID: UnusedClientID},
						Payload: payload,
					})
				}()
			}
		} else {
			m.discardStaleReplicasLocked(c.RingID)
		}
	}
	m.notifyChanged()
}

// fromMajority reports whether the previous ring was the majority
// component of the merged ring — the side whose directory survives a
// partition healing. An exact half keeps the component holding the
// merged ring's lowest node identifier, a tiebreak both sides can
// compute from what they know.
func fromMajority(prev, merged []memnet.NodeID) bool {
	if len(prev)*2 > len(merged) {
		return true
	}
	if len(prev)*2 < len(merged) {
		return false
	}
	low := merged[0]
	for _, id := range merged[1:] {
		if id < low {
			low = id
		}
	}
	for _, id := range prev {
		if id == low {
			return true
		}
	}
	return false
}

// discardStaleReplicasLocked drops every local servant replica on a node
// returning from a minority partition: its state missed the operations
// the majority executed, so it must not answer post-merge invocations.
// Running at the merge configuration — before any post-merge delivery —
// closes the window in which a stale replica could respond. Its recovery
// image goes with it (a stale checkpoint must never be donated), and the
// node rejoins groups only through the resource manager's normal
// placement, with a fresh state transfer. Callers hold mu.
func (m *Mechanisms) discardStaleReplicasLocked(seq uint64) {
	for _, g := range m.groups {
		if g.local == nil || g.local.app == nil {
			continue
		}
		g.local.close()
		g.local = nil
		g.removeMember(m.cfg.NodeID)
		for node := range g.pendingJoins {
			delete(g.pendingJoins, node)
		}
		m.bumpView(g, seq)
	}
}

// directorySyncLocked snapshots the group directory as an encoded
// membership-sync payload, or returns nil when there is nothing to
// share. Callers hold mu.
func (m *Mechanisms) directorySyncLocked(ringID uint64) []byte {
	if len(m.groups) == 0 {
		return nil
	}
	p := membershipSyncPayload{RingID: ringID}
	for _, g := range m.groups {
		p.Groups = append(p.Groups, syncGroup{
			ID:        g.id,
			Style:     g.style,
			ObjectKey: []byte(g.objectKey),
			View:      g.view,
			ViewSeq:   g.viewSeq,
			Members:   append([]memnet.NodeID(nil), g.members...),
		})
	}
	return encodeMembershipSync(p)
}

// deliverMembershipSync adopts the majority component's directory after
// a ring merge. It is delivered in total order, so every node applies
// the same snapshot at the same point; on the nodes that were already in
// the majority it is a no-op by content. Only the first sync for the
// current ring applies — later ones for the same ring are the identical
// snapshots of other majority nodes, and syncs for older rings are
// stale.
func (m *Mechanisms) deliverMembershipSync(msg Message) {
	p, err := decodeMembershipSync(msg.Payload)
	if err != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p.RingID != m.ringID || p.RingID <= m.syncApplied {
		return
	}
	m.syncApplied = p.RingID
	m.membershipSyncs.Add(1)
	for _, sg := range p.Groups {
		g, ok := m.groups[sg.ID]
		if !ok {
			g = &groupState{
				id:           sg.ID,
				style:        sg.Style,
				objectKey:    string(sg.ObjectKey),
				pendingJoins: make(map[memnet.NodeID]bool),
			}
			m.groups[sg.ID] = g
			if g.objectKey != "" {
				m.byKey[g.objectKey] = sg.ID
			}
		}
		g.members = append(g.members[:0], sg.Members...)
		g.view = sg.View
		g.viewSeq = sg.ViewSeq
		if g.local != nil && !g.isMember(m.cfg.NodeID) {
			// The majority evicted this node while it was away; whatever
			// membership it thinks it holds is void.
			g.local.close()
			g.local = nil
		}
		m.updatePrimary(g)
	}
	m.notifyChanged()
}

// updatePrimary recomputes the local replica's primary role; a backup of
// a passive group promoted to primary performs failover. Callers hold mu.
func (m *Mechanisms) updatePrimary(g *groupState) {
	if g.local == nil {
		return
	}
	isPrimary := len(g.members) > 0 && g.members[0] == m.cfg.NodeID
	if isPrimary && !g.local.primary {
		g.local.primary = true
		// Failover applies only to replicas that actually served as a
		// backup: a replica that is primary from its own join (the
		// group's first member) has nothing to recover.
		if g.local.wasBackup && g.style.passive() && g.local.app != nil {
			g.local.push(task{kind: taskFailover})
		}
	} else if !isPrimary {
		g.local.primary = false
		g.local.wasBackup = true
	}
}

// retriggerTransfers has the group's donor — its first member, if that
// is this node and it hosts a servant — queue a state capture for every
// joiner without one queued: the delta's own joiners, those a departed
// donor still owed, and those whose capture failed. It runs after
// updatePrimary, so a backup promoted by the same delta captures what it
// recovered. Callers hold mu.
func (m *Mechanisms) retriggerTransfers(g *groupState) {
	if g.local == nil || g.local.app == nil {
		return
	}
	if len(g.members) == 0 || g.members[0] != m.cfg.NodeID {
		return
	}
	for joiner, queued := range g.pendingJoins {
		if !queued && joiner != m.cfg.NodeID {
			g.local.push(task{kind: taskCaptureState, joiner: joiner})
			g.pendingJoins[joiner] = true
		}
	}
}

func (m *Mechanisms) deliverInvocation(hv HeaderView, raw []byte, ts uint64) {
	if !m.HasQuorum() {
		// Minority partition: refuse to advance replica state so the
		// majority's history stays the only history (reconciliation by
		// state transfer on merge).
		return
	}
	msg := hv.Message()
	// Everything the directory lock protects is collected in one read
	// section; the observer runs after release (see SetObserver). The
	// event loop is the only dispatcher, so it still sees invocations in
	// total order.
	m.mu.RLock()
	g, ok := m.groups[msg.Header.DstGroup]
	if !ok || g.local == nil {
		m.mu.RUnlock()
		return
	}
	observer := m.observers[g.id]
	var r *replica
	execute := true
	if g.local.app != nil {
		r = g.local
		// Only the primary of a passive group executes; backups log the
		// invocation stream for replay after failover.
		execute = r.primary || !g.style.passive()
	}
	m.mu.RUnlock()
	if observer != nil {
		observer(msg, ts)
	}
	if r == nil {
		return
	}
	m.tracer.Event(traceKey(msg.Header), obs.StageDeliver, string(m.cfg.NodeID))
	// The still-encoded GIOP request rides to the per-group executor,
	// which decodes it off the event loop and logs the raw wire form
	// instead of re-encoding it.
	r.push(task{kind: taskInvoke, msg: msg, raw: raw, ts: ts, execute: execute})
}

// deliverResponse routes a response to local pending invocations,
// suppressing duplicates by response identifier (paper section 3.3): the
// first copy is delivered and remembered, all subsequently received
// copies of the same operation identifier, and whatever arrives for a
// departed client, are discarded — from the header peek alone, never
// reaching the group directory or CDR. What is remembered is also the
// gateway group's record (section 3.5): see pendingShard.answered.
func (m *Mechanisms) deliverResponse(hv HeaderView, sender memnet.NodeID) {
	h := hv.Header
	key := opKey{src: h.SrcGroup, clientID: h.ClientID, op: h.Op}
	sh := m.pending.shard(key)

	sh.mu.Lock()
	waiting := len(sh.calls[key]) > 0
	answered := sh.answered.Has(key) || sh.answered.Has(departedKey(h.SrcGroup, h.ClientID))
	sh.mu.Unlock()
	if !waiting && answered {
		m.duplicateResponses.Add(1)
		m.responsesDiscardedEarly.Add(1)
		m.tracer.Event(traceKey(h), obs.StageDupSuppressed, string(m.cfg.NodeID)+"/response")
		return
	}
	// A first copy. With nobody waiting (another gateway's traffic, or a
	// caller that timed out) it still concerns the members of the group it
	// is addressed to, and nobody else.
	member, clientOnly := m.membership(h.DstGroup)
	if !waiting && !member {
		return
	}
	record := clientOnly && h.ClientID != UnusedClientID

	sh.mu.Lock()
	calls := sh.calls[key]
	for _, c := range calls {
		if c.votesNeeded > 0 {
			sh.mu.Unlock()
			m.deliverVotingResponse(hv, sh, key, sender, record)
			return
		}
	}
	// First-response delivery: this copy resolves every waiter. The
	// payload travels raw; each waiter decodes it off the event loop.
	for _, c := range calls {
		c.ch <- pendingResult{raw: hv.Payload}
	}
	delete(sh.calls, key)
	sh.remember(key, hv.Payload, record)
	sh.mu.Unlock()
	if len(calls) > 0 {
		m.responsesDelivered.Add(1)
	}
}

// deliverVotingResponse handles responses awaited by active-with-voting
// callers. Voting compares result bytes across replica copies, so —
// unlike the first-response path — every copy is decoded, on the event
// loop, until a majority agrees; the operation is remembered then, with
// the copy that completed the majority, so the record holds the value
// delivered and not whichever copy arrived first. A vote that ends
// without agreement delivered no copy and records none.
func (m *Mechanisms) deliverVotingResponse(hv HeaderView, sh *pendingShard, key opKey, sender memnet.NodeID, record bool) {
	wire, err := giop.Unmarshal(hv.Payload)
	if err != nil {
		return
	}
	rep, err := giop.DecodeReply(wire)
	if err != nil {
		return
	}

	sh.mu.Lock()
	calls := sh.calls[key]
	remaining := calls[:0]
	delivered, agreed := false, false
	for _, c := range calls {
		if c.votesNeeded == 0 {
			c.ch <- pendingResult{rep: rep}
			delivered, agreed = true, true
			continue // resolved; drop from pending
		}
		if c.responded[sender] {
			m.duplicateResponses.Add(1)
			remaining = append(remaining, c)
			continue
		}
		c.responded[sender] = true
		c.votes[string(rep.Result)]++
		if c.votes[string(rep.Result)] >= c.votesNeeded {
			c.ch <- pendingResult{rep: rep}
			delivered, agreed = true, true
			continue
		}
		if len(c.responded) >= c.expected {
			// All replicas answered without a majority: surface the
			// disagreement instead of hanging the caller.
			c.ch <- pendingResult{rep: giop.Reply{
				RequestID: rep.RequestID,
				Status:    giop.ReplySystemException,
				Result:    giop.SystemExceptionBody(giopOrder, "IDL:eternalgw/NO_AGREEMENT:1.0", minorNoAgreement, giop.CompletedMaybe),
			}}
			delivered = true
			continue
		}
		remaining = append(remaining, c)
	}
	if len(remaining) == 0 {
		delete(sh.calls, key)
	} else {
		sh.calls[key] = remaining
	}
	if delivered {
		sh.remember(key, hv.Payload, record && agreed)
	}
	sh.mu.Unlock()
	if delivered {
		m.responsesDelivered.Add(1)
	}
}

func (m *Mechanisms) deliverStateTransfer(msg Message) {
	p, err := decodeState(msg.Payload)
	if err != nil {
		return
	}
	m.mu.Lock()
	g, ok := m.groups[msg.Header.DstGroup]
	if !ok {
		m.mu.Unlock()
		return
	}
	delete(g.pendingJoins, p.Target)
	var r *replica
	if p.Target == m.cfg.NodeID && g.local != nil && g.local.app != nil {
		r = g.local
	}
	m.mu.Unlock()
	if r != nil {
		r.push(task{kind: taskApplyState, state: p})
	}
}

func (m *Mechanisms) deliverStateSync(msg Message) {
	p, err := decodeState(msg.Payload)
	if err != nil {
		return
	}
	m.mu.RLock()
	g, ok := m.groups[msg.Header.DstGroup]
	var r *replica
	if ok && g.local != nil && g.local.app != nil && !g.local.primary {
		r = g.local
	}
	m.mu.RUnlock()
	if r != nil {
		r.push(task{kind: taskApplySync, state: p})
	}
}
