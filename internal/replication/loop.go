package replication

import (
	"slices"

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

// minorBeyondWindow is the REPLY_DISCARDED minor code a replica answers a
// duplicate invocation with when its table holds the operation's
// identifier and no longer, or not yet here, its response (documented in
// docs/OPERATIONS.md). The operation ran, once, and is not run again:
// COMPLETED_YES.
const minorBeyondWindow uint32 = 1

// minorReplyTooLarge is the IMP_LIMIT minor code a replica answers with in
// place of a response longer than one datagram of the domain's transport
// carries (documented in docs/OPERATIONS.md). The operation ran and its
// effects stand: COMPLETED_YES.
const minorReplyTooLarge uint32 = 2

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
	case KindInvocation:
		m.deliverInvocation(hv, d, ts)
	case KindResponse:
		m.deliverResponse(hv, d)
	case KindStateSync:
		m.deliverStateSync(hv.Message())
	case KindGatewayControl:
		m.deliverGatewayControl(hv.Header)
	case KindCreateGroup, KindViewChange, KindDeleteGroup, KindStateTransfer, KindMembershipSync:
		m.deliverControl(hv.Message(), d.Sender, ts)
	}
}

// heldEvent is one thing a member whose directory is awaiting was
// delivered that the directory it adopts must still see: a control
// message — header, sender, payload copied out of the delivery arena,
// position in the total order — or, the header zero, a ring.
type heldEvent struct {
	h       Header
	from    memnet.NodeID
	payload []byte
	ts      uint64
	ring    totem.ConfigChange
}

// deliverControl takes the messages that read or write the group
// directory. One rule recovers a directory (DESIGN.md section 5): a
// member whose directory is awaiting holds them, in order — of the state
// transfers its own alone, another joiner's image is nothing a directory
// needs — until a snapshot arrives that answers a request it holds; that
// is then its directory, and what it held behind the request is replayed.
func (m *Mechanisms) deliverControl(msg Message, from memnet.NodeID, ts uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch {
	case !m.awaiting.Load():
		m.applyControl(msg, from, ts)
	case msg.Header.Kind == KindMembershipSync && len(msg.Payload) > 0:
		m.adopt(msg)
	case msg.Header.Kind != KindStateTransfer || stateTarget(msg.Payload) == m.cfg.NodeID:
		m.held = append(m.held, heldEvent{h: msg.Header, from: from, payload: append([]byte(nil), msg.Payload...), ts: ts})
	}
	m.notifyChanged()
}

// applyControl applies one control message, sent by from, to a directory
// that is not awaiting. A request is answered with a snapshot cut at its
// delivery — an empty directory's too: a processor new to the domain must
// not wait for ever — and a snapshot is ignored: only an awaiting member
// adopts. Callers hold mu.
func (m *Mechanisms) applyControl(msg Message, from memnet.NodeID, ts uint64) {
	switch msg.Header.Kind {
	case KindCreateGroup:
		m.deliverCreateGroup(msg, ts)
	case KindViewChange:
		m.deliverViewChange(msg, ts)
	case KindDeleteGroup:
		m.deliverDeleteGroup(msg)
	case KindStateTransfer:
		m.deliverStateTransfer(msg)
	case KindMembershipSync:
		if len(msg.Payload) == 0 {
			m.send(Message{Header: msg.Header, Payload: m.snapshot(from, ts)})
		}
	}
}

// send multicasts from the event loop. Multicast can block on the send
// queue, so it leaves the loop; Stop waits on wg for the hand-off.
func (m *Mechanisms) send(msg Message) {
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		_ = m.multicast(msg)
	}()
}

// deliverDeleteGroup retires a group at this node. Callers hold mu.
func (m *Mechanisms) deliverDeleteGroup(msg Message) {
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

// deliverCreateGroup enters a new group in the directory. Callers hold mu.
func (m *Mechanisms) deliverCreateGroup(msg Message, ts uint64) {
	p, err := decodeCreateGroup(msg.Payload)
	if err != nil {
		return
	}
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
// installs the same numbered view at the same sequence number. Callers
// hold mu.
func (m *Mechanisms) deliverViewChange(msg Message, ts uint64) {
	p, err := decodeViewChange(msg.Payload)
	if g, ok := m.groups[msg.Header.DstGroup]; ok && err == nil {
		m.applyView(g, p.Add, p.Remove, ts)
	}
}

// handleConfig reacts to a totem ring change. Nodes that left the ring are
// removed from every group, at a single point in the total order, so all
// survivors agree on the resulting memberships and on who is promoted.
// Whether this member's directory and replicas outlive the change is
// totem's verdict and nothing else (ConfigChange.Continues). Told it does
// not continue the history the ring keeps, it closes its servant replicas
// here, before any delivery of the ring reaches them — their state missed
// what that history executed; it rejoins groups only through placement —
// marks its directory awaiting and asks for a snapshot, and asks again at
// every later ring while still awaiting: whoever would have answered may
// be gone.
func (m *Mechanisms) handleConfig(c totem.ConfigChange) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.evictDeparted(c)
	if !c.Continues {
		for _, g := range m.groups {
			if g.local != nil && g.local.app != nil {
				g.local.close()
				g.local = nil
			}
		}
		m.awaiting.Store(true)
		m.held = nil // held in a history this member has now left as well
	} else if m.awaiting.Load() {
		m.held = append(m.held, heldEvent{ring: c})
	}
	if m.awaiting.Load() {
		// The ring it asks in tells this request from any other of this
		// member's, in whichever history: a member installs an id once.
		m.send(Message{Header: Header{Kind: KindMembershipSync, ClientID: UnusedClientID, Op: OperationID{ParentTS: c.RingID}}})
	}
	m.notifyChanged()
}

// evictDeparted removes the nodes that are not in the ring from every
// group: the failure-driven view change. Every member of the ring is told
// of it at the same point in the total order, so the ring identifier
// stands in for a membership message's timestamp. Callers hold mu.
func (m *Mechanisms) evictDeparted(c totem.ConfigChange) {
	for _, g := range m.groups {
		var gone []memnet.NodeID
		for _, node := range g.members {
			if !slices.Contains(c.Members, node) {
				gone = append(gone, node)
			}
		}
		m.applyView(g, nil, gone, c.RingID)
	}
}

// snapshot encodes the group directory as it stands at cut, the
// total-order position of the request from asker that it answers. Callers
// hold mu.
func (m *Mechanisms) snapshot(asker memnet.NodeID, cut uint64) []byte {
	p := membershipSyncPayload{Asker: asker, Cut: cut}
	for _, g := range m.groups {
		p.Groups = append(p.Groups, syncGroup{
			ID:        g.id,
			Style:     g.style,
			ObjectKey: []byte(g.objectKey),
			View:      g.view,
			ViewSeq:   g.viewSeq,
			Members:   g.members,
		})
	}
	return encodeMembershipSync(p)
}

// adopt makes a snapshot this member's directory, if it answers a request
// the member holds: it has held, since, everything the snapshot cannot
// know, and replays it. A request is known by who asked, in which ring
// (the header, which the snapshot echoes) and where it landed: a snapshot
// a member of a discarded history had still to send is ordered in this one
// all the same, its cut a number of that history's. Adoption is wholesale:
// a group the snapshot does not list is gone, this node's replicas carry
// over where it is still listed, and where it is listed and hosts nothing
// — the kept history never saw it go — it says so. Callers hold mu, while
// awaiting.
func (m *Mechanisms) adopt(snapshot Message) {
	p, err := decodeMembershipSync(snapshot.Payload)
	at := slices.IndexFunc(m.held, func(h heldEvent) bool { return h.h == snapshot.Header && h.from == p.Asker && h.ts == p.Cut })
	if err != nil || at < 0 {
		return
	}
	old, replay := m.groups, m.held[at+1:]
	m.groups, m.byKey, m.held = make(map[GroupID]*groupState, len(p.Groups)), make(map[string]GroupID, len(p.Groups)), nil
	for _, sg := range p.Groups {
		g := &groupState{id: sg.ID, style: sg.Style, objectKey: string(sg.ObjectKey), members: sg.Members,
			pendingJoins: make(map[memnet.NodeID]bool), view: sg.View, viewSeq: sg.ViewSeq}
		if o := old[g.id]; o != nil && g.isMember(m.cfg.NodeID) {
			g.local, o.local = o.local, nil
			m.updatePrimary(g)
		}
		m.groups[g.id] = g
		if g.objectKey != "" {
			m.byKey[g.objectKey] = g.id
		}
	}
	for id, o := range old {
		if o.local != nil {
			o.local.close()
		}
		if m.groups[id] == nil {
			delete(m.observers, id)
		}
	}
	m.awaiting.Store(false)
	m.membershipSyncs.Add(1)
	for _, h := range replay {
		switch h.h.Kind {
		case 0:
			m.evictDeparted(h.ring)
		case KindMembershipSync: // a request delivered to an awaiting member was not its to answer
		default:
			m.applyControl(Message{Header: h.h, Payload: h.payload}, h.from, h.ts)
		}
	}
	for id, g := range m.groups {
		if g.local == nil && g.isMember(m.cfg.NodeID) {
			delete(m.prearmed, id) // its join was ordered ahead of the cut, out of this member's sight
			m.send(viewChange(id, viewChangePayload{Remove: []memnet.NodeID{m.cfg.NodeID}}))
		}
	}
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

func (m *Mechanisms) deliverInvocation(hv HeaderView, d totem.Delivery, ts uint64) {
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
	r.push(task{kind: taskInvoke, msg: msg, raw: d.Payload, sole: d.Sole, ts: ts, execute: execute})
}

// deliverResponse routes a response to local pending invocations,
// suppressing duplicates by response identifier (paper section 3.3): the
// first copy is delivered and remembered, all subsequently received
// copies of the same operation identifier, and whatever arrives for a
// departed client, are discarded — from the header peek alone, never
// reaching the group directory or CDR. What is remembered is also the
// gateway group's record (section 3.5): see pendingShard.answered.
func (m *Mechanisms) deliverResponse(hv HeaderView, d totem.Delivery) {
	h := hv.Header
	key := h.key()
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
			m.deliverVotingResponse(hv, d, sh, key, record)
			return
		}
	}
	// First-response delivery: this copy resolves every waiter. The
	// payload travels raw; each waiter decodes it off the event loop.
	for _, c := range calls {
		c.ch <- pendingResult{raw: hv.Payload}
	}
	delete(sh.calls, key)
	sh.remember(key, hv.Payload, d.Sole, record)
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
func (m *Mechanisms) deliverVotingResponse(hv HeaderView, d totem.Delivery, sh *pendingShard, key opKey, record bool) {
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
		if c.responded[d.Sender] {
			m.duplicateResponses.Add(1)
			remaining = append(remaining, c)
			continue
		}
		c.responded[d.Sender] = true
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
		sh.remember(key, hv.Payload, d.Sole, record && agreed)
	}
	sh.mu.Unlock()
	if delivered {
		m.responsesDelivered.Add(1)
	}
}

// deliverStateTransfer hands a recovery image to the joiner it is for, if
// that is this node. Callers hold mu.
func (m *Mechanisms) deliverStateTransfer(msg Message) {
	p, err := decodeState(msg.Payload)
	g, ok := m.groups[msg.Header.DstGroup]
	if err != nil || !ok {
		return
	}
	delete(g.pendingJoins, p.Target)
	if p.Target == m.cfg.NodeID && g.local != nil && g.local.app != nil {
		g.local.push(task{kind: taskApplyState, state: p})
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
