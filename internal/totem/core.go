package totem

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eternalgw/internal/cdr"
	"eternalgw/internal/memnet"
)

const (
	// activeWindowHolds is how many IdleHolds after the last observed
	// application traffic the ring keeps rotating on shortened holds.
	activeWindowHolds = 8
	// skipAge is how many unsatisfied full token rotations a
	// retransmission request survives before the leader declares the
	// message unrecoverable and skips it.
	skipAge = 4
	// maxRtr bounds the retransmission requests one token carries; what
	// does not fit is asked for on a later rotation.
	maxRtr = 256
)

// deadline indexes the core's one table of wake-up times.
type deadline int

const (
	dlFail        deadline = iota // no ring traffic for FailTimeout: start membership recovery
	dlHold                        // an idle token has been held long enough: forward it
	dlTokenResend                 // no evidence the forwarded token arrived: resend it
	dlGather                      // the alive set has been stable for GatherTimeout: install the ring
	dlHeartbeat                   // sequencer: check the members' acks and re-announce the epoch
	dlFwdResend                   // follower: forwards are still unordered; resend them
	dlAck                         // follower: a stability report is due
	dlRefNak                      // follower: a parked reference has waited for its forward long enough
	numDeadlines
)

// core is the ring protocol as one state machine. It owns all ring
// state and performs no I/O: no goroutine, channel, timer or clock
// read. It is entered through receive, submit and tick, each told the
// time by its caller; next says when it must be ticked again; and it
// acts on the world through two hooks. Node (node.go) drives one over a
// Transport in real time, the tests drive several over a scripted
// network in virtual time.
type core struct {
	cfg          Config
	broadcastRaw func([]byte) // sends one datagram to every member, this one included
	emit         func(Event)  // hands the application its next ordered event

	mu           sync.Mutex // guards the mirrors behind Node's accessors
	curMembers   []memnet.NodeID
	curRing      uint64
	curLeader    memnet.NodeID
	curLeaderSeq uint64

	broadcastN     atomic.Uint64
	deliveredN     atomic.Uint64
	retransmittedN atomic.Uint64
	skippedN       atomic.Uint64
	resumedN       atomic.Uint64
	tokenPassN     atomic.Uint64
	reconfigN      atomic.Uint64
	packedMsgN     atomic.Uint64
	packedPartN    atomic.Uint64
	forwardedN     atomic.Uint64
	leaderBatchN   atomic.Uint64
	refN           atomic.Uint64
	refMissN       atomic.Uint64
	promotionN     atomic.Uint64
	demotionN      atomic.Uint64
	// pendingN mirrors the payloads submitted and not yet ordered, so
	// Backlog can report send-queue depth without touching protocol state.
	pendingN atomic.Int64
	// mirrors of the sequencer's position for the stability-lag gauge
	fpSeqA    atomic.Uint64
	fpStableA atomic.Uint64

	now       time.Time // when the step in progress began, by its caller's clock
	waiting   int       // datagrams the transport held behind that step
	deadlines [numDeadlines]time.Time

	ring         []memnet.NodeID
	ringID       uint64
	gathering    bool
	buffer       map[uint64]regularMsg
	skipped      map[uint64]bool
	deliveredSeq uint64 // contiguous received-and-delivered watermark (local aru)
	highest      uint64
	gcThrough    uint64 // stability horizon the last gc collected through
	pending      [][]byte
	lastTokenID  uint64
	sentTokenID  uint64  // the token this node last forwarded in this ring; zero before the first
	ids          idTable // the ring's member ids, for allocation-free decoding
	// stood is the ring whose history this node holds: the last it
	// installed whose verdict it knows — no token of a later one need have
	// reached it. Until it knows the present ring's (unchecked) it delivers
	// nothing: a member sent to the horizon must not have delivered ahead.
	stood     ringRef
	unchecked bool

	lastSentToken *token
	heldToken     *token
	// lastTrafficAt is when this node last saw application traffic (a
	// new regular broadcast, local or remote). Within activeWindowHolds
	// idle holds of it the token is forwarded on a shortened hold.
	lastTrafficAt time.Time

	alive    map[memnet.NodeID]bool
	joins    map[memnet.NodeID]joinMsg // the latest join heard from each candidate
	proposed uint64                    // the ring id this gather will install

	fp epoch // the leader-ordered fast path (leader.go); zero while the token rotates
}

// newCore returns a processor that has no ring yet: its fail deadline is
// already due, so the first tick starts the founding gather.
func newCore(cfg Config, now time.Time, broadcastRaw func([]byte), emit func(Event)) *core {
	n := &core{
		cfg:          cfg,
		broadcastRaw: broadcastRaw,
		emit:         emit,
		buffer:       make(map[uint64]regularMsg),
		skipped:      make(map[uint64]bool),
	}
	n.deadlines[dlFail] = now
	return n
}

func (n *core) arm(d deadline, in time.Duration) { n.deadlines[d] = n.now.Add(in) }

func (n *core) armed(d deadline) bool { return !n.deadlines[d].IsZero() }

func (n *core) disarm(ds ...deadline) {
	for _, d := range ds {
		n.deadlines[d] = time.Time{}
	}
}

func (n *core) due(d deadline) bool { return n.armed(d) && !n.deadlines[d].After(n.now) }

// next is the earliest armed deadline, zero when there is none: when
// the core must next be ticked if nothing else happens first.
func (n *core) next() time.Time {
	var next time.Time
	for _, at := range n.deadlines {
		if !at.IsZero() && (next.IsZero() || at.Before(next)) {
			next = at
		}
	}
	return next
}

// tick is the step for the passage of time: it acts on every deadline
// that is due. waiting is how many datagrams the transport holds.
//
// gwlint:simroot
func (n *core) tick(now time.Time, waiting int) {
	n.now, n.waiting = now, waiting
	if n.due(dlHold) {
		n.finishHold()
	}
	if n.due(dlTokenResend) {
		// No evidence of progress since forwarding: resend the token.
		n.broadcastRaw(encodeToken(*n.lastSentToken))
		n.arm(dlTokenResend, n.cfg.TokenRetransmit)
	}
	if n.due(dlGather) {
		n.installRing()
	}
	if n.due(dlHeartbeat) {
		n.leaderHeartbeat()
	}
	if n.due(dlFwdResend) {
		n.resendForwards()
	}
	if n.due(dlAck) || n.due(dlRefNak) {
		n.sendAck()
	}
	if n.due(dlFail) {
		n.startGather()
	}
}

// submit is the step for application payloads: they join the send queue
// and are ordered as soon as the mode allows.
//
// gwlint:simroot
func (n *core) submit(now time.Time, payloads [][]byte) {
	n.now = now
	n.pending = append(n.pending, payloads...)
	n.noteBacklog()
	switch {
	case n.sequencing():
		n.leaderOrderPending()
	case n.fp.leader != "":
		n.forwardPending()
	default:
		// Token pacing belongs to ring mode alone: a leader epoch leaves
		// lastTrafficAt untouched, so a demotion right after a submission
		// starts rotation from a clean pacing state.
		n.lastTrafficAt = now
		if n.heldToken != nil {
			// The token is parked here idle: broadcast and pass it on. Not
			// a second visit — the rotation's accounting was done when the
			// token arrived, and the leader's may not be done twice.
			n.broadcastPending(n.heldToken)
			n.finishHold()
		}
	}
}

// receive is the step for one datagram off the transport; waiting is
// how many more the transport holds behind it.
//
// gwlint:simroot
func (n *core) receive(now time.Time, datagram []byte, waiting int) {
	n.now, n.waiting = now, waiting
	if len(datagram) == 0 {
		return
	}
	r := cdr.NewReader(datagram, cdr.BigEndian)
	switch r.ReadOctet() {
	case kindRegular:
		if m, err := decodeRegular(r, n.ids); err == nil {
			n.handleRegular(m)
		}
	case kindPacked:
		if m, err := decodePacked(r, n.ids); err == nil {
			n.handleRegular(m)
		}
	case kindToken:
		if t, err := decodeToken(r, n.ids); err == nil {
			n.handleToken(t)
		}
	case kindJoin:
		if j, err := decodeJoin(r); err == nil {
			n.handleJoin(j)
		}
	case kindForward:
		if f, err := decodeForward(r, n.ids); err == nil {
			n.handleForward(f)
		}
	case kindBatch:
		if b, err := decodeBatch(r, n.ids); err == nil {
			n.handleBatch(b)
		}
	case kindAck:
		// Everyone receives acks, only the sequencer consumes them.
		if a, err := decodeAck(r, n.ids, n.sequencing()); err == nil {
			n.handleAck(a)
		}
	case kindPromote:
		if p, err := decodePromote(r, n.ids); err == nil {
			n.handlePromote(p)
		}
	}
}

// admit is the one gate every ring datagram passes before its handler
// looks at it. ringID is the ring it was sent in, from the member it
// speaks for (a message's sender, a token's addressee, an epoch's
// sequencer), ordered whether it carries sequenced payloads. Four
// outcomes, the first alone admitting the datagram:
//
//   - this ring, from a member: processed. While gathering that holds
//     for ordered traffic only — recovery needs every message of the
//     old ring a survivor holds — and the rest waits for the install.
//   - a newer ring: this node missed a membership change; rejoin.
//   - an older ring, or this ring's id, from a stranger: a concurrent
//     foreign ring (both sides of a partition count their ring ids up in
//     lockstep, so an equal id proves nothing); merge with it.
//   - an older ring from a member: stale, ignored.
//
// Rejoining and merging are both membership recovery.
func (n *core) admit(ringID uint64, from memnet.NodeID, ordered bool) bool {
	switch member := n.inRing(from); {
	case ringID == n.ringID && member:
		return ordered || !n.gathering
	case n.gathering:
	case ringID > n.ringID, !member:
		n.startGather()
	}
	return false
}

func (n *core) handleRegular(m regularMsg) {
	// A retransmission speaks for whoever retransmits it: it carries this
	// ring's id in the name of its sender, which may have left rings ago.
	from := m.Sender
	if m.Via != "" {
		from, m.Via = m.Via, ""
	}
	if !n.admit(m.RingID, from, true) {
		return
	}
	if m.Seq <= n.deliveredSeq || n.skipped[m.Seq] {
		return // already delivered or declared unrecoverable
	}
	if _, ok := n.buffer[m.Seq]; ok {
		return // duplicate
	}
	// Genuinely new ring traffic counts as liveness; duplicates and
	// stale retransmissions above do not, so a wedged ring (dead token
	// holder, endlessly resent stale token) still trips the fail timer.
	n.touchLiveness()
	if n.fp.leader == "" {
		n.lastTrafficAt = n.now // token pacing; see submit
	}
	n.buffer[m.Seq] = m
	if m.Seq > n.highest {
		n.highest = m.Seq
	}
	// Evidence of ring progress cancels a pending token resend.
	if n.lastSentToken != nil && m.Seq > n.lastSentToken.Seq {
		n.clearTokenResend()
	}
	n.tryDeliver()
	if n.following() {
		n.scheduleAck() // the watermark may have moved
	}
}

func (n *core) handleToken(t token) {
	// A promotion retired its ring's token: in an epoch anything still
	// in flight is a stale resend, and it is not liveness — the
	// sequencer's batches and heartbeats are. A token at or below the
	// last one seen is a retransmission, deliberately not liveness
	// either: a ring wedged on a dead member sees only resends of the
	// same token, and must still reconfigure.
	if !n.admit(t.RingID, t.Succ, false) || n.fp.leader != "" || t.TokenID <= n.lastTokenID {
		return
	}
	if t.Succ == n.successor() && t.TokenID != n.sentTokenID {
		// Nobody but this node addresses its successor, and this is not
		// the token it forwarded: another ring is running under this
		// ring's id. Gathering is not atomic, so two members can install
		// different lists under one id; left alone, each side's tokens pass
		// for the other's liveness and a member both sides skip waits for
		// ever.
		n.startGather()
		return
	}
	n.lastTokenID = t.TokenID
	n.touchLiveness()
	// Progress evidence: a token newer than the one we forwarded means
	// the successor processed ours, so stop retransmitting it. Our own
	// broadcast echo carries exactly the TokenID we sent and must not
	// count as evidence.
	if n.lastSentToken != nil && t.TokenID > n.lastSentToken.TokenID {
		n.clearTokenResend()
	}
	n.checkIn(t)
	if t.Succ != n.cfg.ID {
		// Token observed in passing (tokens are broadcast so every node
		// can use them for liveness, merge detection and the check-in).
		return
	}
	n.clearTokenResend()
	n.processToken(t)
}

// checkIn is what the first token of a new ring that reaches this node
// does, whoever it is addressed to: it says whose history the ring keeps,
// and the application is told of the ring with that verdict, ahead of
// everything the ring delivers.
func (n *core) checkIn(t token) {
	if !n.unchecked {
		return
	}
	continues := t.History == n.stood
	n.unchecked, n.stood = false, n.installed()
	if !continues {
		// This ring keeps a history this node does not hold. What it
		// buffered is numbered in a dead sequence space and must never be
		// retransmitted into the ring; what the history ordered before
		// this ring nobody owes it. Resume where the members the token
		// has visited stand, as a processor that was never there: what
		// they hold above that they keep until a rotation with this node
		// in it has confirmed it.
		clear(n.buffer)
		clear(n.skipped)
		n.deliveredSeq, n.highest, n.gcThrough = t.Aru, t.Aru, t.Aru
		n.resumedN.Add(1)
	}
	n.emit(Event{Type: EventConfig, Config: ConfigChange{RingID: n.ringID, Members: n.ring, Continues: continues}})
	n.tryDeliver()
}

// processToken performs one token visit: apply skips, serve and update
// retransmission requests, broadcast pending messages, maintain the aru
// watermark, age requests (leader only), then forward.
func (n *core) processToken(t token) {
	work := false

	// Apply the skip list: declared-unrecoverable sequence numbers count
	// as received-but-empty so delivery can proceed past them.
	for _, s := range t.Skip {
		if _, have := n.buffer[s]; !have && s > n.deliveredSeq {
			n.skipped[s] = true
		}
	}
	n.tryDeliver()

	// Serve retransmission requests we can satisfy. A request is dropped
	// only once served, skipped, or below the confirmed stability
	// watermark (which proves the requester received it); a node must
	// not drop requests merely because it has delivered past them
	// itself.
	kept := t.Rtr[:0]
	for _, e := range t.Rtr {
		if m, ok := n.buffer[e.Seq]; ok {
			n.rebroadcastOrdered(e.Seq, m)
			work = true
			continue
		}
		if n.skipped[e.Seq] && !slices.Contains(t.Skip, e.Seq) {
			t.Skip = append(t.Skip, e.Seq) // declared on a token that never reached the requester: say it again
		}
		if n.skipped[e.Seq] || e.Seq <= t.Stable {
			continue // resolved
		}
		kept = append(kept, e)
	}
	t.Rtr = kept

	// Request what we are missing.
	for s := n.deliveredSeq + 1; s <= t.Seq && len(t.Rtr) < maxRtr; s++ {
		if _, ok := n.buffer[s]; ok || n.skipped[s] {
			continue
		}
		if !t.hasRtr(s) {
			t.Rtr = append(t.Rtr, rtrEntry{Seq: s})
		}
	}

	if n.broadcastPending(&t) {
		work = true
	}

	// Stability accounting. Every node folds its own all-received-up-to
	// watermark into the rotation minimum. When the token reaches the
	// leader, the accumulated minimum covers every member's report since
	// the leader's previous visit — one full rotation — so the leader
	// promotes it to the confirmed Stable watermark and starts a fresh
	// rotation minimum. Garbage collection uses only Stable, which
	// guarantees no node discards a message some member still lacks.
	myAru := n.deliveredSeq
	if myAru < t.Aru {
		t.Aru = myAru
	}
	isLeader := n.ring[0] == n.cfg.ID
	if isLeader {
		if t.Aru > t.Stable && t.TokenID > 1 { // its first visit closes no rotation
			t.Stable = t.Aru
			work = true
		}
		t.Aru = myAru
	}

	// Garbage-collect messages everyone is confirmed to have received.
	n.gc(t.Stable)
	t.Skip = slices.DeleteFunc(t.Skip, func(s uint64) bool { return s <= t.Stable })

	// The leader ages unsatisfied requests once per rotation; requests
	// that survive skipAge rotations are declared unrecoverable: no
	// surviving member holds the message (and therefore none delivered
	// it), so agreement is preserved by skipping it everywhere.
	if isLeader {
		kept = t.Rtr[:0]
		for _, e := range t.Rtr {
			e.Age++
			if e.Age > skipAge {
				t.Skip = append(t.Skip, e.Seq)
				if e.Seq > n.deliveredSeq {
					n.skipped[e.Seq] = true
				}
				n.skippedN.Add(1)
				work = true
				continue
			}
			kept = append(kept, e)
		}
		t.Rtr = kept
		n.tryDeliver()
	}

	// Leader-ordered fast path: once the ring is mature and fully
	// quiescent — every assigned sequence number delivered everywhere,
	// nothing outstanding — the current holder promotes to sequencer and
	// retires the token instead of forwarding it. The quiescence
	// condition makes the switch sequence exact: every node has delivered
	// precisely through t.Seq in ring order, so t.Seq is the agreed
	// boundary between token-ordered and leader-ordered traffic.
	if n.cfg.Ordering == OrderingLeader &&
		t.TokenID > uint64(2*len(n.ring)) &&
		t.Stable == t.Seq && n.deliveredSeq == t.Seq &&
		len(t.Rtr) == 0 && len(t.Skip) == 0 {
		n.promote(t)
		return
	}

	// Forward immediately if this visit did work or left work pending;
	// otherwise hold before forwarding so an idle ring does not spin.
	// Within the active window of the last traffic the hold is cut to a
	// quarter: a request submitted at any member mid-conversation meets
	// the token after short holds instead of full idle holds, while the
	// shortened hold still paces rotation enough that token processing
	// does not crowd out payload delivery (a zero hold here floods every
	// member's event loop with token broadcasts and makes latency worse).
	n.heldToken = &t
	if work || len(t.Rtr) > 0 || t.Aru < t.Seq {
		n.finishHold()
		return
	}
	hold := n.cfg.IdleHold
	if n.now.Sub(n.lastTrafficAt) < activeWindowHolds*n.cfg.IdleHold {
		hold /= 4
	}
	n.arm(dlHold, hold)
}

// broadcastPending broadcasts the send queue under the token's sequence
// numbers, at most MaxBurst messages per visit so one busy member cannot
// hold the token, and reports whether there was anything to send.
func (n *core) broadcastPending(t *token) bool {
	drained := 0
	for burst := n.cfg.MaxBurst; drained < len(n.pending) && burst > 0; burst-- {
		t.Seq++
		// A single payload takes the plain form: identical wire bytes to
		// the pre-packing protocol.
		m := regularMsg{RingID: n.ringID, Seq: t.Seq, Sender: n.cfg.ID}
		drained, m.Payload, m.Parts = n.nextPack(drained)
		n.buffer[t.Seq] = m
		if t.Seq > n.highest {
			n.highest = t.Seq
		}
		n.broadcastRaw(encodeRegular(m))
		n.broadcastN.Add(1)
	}
	n.compactPending(drained)
	n.tryDeliver()
	return drained > 0
}

// finishHold forwards the held token to the ring successor.
func (n *core) finishHold() {
	t := n.heldToken
	n.heldToken = nil
	n.disarm(dlHold)
	t.TokenID++
	t.Succ = n.successor()
	n.lastSentToken, n.sentTokenID = t, t.TokenID
	n.arm(dlTokenResend, n.cfg.TokenRetransmit)
	n.broadcastRaw(encodeToken(*t))
	n.tokenPassN.Add(1)
}

// successor returns the next member after this node on the ring.
func (n *core) successor() memnet.NodeID {
	return n.ring[(slices.Index(n.ring, n.cfg.ID)+1)%len(n.ring)]
}

func (n *core) clearTokenResend() {
	n.lastSentToken = nil
	n.disarm(dlTokenResend)
}

// tryDeliver delivers buffered messages in contiguous sequence order,
// each payload of a packed message as its own delivery, ordered within
// the message by its sub-index.
func (n *core) tryDeliver() {
	for !n.unchecked {
		next := n.deliveredSeq + 1
		if n.skipped[next] {
			n.deliveredSeq = next
			continue
		}
		m, ok := n.buffer[next]
		if !ok {
			return
		}
		n.deliveredSeq = next
		for i := 0; i < int(partCount(m.Parts)); i++ {
			p := m.Payload
			if m.Parts != nil {
				p = m.Parts[i]
			}
			n.deliveredN.Add(1)
			n.emit(Event{Type: EventDeliver, Delivery: Delivery{
				Seq:     m.Seq,
				Sub:     uint32(i),
				RingID:  m.RingID,
				Sender:  m.Sender,
				Payload: p,
			}})
		}
	}
}

// gc discards what is kept per sequence number — buffered and skipped
// entries, the sequencer's forward identities, a follower's parked
// references — at or below the stability watermark: every ring member
// has received them. Sequence numbers are dense, so each call walks only
// what the horizon newly covers, not the backlog above it; a horizon
// that jumps further than everything kept (a joiner's first, or a forged
// one) walks the tables instead.
func (n *core) gc(aru uint64) {
	if aru <= n.gcThrough {
		return
	}
	if aru-n.gcThrough <= uint64(len(n.buffer)+len(n.skipped)+len(n.fp.batchOrigin)+len(n.fp.parked)) {
		for s := n.gcThrough + 1; s <= aru; s++ {
			delete(n.buffer, s)
			delete(n.skipped, s)
			delete(n.fp.batchOrigin, s)
			delete(n.fp.parked, s)
		}
	} else {
		dropThrough(n.buffer, aru)
		dropThrough(n.skipped, aru)
		dropThrough(n.fp.batchOrigin, aru)
		dropThrough(n.fp.parked, aru)
	}
	n.gcThrough = aru
}

// dropThrough deletes the entries of m at or below aru by visiting all
// of m.
func dropThrough[V any](m map[uint64]V, aru uint64) {
	for s := range m {
		if s <= aru {
			delete(m, s)
		}
	}
}

func (n *core) touchLiveness() {
	if !n.gathering {
		n.arm(dlFail, n.cfg.FailTimeout)
	}
}

func (n *core) inRing(id memnet.NodeID) bool { return slices.Contains(n.ring, id) }

// installed names the ring this node last installed; zero before the
// first.
func (n *core) installed() ringRef {
	if len(n.ring) == 0 {
		return ringRef{}
	}
	return ringRef{ID: n.ringID, List: listDigest(n.ring)}
}

// startGather begins membership recovery.
func (n *core) startGather() {
	if n.fp.leader != "" {
		// Any fall into membership recovery from leader mode is a
		// demotion: the ring rotates again until a fresh promotion.
		n.demotionN.Add(1)
		n.leaveLeaderMode()
	}
	n.gathering = true
	n.heldToken = nil
	n.clearTokenResend()
	n.disarm(dlHold, dlFail)
	n.alive = map[memnet.NodeID]bool{n.cfg.ID: true}
	if n.ring == nil {
		// A founding gather starts from the configured members, so all
		// founders install the same first ring without waiting out a
		// failure timeout.
		for _, m := range n.cfg.Members {
			n.alive[m] = true
		}
	}
	n.joins = make(map[memnet.NodeID]joinMsg)
	if next := n.ringID + 1; next > n.proposed {
		n.proposed = next
	}
	n.arm(dlGather, n.cfg.GatherTimeout)
	n.sendJoin()
}

// join is what this node has to say to a gather right now: the sorted
// candidate set, and where it stands in which ring's history (stood: a
// ring it installed and heard no verdict of is not its history, whatever
// that ring went on to keep — DESIGN.md section 5).
func (n *core) join() joinMsg {
	alive := make([]memnet.NodeID, 0, len(n.alive))
	for id := range n.alive {
		alive = append(alive, id)
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i] < alive[j] })
	return joinMsg{
		Sender:  n.cfg.ID,
		Alive:   alive,
		RingID:  n.proposed,
		Last:    n.stood,
		Highest: n.highest,
		Aru:     n.deliveredSeq,
	}
}

func (n *core) sendJoin() {
	j := n.join()
	n.joins[n.cfg.ID] = j
	n.broadcastRaw(encodeJoin(j))
}

func (n *core) handleJoin(j joinMsg) {
	if !n.gathering {
		// A join is a reason to gather exactly when the gate says so; the
		// echo of a gather this node already installed is not.
		n.admit(j.RingID, j.Sender, false)
		if !n.gathering {
			return
		}
	}
	changed := false
	if !n.alive[j.Sender] {
		n.alive[j.Sender] = true
		changed = true
	}
	for _, id := range j.Alive {
		if !n.alive[id] {
			n.alive[id] = true
			changed = true
		}
	}
	n.joins[j.Sender] = j
	if j.RingID > n.proposed {
		n.proposed = j.RingID
		changed = true
	}
	if changed {
		n.arm(dlGather, n.cfg.GatherTimeout)
		n.sendJoin()
	}
}

// installRing ends the gather phase: the stable alive set becomes the new
// ring, and the lowest-id member generates the new token.
func (n *core) installRing() {
	me := n.join()
	n.joins[n.cfg.ID] = me
	members := me.Alive
	n.unchecked = true
	// One verdict needs no token: every member was heard proposing this
	// ring from the history this node holds, so the creator, whichever
	// joins it heard, can name no other. Such a ring is checked into here,
	// and its members are one component at the next gather even if it
	// wedges before a token has reached them all.
	unanimous := true
	for _, id := range members {
		unanimous = unanimous && n.joins[id].RingID == n.proposed && n.joins[id].Last == n.stood
	}
	n.ring = members
	n.ids = newIDTable(members)
	n.ringID = n.proposed
	n.gathering = false
	n.lastTokenID, n.sentTokenID = 0, 0
	n.disarm(dlGather)
	n.arm(dlFail, n.cfg.FailTimeout)
	n.reconfigN.Add(1)
	// Start the new ring's pacing clock now: after a promotion/demotion
	// cycle the previous epoch's traffic timestamps must not add idle
	// holds to (or remove them from) the first post-switch rotations.
	n.lastTrafficAt = n.now

	n.mu.Lock()
	n.curMembers = members
	n.curRing = n.ringID
	n.mu.Unlock()

	if unanimous {
		n.checkIn(token{History: n.stood})
	}
	if members[0] != n.cfg.ID {
		return
	}
	// Leader: create the first token of the new ring. One history
	// survives a merge, and this is the one place that says which: the
	// joins heard are grouped by the ring whose history their sender
	// holds, and the largest component's — of equals the one with the
	// lowest member id — is kept. The token names it and takes Seq and Aru
	// from its joins alone; whoever holds another resumes at Aru (checkIn),
	// so a returner's old watermark cannot pin the horizon nor a
	// partitioned member's numbering enter the ring. Whenever a join names
	// a ring the token names one: every ring but a founding one, which all
	// continue, has a member that continues — a donor for whoever does
	// not. (Raising the horizon to the highest any join reports instead is
	// not safe: a singleton that stayed busy while partitioned reports the
	// highest, and the majority would jump over its own undelivered
	// messages.) A member known only through another's alive list
	// contributes nothing and may stand below every join heard, so Stable
	// starts from nothing: what may be collected is what a full rotation,
	// that member in it, has confirmed (processToken).
	votes := make(map[ringRef]int)
	for _, id := range members {
		if last := n.joins[id].Last; last != (ringRef{}) {
			votes[last]++
		}
	}
	t := token{RingID: n.ringID, TokenID: 1}
	for _, id := range members {
		if last := n.joins[id].Last; votes[last] > votes[t.History] {
			t.History = last
		}
	}
	first := true
	for _, id := range members {
		j, heard := n.joins[id]
		if !heard || j.Last != t.History {
			continue
		}
		t.Seq = max(t.Seq, j.Highest)
		if first || j.Aru < t.Aru {
			t.Aru, first = j.Aru, false
		}
	}
	// Process the fresh token as if it had just arrived addressed to us.
	n.lastTokenID = t.TokenID
	n.checkIn(t)
	n.processToken(t)
}

// hasRtr reports whether seq already has a retransmission request.
func (t token) hasRtr(seq uint64) bool {
	for _, e := range t.Rtr {
		if e.Seq == seq {
			return true
		}
	}
	return false
}
