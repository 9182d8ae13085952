package totem

import (
	"slices"
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
	dlGather                      // the candidate set has been stable for GatherTimeout: wait for its commit
	dlCommit                      // the commit has installed no ring in half a FailTimeout — two rotations, tokens resent: gather again
	dlHeartbeat                   // sequencer: check the members' acks and re-announce the epoch
	dlFwdResend                   // follower: forwards are still unordered; resend them
	dlAck                         // follower: a stability report is due
	dlRefNak                      // follower: a parked reference has waited for its forward long enough
	numDeadlines
)

// Core is the ring protocol as one state machine. It owns all ring
// state and performs no I/O: no goroutine, channel, timer or clock
// read. It is entered through Receive, Submit and Tick, each told the
// time by its caller; Next says when it must be ticked again; and it
// acts on the world through two hooks. It has three drivers: Node
// (node.go) steps one over a Transport in real time, the package's
// tests (vnet_test.go) and internal/sim step many over a seeded network
// in virtual time. A Core is not safe for concurrent use: its driver
// makes one step at a time, and never from inside a hook.
type Core struct {
	cfg       Config
	broadcast func([]byte) // sends one datagram to every member, this one included
	emit      func(Event)  // hands the application its next ordered event

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
	gatherN        atomic.Uint64
	packedMsgN     atomic.Uint64
	packedPartN    atomic.Uint64
	forwardedN     atomic.Uint64
	leaderBatchN   atomic.Uint64
	refN           atomic.Uint64
	refMissN       atomic.Uint64
	promotionN     atomic.Uint64
	demotionN      atomic.Uint64
	framedInPlaceN atomic.Uint64
	framedByCopyN  atomic.Uint64
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
	pending      []submission
	lastTokenID  uint64
	ids          idTable // the ring's member ids, for allocation-free decoding

	lastSentToken *token
	heldToken     *token
	// lastTrafficAt is when this node last saw application traffic (a
	// new regular broadcast, local or remote). Within activeWindowHolds
	// idle holds of it the token is forwarded on a shortened hold.
	lastTrafficAt time.Time

	alive    []memnet.NodeID // the candidate set, sorted
	proposed uint64          // the ring id this gather will install; zero before the first gather
	// last names the installed ring and from the history it kept; commit,
	// the last commit this node wrote into since. From there on it takes in
	// no more of the old ring: what it told the commit it holds, it holds.
	last, from, commit ringRef
	// majority is the id of the latest ring of most of the configured
	// processors in the history this node holds, zero for none.
	majority uint64

	fp epoch // the leader-ordered fast path (leader.go); zero while the token rotates

	// hdrLen is this node's header in front of a single payload, by kind
	// (its id's length decides), and room the longest its ordering mode
	// has it write: what a submission leaves free ahead of its payload.
	hdrLen [kindBatch + 1]int
	room   int
}

// submission is a queued payload in its sender's buffer: own is room
// unwritten bytes and then the payload, so its first datagram is framed
// there and own itself broadcast (DESIGN.md section 7). The room is
// written once — on memnet the receivers hold own from then on — so a
// payload requeued (leaveLeaderMode) has no own and travels by copy.
type submission struct {
	payload []byte
	own     []byte
}

// NewCore returns a processor that has no ring yet: its fail deadline is
// already due, so the first Tick starts the founding gather. broadcast
// sends one datagram to every member, this one included; emit hands the
// application its next ordered event. cfg.Endpoint and cfg.Metrics are
// the driver's and are not read; the zero timeouts take their defaults.
func NewCore(cfg Config, now time.Time, broadcast func([]byte), emit func(Event)) *Core {
	cfg.applyDefaults()
	n := &Core{
		cfg:       cfg,
		broadcast: broadcast,
		emit:      emit,
		buffer:    make(map[uint64]regularMsg),
		skipped:   make(map[uint64]bool),
	}
	n.deadlines[dlFail] = now
	// An empty payload's datagram is its header.
	n.hdrLen[kindRegular] = len(encodeRegular(regularMsg{Sender: cfg.ID}, nil))
	n.hdrLen[kindForward] = len(encodeForward(forwardMsg{Sender: cfg.ID}, nil))
	n.hdrLen[kindBatch] = len(encodeBatch(batchMsg{Leader: cfg.ID, Origin: cfg.ID}, nil))
	// A ring that only rotates its token never writes the other two.
	n.room = n.hdrLen[kindRegular]
	if cfg.Ordering == OrderingLeader {
		n.room = slices.Max(n.hdrLen[:])
	}
	return n
}

// longestHeader is the longest header a payload that travels alone can
// meet: ahead of it, from any configured member, in any kind — and, on a
// retransmission, another member's name behind it (regularMsg.Via).
func (n *Core) longestHeader() int {
	longest := n.cfg.ID
	for _, id := range n.cfg.Members {
		if len(id) > len(longest) {
			longest = id
		}
	}
	return max(
		len(encodeRegular(regularMsg{Sender: longest, Via: longest}, nil))+3, // Via is aligned, behind a payload of any length
		len(encodeForward(forwardMsg{Sender: longest}, nil)),
		len(encodeBatch(batchMsg{Leader: longest, Origin: longest}, nil)))
}

// framed returns payload as Submit takes it, copied behind room bytes.
func (n *Core) framed(payload []byte) []byte {
	buf := make([]byte, n.room+len(payload))
	copy(buf[n.room:], payload)
	return buf
}

// frameIn says where in own the datagram of kind that carries its payload
// alone begins, for the encoder to build it there; nil (a pack, a
// requeued payload) has it built by copy. Both are counted.
func (n *Core) frameIn(kind byte, own []byte) []byte {
	if own == nil {
		n.framedByCopyN.Add(1)
		return nil
	}
	n.framedInPlaceN.Add(1)
	return own[n.room-n.hdrLen[kind]:]
}

func (n *Core) arm(d deadline, in time.Duration) { n.deadlines[d] = n.now.Add(in) }

func (n *Core) armed(d deadline) bool { return !n.deadlines[d].IsZero() }

func (n *Core) disarm(ds ...deadline) {
	for _, d := range ds {
		n.deadlines[d] = time.Time{}
	}
}

func (n *Core) due(d deadline) bool { return n.armed(d) && !n.deadlines[d].After(n.now) }

// Headroom is how many unwritten bytes Submit takes in front of each
// payload: this core's longest header ahead of a message sent alone.
func (n *Core) Headroom() int { return n.room }

// Next is the earliest armed deadline, zero when there is none: when
// the core must next be ticked if nothing else happens first.
func (n *Core) Next() time.Time {
	var next time.Time
	for _, at := range n.deadlines {
		if !at.IsZero() && (next.IsZero() || at.Before(next)) {
			next = at
		}
	}
	return next
}

// Tick is the step for the passage of time: it acts on every deadline
// that is due. waiting is how many datagrams the transport holds.
//
// gwlint:simroot
func (n *Core) Tick(now time.Time, waiting int) {
	n.now, n.waiting = now, waiting
	if n.due(dlHold) {
		n.finishHold()
	}
	if n.due(dlTokenResend) {
		// No evidence of progress since forwarding: resend the token.
		n.broadcast(encodeToken(*n.lastSentToken))
		n.arm(dlTokenResend, n.cfg.TokenRetransmit)
	}
	if n.due(dlGather) {
		n.endGather()
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
	if n.due(dlFail) || n.due(dlCommit) {
		n.startGather()
	}
}

// Submit is the step for application payloads: they join the send queue
// and are ordered as soon as the mode allows. Each arrives behind
// Headroom unwritten bytes, in a buffer the core takes over
// (Node.MulticastFramed).
//
// gwlint:simroot
func (n *Core) Submit(now time.Time, framed [][]byte) {
	n.now = now
	for _, buf := range framed {
		n.pending = append(n.pending, submission{payload: buf[n.room:len(buf):len(buf)], own: buf})
	}
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

// Receive is the step for one datagram off the transport; waiting is
// how many more the transport holds behind it. The datagram is the
// core's from then on, read-only (Transport).
//
// gwlint:simroot
func (n *Core) Receive(now time.Time, datagram []byte, waiting int) {
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
//     old ring a survivor holds — until this node has told a commit what
//     it holds, and the rest waits for the install.
//   - a newer ring: this node missed a membership change; rejoin.
//   - an older ring, or this ring's id, from a stranger: a concurrent
//     foreign ring (both sides of a partition count their ring ids up in
//     lockstep, so an equal id proves nothing); merge with it.
//   - an older ring from a member: stale, ignored.
//
// Rejoining and merging are both membership recovery.
func (n *Core) admit(ringID uint64, from memnet.NodeID, ordered bool) bool {
	switch member := n.inRing(from); {
	case ringID == n.ringID && member:
		return !n.gathering || ordered && n.commit == ringRef{}
	case n.gathering:
	case ringID > n.ringID, !member:
		n.startGather()
	}
	return false
}

func (n *Core) handleRegular(m regularMsg) {
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
		n.lastTrafficAt = n.now // token pacing; see Submit
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

func (n *Core) handleToken(t token) {
	first := false // a commit this node is part of, on its first rotation
	if n.gathering && len(t.Members) > 0 {
		if !n.partOf(t) {
			return
		}
		if first = !t.Decided; !first {
			n.install(t)
		}
	}
	// A promotion retired its ring's token: in an epoch anything still
	// in flight is a stale resend, and it is not liveness — the
	// sequencer's batches and heartbeats are. A token at or below the
	// last one seen is a retransmission, deliberately not liveness
	// either: a ring wedged on a dead member sees only resends of the
	// same token, and must still reconfigure.
	if !first && !n.admit(t.RingID, t.Succ, false) || n.fp.leader != "" || t.TokenID <= n.lastTokenID {
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
	if t.Succ != n.cfg.ID {
		// Token observed in passing (tokens are broadcast so every node
		// can use them for liveness, merge detection and the install).
		return
	}
	n.clearTokenResend()
	switch {
	case first:
		if !n.commitVisit(&t) {
			return
		}
	case t.Decided && n.ring[0] == n.cfg.ID:
		// Back at its creator every member has read it: a plain token.
		t.Members, t.Entries, t.Decided = nil, nil, false
	}
	n.processToken(t)
}

// A commit is the token that ends a gather, twice round the proposed
// ring. On the first rotation every member writes in the history it holds
// and how far (commitVisit), so the creator decides from what each said
// itself, not from the joins it happened to hear; the decided form's
// rotation is the ring's first, and whoever reads it, in passing too,
// installs the ring there and nowhere else (handleToken). partOf reports
// whether this gathering node is part of the commit t carries, which it
// becomes where a first rotation first reaches it — of one per ring id,
// so two lists decided under one id share no member.
func (n *Core) partOf(t token) bool {
	c := ringRef{ID: t.RingID, Low: t.Members[0]}
	if c != n.commit && !t.Decided && t.Succ == n.cfg.ID && t.RingID >= n.proposed && t.RingID != n.commit.ID {
		n.commit, n.proposed, n.lastTokenID = c, t.RingID, 0
		n.disarm(dlGather)
		n.arm(dlCommit, n.cfg.FailTimeout/2)
	}
	return c == n.commit
}

// commitVisit writes this member's entry and forwards. Back at the
// creator the commit is decided — Seq, Aru and Stable are the kept
// component's — and installed: true, the token is the ring's first.
func (n *Core) commitVisit(t *token) bool {
	me := slices.Index(t.Members, n.cfg.ID)
	t.Entries[me] = commitEntry{Filled: true, Last: n.last, Majority: n.majority, Highest: n.highest, Aru: n.deliveredSeq}
	if me != 0 || slices.ContainsFunc(t.Entries, func(e commitEntry) bool { return !e.Filled }) {
		held := *t // a copy: the caller's token stays off the heap
		n.heldToken = &held
		n.finishHold()
		return false
	}
	t.Decided = true
	for i, id := range t.Members {
		// A member of this node's ring that still holds the history that
		// ring kept only missed its install: it wrote into its commit, has
		// taken in nothing since, and holds a prefix of what this node holds.
		if e := &t.Entries[i]; e.Last == n.from && e.Last != (ringRef{}) && n.inRing(id) {
			e.Last, e.Majority = n.last, n.majority
		}
	}
	kept, first := t.kept(), true
	for _, e := range t.Entries {
		if e.Last != kept {
			continue
		}
		t.Seq = max(t.Seq, e.Highest)
		if first || e.Aru < t.Aru {
			t.Aru, first = e.Aru, false
		}
	}
	t.Stable = t.Aru
	n.install(*t)
	return true
}

// install makes the ring of a decided commit this node's and tells the
// application, with the verdict, ahead of everything the ring delivers.
func (n *Core) install(t token) {
	n.from = t.kept()
	continues := n.from == t.Entries[slices.Index(t.Members, n.cfg.ID)].Last
	for _, e := range t.Entries {
		n.majority = max(n.majority, e.Majority) // the kept history's
	}
	if 2*len(t.Members) > len(n.cfg.Members) {
		n.majority = t.RingID
	}
	n.ring, n.ringID, n.ids = t.Members, t.RingID, newIDTable(t.Members)
	n.gathering, n.last, n.commit = false, n.commit, ringRef{}
	n.disarm(dlGather, dlCommit)
	n.arm(dlFail, n.cfg.FailTimeout)
	n.reconfigN.Add(1)

	n.mu.Lock()
	n.curMembers = n.ring
	n.curRing = n.ringID
	n.mu.Unlock()

	if !continues {
		// The ring keeps a history this node does not hold. What it
		// buffered is numbered in a dead sequence space and must never be
		// retransmitted into the ring. It resumes where the members the
		// token has visited stand, as a processor that was never there.
		clear(n.buffer)
		clear(n.skipped)
		n.deliveredSeq, n.highest, n.gcThrough = t.Aru, t.Aru, t.Aru
		n.resumedN.Add(1)
	}
	n.emit(Event{Type: EventConfig, Config: ConfigChange{RingID: n.ringID, Members: n.ring, Continues: continues}})
}

// processToken performs one token visit: apply skips, serve and update
// retransmission requests, broadcast pending messages, maintain the aru
// watermark, age requests (leader only), then forward.
func (n *Core) processToken(t token) {
	work := t.Decided // the rotation that installs a ring does not idle

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
		if t.Aru > t.Stable {
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
func (n *Core) broadcastPending(t *token) bool {
	drained := 0
	for burst := n.cfg.MaxBurst; drained < len(n.pending) && burst > 0; burst-- {
		t.Seq++
		// A single payload takes the plain form: identical wire bytes to
		// the pre-packing protocol.
		end, payload, parts, own := n.nextPack(drained)
		drained = end
		m := regularMsg{RingID: n.ringID, Seq: t.Seq, Sender: n.cfg.ID, Payload: payload, Parts: parts}
		n.buffer[t.Seq] = m
		if t.Seq > n.highest {
			n.highest = t.Seq
		}
		n.broadcast(encodeRegular(m, n.frameIn(kindRegular, own)))
		n.broadcastN.Add(1)
	}
	n.compactPending(drained)
	n.tryDeliver()
	return drained > 0
}

// finishHold forwards the held token to the ring successor.
func (n *Core) finishHold() {
	t := n.heldToken
	n.heldToken = nil
	n.disarm(dlHold)
	t.TokenID++
	list := n.ring
	if n.gathering {
		list = t.Members // a commit's first rotation: the ring is not installed yet
	}
	t.Succ = list[(slices.Index(list, n.cfg.ID)+1)%len(list)]
	n.lastSentToken = t
	n.arm(dlTokenResend, n.cfg.TokenRetransmit)
	n.broadcast(encodeToken(*t))
	n.tokenPassN.Add(1)
}

func (n *Core) clearTokenResend() {
	n.lastSentToken = nil
	n.disarm(dlTokenResend)
}

// tryDeliver delivers buffered messages in contiguous sequence order,
// each payload of a packed message as its own delivery, ordered within
// the message by its sub-index.
func (n *Core) tryDeliver() {
	for {
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
				Sole:    m.Parts == nil,
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
func (n *Core) gc(aru uint64) {
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

func (n *Core) touchLiveness() {
	if !n.gathering {
		n.arm(dlFail, n.cfg.FailTimeout)
	}
}

func (n *Core) inRing(id memnet.NodeID) bool { return slices.Contains(n.ring, id) }

// startGather begins membership recovery.
func (n *Core) startGather() {
	if n.fp.leader != "" {
		// Any fall into membership recovery from leader mode is a
		// demotion: the ring rotates again until a fresh promotion.
		n.demotionN.Add(1)
		n.leaveLeaderMode()
	}
	n.gatherN.Add(1)
	n.gathering = true
	n.heldToken = nil
	n.clearTokenResend()
	n.disarm(dlHold, dlFail, dlCommit)
	n.alive = []memnet.NodeID{n.cfg.ID}
	if n.proposed == 0 {
		// Founders wait for each other; later gathers start from the joins
		// heard, or a configured processor that is not running would keep
		// every commit from getting round.
		n.heard(n.cfg.Members...)
	}
	n.proposed = max(n.proposed, n.ringID) + 1 // a commit given up may still be about
	n.arm(dlGather, n.cfg.GatherTimeout)
	n.sendJoin()
}

// heard adds ids to the candidate set and reports whether it grew.
func (n *Core) heard(ids ...memnet.NodeID) (grew bool) {
	for _, id := range ids {
		if i, found := slices.BinarySearch(n.alive, id); !found {
			n.alive, grew = slices.Insert(n.alive, i, id), true
		}
	}
	return grew
}

func (n *Core) sendJoin() {
	n.broadcast(encodeJoin(joinMsg{Sender: n.cfg.ID, Alive: n.alive, RingID: n.proposed}))
}

func (n *Core) handleJoin(j joinMsg) {
	switch {
	case !n.gathering:
		// A join is a reason to gather exactly when the gate says so; the
		// echo of a gather this node already installed is not.
		n.admit(j.RingID, j.Sender, false)
	case n.armed(dlCommit) && j.RingID > n.proposed:
		n.startGather() // its sender has given up on the commit this node waits for
	}
	if !n.gathering || n.armed(dlCommit) {
		return // a candidate set that waits for its commit is closed
	}
	changed := n.heard(append(j.Alive, j.Sender)...)
	if j.RingID > n.proposed {
		n.proposed = j.RingID
		changed = true
	}
	if changed {
		n.arm(dlGather, n.cfg.GatherTimeout)
		n.sendJoin()
	}
}

// endGather closes the candidate set. Nobody installs it on its own: the
// lowest id sends it round as a commit, and everybody waits for one.
func (n *Core) endGather() {
	n.disarm(dlGather)
	n.arm(dlCommit, n.cfg.FailTimeout/2)
	if n.alive[0] == n.cfg.ID {
		n.handleToken(token{RingID: n.proposed, TokenID: 1, Succ: n.cfg.ID, Members: n.alive, Entries: make([]commitEntry, len(n.alive))})
	}
}

// kept names the history a commit's ring keeps, in the one place that
// says which: of the histories that passed through the latest ring of
// most of the configured processors any member names — the only ones a
// quorum can have executed in — the largest component's, of equals the
// one with the lowest member id, however small a part of the ring it is.
// So every ring but a founding one, which all continue, has a member
// that continues: a donor for whoever does not. (Raising the horizon to
// the highest any member reports instead is not safe: a singleton that
// stayed busy while partitioned would make the majority jump its own
// undelivered messages.)
func (t token) kept() ringRef {
	var latest uint64
	for _, e := range t.Entries {
		latest = max(latest, e.Majority)
	}
	votes := make(map[ringRef]int)
	for _, e := range t.Entries {
		if e.Last != (ringRef{}) && e.Majority == latest {
			votes[e.Last]++
		}
	}
	var kept ringRef
	for _, e := range t.Entries {
		if votes[e.Last] > votes[kept] {
			kept = e.Last
		}
	}
	return kept
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
