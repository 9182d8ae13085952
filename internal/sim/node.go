package sim

import (
	"fmt"
	"math"
	"sort"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/totem"
)

const (
	linkMaxDelay   = 250 * time.Microsecond
	bridgeResendTO = 5 * time.Millisecond
	fetchBatch     = 32
)

// gwRecord is a gateway's memory of one operation identifier: the
// paper's record store. replied caches the response so reissues are
// answered without re-execution; interested marks that this gateway owes
// a thin client an answer.
type gwRecord struct {
	op         *Op
	replied    bool
	val        uint64
	interested bool
	client     string
}

// node is one protocol node of a simulated domain: a totem processor
// stepping a real totem.Core, a replica of every group (the sim models
// the paper's common deployment where the domain is the unit of
// replication), and optionally a gateway serving thin clients and
// bridges. The core orders; everything above it is the sim's model of
// the paper's replicas, gateways, bridges and fan-out, fed by the
// core's EventDeliver and EventConfig.
type node struct {
	w    *world
	dom  int
	idx  int
	id   memnet.NodeID
	ep   *memnet.Endpoint
	isGW bool
	subs []memnet.NodeID // fan-out subscribers attached to this gateway

	crashed bool
	inc     uint64 // incarnation; invalidates timers on crash/restart

	core      *totem.Core
	woken     int64    // the earliest tick booked for this core, zero for none
	out       [][]byte // what the node produced during a step, submitted after it
	delivered int      // deliveries in the step in progress

	// The ring as the core last reported it, and how far each member has
	// reported delivering in it: the stability rule's input.
	ring       uint64
	members    []int
	horizon    map[int]uint64
	last       uint64 // timestamp of the latest delivery
	unreported bool   // something was delivered, or a ring installed, since the last report

	// Replicated state (what a snapshot carries).
	apps      map[int]App
	executed  map[int]map[OpKey]execRec
	outbox    map[OpKey]*Op // emitted bridge ops owed to remote domains
	published uint64        // fan-out items published
	log       []logged      // delivered, not yet executed

	// Recovery. awaiting: this node does not hold the history its ring
	// keeps; asked maps each of its asks delivered since to where its log
	// stood then, the cut an answer is adopted at.
	awaiting bool
	asked    map[uint64]int

	// Volatile state (lost on crash).
	acked    map[OpKey]bool // bridge ops known delivered remotely
	ordering map[OpKey]bool // invocations this node submitted and has not seen delivered
	records  map[OpKey]*gwRecord
	recOrder []OpKey
}

func nodeName(dom, idx int) memnet.NodeID {
	return memnet.NodeID(fmt.Sprintf("d%d.n%02d", dom, idx))
}

// after schedules f on the virtual clock, bound to this incarnation:
// the callback is dropped if the node crashed, restarted or the run
// ended in the meantime.
func (n *node) after(d time.Duration, f func()) {
	inc := n.inc
	n.w.clock.AfterFunc(d, func() {
		if n.w.done || n.crashed || n.inc != inc {
			return
		}
		f()
	})
}

func (n *node) trace(e Event) {
	e.T = n.w.clock.Now()
	e.Dom = n.dom
	e.Node = n.idx
	n.w.record(e)
}

// boot gives the node empty state and a core that was never in a ring,
// as a process started now.
func (n *node) boot() {
	d := n.w.doms[n.dom]
	n.apps = d.newApps()
	n.executed = make(map[int]map[OpKey]execRec, len(n.apps))
	for g := range n.apps {
		n.executed[g] = make(map[OpKey]execRec)
	}
	n.outbox = make(map[OpKey]*Op)
	n.published, n.log, n.asked = 0, nil, nil
	n.acked = make(map[OpKey]bool)
	n.ordering = make(map[OpKey]bool)
	n.records, n.recOrder = make(map[OpKey]*gwRecord), nil
	n.ring, n.members, n.horizon, n.last = 0, nil, nil, 0
	n.woken, n.out = 0, nil
	// The timeouts are the vnet harness's (internal/totem's fastConfig).
	cfg := totem.Config{
		ID:              n.id,
		Members:         d.ids,
		Ordering:        n.w.ordering,
		IdleHold:        100 * time.Microsecond,
		TokenRetransmit: 10 * time.Millisecond,
		FailTimeout:     80 * time.Millisecond,
		GatherTimeout:   20 * time.Millisecond,
	}
	n.core = totem.NewCore(cfg, n.w.now(), n.broadcast, n.deliver)
	n.book()
	n.startBridgeResend()
}

// broadcast is the core's send hook: one datagram to every protocol
// node of the domain, this one included. A crashed node's sends fail.
func (n *node) broadcast(b []byte) {
	for _, p := range n.w.doms[n.dom].nodes {
		_ = n.ep.Send(p.id, b)
	}
}

// step runs one step of the core and then settles what it left.
func (n *node) step(f func(now time.Time)) {
	f(n.w.now())
	n.settle()
}

// settle does what a step left the node to do: execute what became
// stable, report how far it has delivered, and hand the core what it
// produced — never from inside the core's step. A submission is a step
// too (a sequencer orders its own at once), so this repeats until
// nothing is left.
func (n *node) settle() {
	for {
		n.execAdvance()
		if n.unreported {
			n.unreported = false
			n.submit(&entry{kind: eReport, from: n.idx, ring: n.ring, upTo: n.last})
		}
		if len(n.out) == 0 {
			break
		}
		out := n.out
		n.out = nil
		n.core.Submit(n.w.now(), out)
	}
	n.book()
}

// book puts the core's next deadline on the clock, unless a tick no
// later than it is booked already. A tick that finds nothing due does
// nothing, so one booked for a deadline since moved is harmless.
func (n *node) book() {
	at := n.core.Next()
	if at.IsZero() || n.woken != 0 && at.UnixNano() >= n.woken {
		return
	}
	n.woken = at.UnixNano()
	n.after(time.Duration(n.woken-n.w.clock.Now()), func() {
		n.woken = 0
		n.step(func(now time.Time) { n.core.Tick(now, len(n.ep.Recv())) })
	})
}

// submit queues e for the total order; step hands it to the core.
func (n *node) submit(e *entry) {
	room := n.core.Headroom()
	buf := make([]byte, room, room+8)
	n.out = append(n.out, append(buf, handle(len(n.w.entries))...))
	n.w.entries = append(n.w.entries, e)
}

// handle takes one datagram off the network. A protocol node of this
// domain sends nothing but ring datagrams to another, so those are the
// core's; everything else is one of the sim's unicast messages.
func (n *node) handle(pkt memnet.Packet) {
	if n.crashed {
		return
	}
	if p := n.w.nodes[pkt.From]; p != nil && p.dom == n.dom {
		n.step(func(now time.Time) {
			n.delivered = 0
			n.core.Receive(now, pkt.Payload, len(n.ep.Recv()))
			if n.delivered > 0 {
				n.w.doms[n.dom].lastOrderer = p.idx
			}
		})
		return
	}
	m := n.w.msg(pkt)
	if m == nil {
		return
	}
	switch m.kind {
	case mRequest:
		n.onRequest(m.op)
	case mBridge:
		n.onBridge(m.op)
	case mBridgeAck:
		n.acked[m.op.Key] = true
	case mFetch:
		n.onFetch(m)
	}
	n.settle()
}

// deliver is the core's event hook.
func (n *node) deliver(ev totem.Event) {
	if ev.Type == totem.EventConfig {
		n.install(ev.Config)
		return
	}
	e := n.w.entries[handleIndex(ev.Delivery.Payload)]
	ts := ev.Delivery.Timestamp()
	n.last = ts
	n.delivered++
	switch e.kind {
	case eReport:
		if e.ring == n.ring && e.upTo > n.horizon[e.from] {
			n.horizon[e.from] = e.upTo
		}
		return // a report is no reason to report
	case eAsk:
		if e.from == n.idx && n.awaiting {
			n.asked[e.ask] = len(n.log)
		} else if !n.awaiting && e.from != n.idx {
			n.submit(&entry{kind: eAnswer, from: n.idx, ask: e.ask, snap: n.snapshot()})
		}
	case eAnswer:
		if cut, ok := n.asked[e.ask]; ok && n.awaiting {
			n.adopt(e.snap, cut)
		}
	case eInvoke, eResponse:
		delete(n.ordering, e.op.Key)
		n.log = append(n.log, logged{ts, e})
	}
	n.unreported = true
}

// install takes in a ring the core installed. Told it does not continue
// the history the ring keeps, the node drops what it delivered outside
// it and awaits a snapshot, as replication recovers: it asks in the
// order, at every ring until answered, and adopts the first answer cut
// at one of its asks.
func (n *node) install(c totem.ConfigChange) {
	n.ring = c.RingID
	n.members = make([]int, len(c.Members))
	for i, id := range c.Members {
		n.members[i] = n.w.nodes[id].idx
	}
	n.horizon = make(map[int]uint64, len(n.members))
	q := n.hasQuorum()
	n.trace(Event{Kind: EvRing, Quorum: q, Note: fmt.Sprintf("r%d%v", c.RingID, n.members)})
	n.w.stats.Rings++
	if !c.Continues {
		n.awaiting = true
		n.log, n.asked, n.last = nil, nil, 0
		clear(n.ordering) // what it broadcast and did not see delivered died with its history
	}
	if n.awaiting {
		if n.asked == nil {
			n.asked = make(map[uint64]int)
		}
		n.w.asks++
		n.submit(&entry{kind: eAsk, from: n.idx, ask: n.w.asks})
	}
	// A response may have died with a history, or have been executed
	// before the cut this node will adopt: every unanswered record is
	// conveyed again, behind the ask, and the duplicate's response
	// answers it — the paper's no-lost-requests discipline.
	for _, k := range n.recOrder {
		if rec := n.records[k]; rec.interested && !rec.replied {
			n.convey(rec.op)
		}
	}
	n.unreported = true
}

func (n *node) hasQuorum() bool { return len(n.members) >= n.w.doms[n.dom].quorum }

// snapshot cuts this node's replicated state where it stands.
func (n *node) snapshot() *snapshot {
	s := &snapshot{published: n.published, log: append([]logged(nil), n.log...)}
	s.apps, s.executed, s.outbox = copyState(n.apps, n.executed, n.outbox)
	return s
}

// adopt installs a snapshot cut at one of this node's asks and replays
// what it held behind the cut. The membership-sync mutation skips the
// adoption: the node goes on from its stale state with what it held.
func (n *node) adopt(s *snapshot, cut int) {
	n.awaiting, n.asked = false, nil
	if !n.w.cfg.Mutations.DisableMembershipSync {
		n.log = append(append([]logged(nil), s.log...), n.log[cut:]...)
		n.apps, n.executed, n.outbox = copyState(s.apps, s.executed, s.outbox)
		n.published = s.published
	}
}

// copyState deep-copies replicated state: a snapshot is shared by every
// adopter. Apps clone in sorted group order, since Clone is application
// code and its call order must be schedule-stable.
func copyState(apps map[int]App, executed map[int]map[OpKey]execRec, outbox map[OpKey]*Op) (map[int]App, map[int]map[OpKey]execRec, map[OpKey]*Op) {
	a := make(map[int]App, len(apps))
	for _, g := range sortedAppGroups(apps) {
		a[g] = apps[g].Clone()
	}
	e := make(map[int]map[OpKey]execRec, len(executed))
	for g, m := range executed {
		cp := make(map[OpKey]execRec, len(m))
		for k, v := range m {
			cp[k] = v
		}
		e[g] = cp
	}
	o := make(map[OpKey]*Op, len(outbox))
	for k, v := range outbox {
		o[k] = v
	}
	return a, e, o
}

// sortedAppGroups returns the map's group ids in ascending order.
func sortedAppGroups(m map[int]App) []int {
	out := make([]int, 0, len(m))
	for g := range m {
		out = append(out, g)
	}
	sort.Ints(out)
	return out
}

// execAdvance executes delivered entries up to the horizon every ring
// member has reported delivering through the order. Only quorum rings
// execute: a minority fragment freezes, so no operation can be executed
// on two sides of a partition at different positions.
func (n *node) execAdvance() {
	if n.awaiting || !n.hasQuorum() {
		return
	}
	safe := uint64(math.MaxUint64)
	for _, m := range n.members {
		safe = min(safe, n.horizon[m])
	}
	for len(n.log) > 0 && n.log[0].ts <= safe {
		l := n.log[0]
		n.log = n.log[1:]
		if l.e.kind == eResponse {
			n.execResponse(l.e)
		} else {
			n.execInvocation(l.e.op, l.ts)
		}
	}
}

func (n *node) execInvocation(op *Op, seq uint64) {
	ex := n.executed[op.Group]
	if rec, dup := ex[op.Key]; dup && !n.w.cfg.Mutations.DisableDedup {
		n.trace(Event{Kind: EvDedup, Group: op.Group, Op: op.Key, Seq: rec.seq})
		if !n.isGW && n.lowestLiveReplica() {
			n.submit(&entry{kind: eResponse, op: op, val: rec.val, group: op.Group})
		}
		return
	}
	var emitted []*Op
	val := n.apps[op.Group].Apply(op, seq, func(nested *Op) { emitted = append(emitted, nested) })
	ex[op.Key] = execRec{seq: seq, val: val}
	n.trace(Event{Kind: EvExec, Group: op.Group, Op: op.Key, Seq: seq, Val: val, Hash: n.apps[op.Group].Hash()})
	for _, nop := range emitted {
		n.outbox[nop.Key] = nop
	}
	if op.Name == "pub" {
		n.published++
		n.pushItem(val)
	}
	if n.isGW {
		return
	}
	n.submit(&entry{kind: eResponse, op: op, val: val, group: op.Group})
	for _, nop := range emitted {
		n.sendBridge(nop)
	}
}

// lowestLiveReplica reports whether this node is the lowest-indexed
// non-gateway member of the current ring — the designated re-responder
// for duplicate deliveries, so a reissued op whose original responders
// left the ring still gets its cached answer.
func (n *node) lowestLiveReplica() bool {
	for _, mb := range n.members {
		if n.w.doms[n.dom].isGateway(mb) {
			continue
		}
		return mb == n.idx
	}
	return false
}

func (n *node) execResponse(e *entry) {
	if !n.isGW {
		return
	}
	op := e.op
	rec := n.record(op)
	if rec.replied {
		n.trace(Event{Kind: EvDupResp, Group: e.group, Op: op.Key})
		return
	}
	rec.replied = true
	rec.val = e.val
	n.trace(Event{Kind: EvRespRec, Group: e.group, Op: op.Key, Val: e.val})
	if rec.interested && rec.client != "" {
		n.w.send(n.ep, memnet.NodeID(rec.client), &msg{kind: mReply, op: op, val: e.val})
	}
	if op.OriginDom >= 0 {
		n.ackBridge(op)
	}
}

// ---- gateway role: admission, records, bridges, fan-out ----

func (n *node) record(op *Op) *gwRecord {
	rec, ok := n.records[op.Key]
	if !ok {
		rec = &gwRecord{op: op}
		n.records[op.Key] = rec
		n.recOrder = append(n.recOrder, op.Key)
	}
	return rec
}

// convey orders an invocation, unless this node's earlier copy of it is
// still on its way. Replica-side duplicate detection collapses the
// copies that do get ordered twice.
func (n *node) convey(op *Op) {
	if n.ordering[op.Key] {
		return
	}
	n.ordering[op.Key] = true
	n.submit(&entry{kind: eInvoke, op: op, group: op.Group})
}

// onRequest admits a client's invocation, answers a reissue from the
// record, or conveys a reissue whose answer has not come back.
func (n *node) onRequest(op *Op) {
	rec := n.record(op)
	rec.interested = true
	rec.client = op.ReplyTo
	if rec.replied {
		n.trace(Event{Kind: EvRecordHit, Group: op.Group, Op: op.Key})
		n.w.send(n.ep, memnet.NodeID(op.ReplyTo), &msg{kind: mReply, op: op, val: rec.val})
		return
	}
	n.convey(op)
}

// onBridge is the remote side of a nested invocation: answered ones are
// acknowledged, the rest conveyed — again, if a response died with a
// ring's history, since nothing else regenerates it for an uninterested
// record.
func (n *node) onBridge(op *Op) {
	if rec, ok := n.records[op.Key]; ok && rec.replied {
		n.ackBridge(op)
		return
	}
	n.convey(op)
}

// ackBridge tells every node of the origin domain that the nested
// invocation is durably answered, stopping their resend loops.
func (n *node) ackBridge(op *Op) {
	size := n.w.doms[op.OriginDom].size
	for i := 0; i < size; i++ {
		n.w.send(n.ep, nodeName(op.OriginDom, i), &msg{kind: mBridgeAck, op: op})
	}
	n.trace(Event{Kind: EvNestedAck, Group: op.Group, Op: op.Key})
}

// sendBridge forwards a nested invocation to every gateway of the
// target domain (the gateways' duplicate suppression collapses the R
// emitted copies into one admission — the paper's figure 4c).
func (n *node) sendBridge(op *Op) {
	d := n.w.doms[op.Dom]
	for _, g := range d.gateways {
		n.w.send(n.ep, nodeName(op.Dom, g), &msg{kind: mBridge, op: op})
	}
}

// startBridgeResend arms the nested-invocation retry loop. Gateways
// run it too: their acked map is volatile, so after a restart only the
// resend → re-ack round trip can clear the snapshot-restored outbox.
func (n *node) startBridgeResend() {
	n.after(bridgeResendTO, func() {
		n.resendBridges()
		n.startBridgeResend()
	})
}

func (n *node) resendBridges() {
	keys := make([]OpKey, 0, len(n.outbox))
	for k := range n.outbox {
		if !n.acked[k] {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Client != b.Client {
			return a.Client < b.Client
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	for _, k := range keys {
		n.sendBridge(n.outbox[k])
	}
}

func (n *node) pushItem(val uint64) {
	for _, s := range n.subs {
		n.trace(Event{Kind: EvPush, Val: val})
		n.w.send(n.ep, s, &msg{kind: mPush, val: val})
	}
}

func (n *node) onFetch(m *msg) {
	have := min(m.have, n.published)
	end := min(have+fetchBatch, n.published)
	if end == have {
		return
	}
	items := make([]uint64, 0, end-have)
	for it := have + 1; it <= end; it++ {
		items = append(items, it)
	}
	n.w.send(n.ep, memnet.NodeID(m.client), &msg{kind: mItems, items: items})
}

// ---- crash / restart ----

func (n *node) crash() {
	n.crashed = true
	n.inc++
	n.w.net.Crash(n.id)
}

// restart brings the node back with empty state and a fresh core, as a
// new process: it joins a ring as one that was never in it, and awaits
// a snapshot like any member that does not continue.
func (n *node) restart() {
	n.crashed = false
	n.inc++
	n.trace(Event{Kind: EvRestart})
	n.w.net.Restart(n.id)
	n.boot()
	n.awaiting = true
}
