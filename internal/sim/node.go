package sim

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/totem"
)

const linkMaxDelay = 250 * time.Microsecond

// gwRecord is a gateway's memory of one operation identifier: the
// paper's record store. replied caches the response so reissues are
// answered without re-execution; waiting holds the thin clients this
// gateway owes an answer, as replication's pending table holds every
// caller of an operation.
type gwRecord struct {
	op      *Op
	replied bool
	val     uint64
	waiting []memnet.NodeID
}

// bridgeCall is one bridge op a node calls as a thin client of the op's
// domain.
type bridgeCall struct {
	op       *Op // this node's copy, with itself as ReplyTo
	attempt  int
	answered bool
}

// node is one protocol node of a simulated domain: a totem processor
// stepping a real totem.Core, a replica of every group (the sim models
// the paper's common deployment where the domain is the unit of
// replication), and optionally a gateway serving thin clients. The core
// orders; everything above it is the sim's model of the paper's
// replicas, gateways and bridges, fed by the core's EventDeliver and
// EventConfig.
type node struct {
	w    *world
	dom  int
	idx  int
	id   memnet.NodeID
	ep   *memnet.Endpoint
	isGW bool

	crashed bool
	inc     uint64 // incarnation; invalidates timers on crash/restart

	core      *totem.Core
	woken     int64    // the earliest tick booked for this core, zero for none
	out       [][]byte // what the node produced during a step, submitted after it
	delivered int      // deliveries in the step in progress

	// The ring as the core last reported it.
	ring    uint64
	members []int
	primary bool   // ConfigChange.Primary: entries are executed only in a primary ring
	last    uint64 // timestamp of the latest delivery

	// Replicated state (what a snapshot carries).
	apps     map[int]App
	executed map[int]map[OpKey]execRec
	outbox   map[OpKey]*Op // emitted bridge ops owed to remote domains
	log      []logged      // delivered, not yet executed

	// Recovery. awaiting: this node does not hold the history its ring
	// keeps; asked maps each of its asks delivered since to where its log
	// stood then, the cut an answer is adopted at.
	awaiting bool
	asked    map[uint64]int

	// Volatile state (lost on crash).
	calls    map[OpKey]*bridgeCall // the bridge ops this node calls
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
	n.log, n.asked = nil, nil
	n.calls = make(map[OpKey]*bridgeCall)
	n.records, n.recOrder = make(map[OpKey]*gwRecord), nil
	n.ring, n.members, n.primary, n.last = 0, nil, false, 0
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
// stable and hand the core what it produced — never from inside the
// core's step. A submission is a step too (a sequencer orders its own at
// once), so this repeats until nothing is left.
func (n *node) settle() {
	for {
		n.execAdvance()
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
// core's; everything else is a request to this gateway or a reply to
// one of this node's bridge calls.
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
	case mReply:
		if c := n.calls[m.op.Key]; c != nil {
			c.answered = true
		}
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
		n.log = append(n.log, logged{ts, e})
	}
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
	n.primary = c.Primary
	n.trace(Event{Kind: EvRing, Quorum: c.Primary, Note: fmt.Sprintf("r%d%v", c.RingID, n.members)})
	n.w.stats.Rings++
	if !c.Continues {
		n.awaiting = true
		n.log, n.asked, n.last = nil, nil, 0
	}
	if n.awaiting {
		if n.asked == nil {
			n.asked = make(map[uint64]int)
		}
		n.w.asks++
		n.submit(&entry{kind: eAsk, from: n.idx, ask: n.w.asks})
	}
	// Where this node does not continue the history, a response may have
	// died with the one it leaves, or have been executed before the cut
	// it will adopt: every unanswered record is conveyed again, behind
	// the ask, and the duplicate's response answers it, as a shipping
	// processor does (Mechanisms.handleConfig). At any other install a
	// caller waits out the invoke timeout and reissues.
	for _, k := range n.recOrder {
		if rec := n.records[k]; len(rec.waiting) > 0 && !c.Continues {
			n.submit(&entry{kind: eInvoke, op: rec.op, group: rec.op.Group})
		}
	}
}

// snapshot cuts this node's replicated state where it stands.
func (n *node) snapshot() *snapshot {
	s := &snapshot{log: append([]logged(nil), n.log...)}
	s.apps, s.executed, s.outbox = copyState(n.apps, n.executed, n.outbox)
	return s
}

// adopt installs a snapshot cut at one of this node's asks, calls the
// bridge ops it inherits, and replays what it held behind the cut. The
// membership-sync mutation skips the adoption: the node goes on from its
// stale state with what it held.
func (n *node) adopt(s *snapshot, cut int) {
	n.awaiting, n.asked = false, nil
	if !n.w.cfg.Mutations.DisableMembershipSync {
		n.log = append(append([]logged(nil), s.log...), n.log[cut:]...)
		n.apps, n.executed, n.outbox = copyState(s.apps, s.executed, s.outbox)
		for _, k := range sortedOpKeys(n.outbox) {
			n.call(n.outbox[k])
		}
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

// sortedOpKeys returns the outbox's keys in ascending order.
func sortedOpKeys(m map[OpKey]*Op) []OpKey {
	keys := make([]OpKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
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
	return keys
}

// execAdvance executes delivered entries up to the core's stability
// horizon, which every member of the ring holds, so whatever history the
// next ring keeps, an executed entry is in it. Only a primary ring
// executes: a minority fragment freezes, so no operation can be executed
// on two sides of a partition at different positions.
func (n *node) execAdvance() {
	if n.awaiting || !n.primary {
		return
	}
	above := totem.Delivery{Seq: n.core.Stable() + 1}.Timestamp()
	for len(n.log) > 0 && n.log[0].ts < above {
		l := n.log[0]
		n.log = n.log[1:]
		if l.e.kind == eResponse {
			n.execResponse(l.e)
		} else {
			n.execInvocation(l.e.op, l.ts)
		}
	}
}

// execInvocation executes an invocation, or, for a second copy, takes
// the response from the replica's record. Every replica but a gateway's
// orders its response back, for duplicates too, as replication's
// answerDuplicate does; the gateways' records collapse the copies.
func (n *node) execInvocation(op *Op, seq uint64) {
	ex := n.executed[op.Group]
	rec, dup := ex[op.Key]
	if dup && !n.w.cfg.Mutations.DisableDedup {
		n.trace(Event{Kind: EvDedup, Group: op.Group, Op: op.Key, Seq: rec.seq})
	} else {
		rec = execRec{seq: seq, val: n.apps[op.Group].Apply(op, seq, func(nested *Op) {
			n.outbox[nested.Key] = nested
			n.call(nested)
		})}
		ex[op.Key] = rec
		n.trace(Event{Kind: EvExec, Group: op.Group, Op: op.Key, Seq: seq, Val: rec.val, Hash: n.apps[op.Group].Hash()})
	}
	if !n.isGW {
		n.submit(&entry{kind: eResponse, op: op, val: rec.val, group: op.Group})
	}
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
	for _, to := range rec.waiting {
		n.w.send(n.ep, to, &msg{kind: mReply, op: op, val: e.val})
	}
	rec.waiting = nil
}

// ---- gateway role: admission and records ----

func (n *node) record(op *Op) *gwRecord {
	rec, ok := n.records[op.Key]
	if !ok {
		rec = &gwRecord{op: op}
		n.records[op.Key] = rec
		n.recOrder = append(n.recOrder, op.Key)
	}
	return rec
}

// onRequest answers a request from the record, or orders it, as
// clientConn.handleRequest does (cachedReply, else ConveyFrame): a gateway
// orders every request its record cannot answer, and replica-side
// duplicate detection collapses the copies ordered twice.
func (n *node) onRequest(op *Op) {
	rec := n.record(op)
	to := memnet.NodeID(op.ReplyTo)
	if rec.replied {
		n.trace(Event{Kind: EvRecordHit, Group: op.Group, Op: op.Key})
		n.w.send(n.ep, to, &msg{kind: mReply, op: op, val: rec.val})
		return
	}
	if !slices.Contains(rec.waiting, to) {
		rec.waiting = append(rec.waiting, to)
	}
	n.submit(&entry{kind: eInvoke, op: op, group: op.Group})
}

// ---- bridge role: calling another domain ----

// call invokes a bridge op as a thin client of the op's domain, the way
// domain.BridgeApp calls through thinclient: to one gateway at a time,
// with this node as the reply address, under the operation identifier
// figure 6 gives the nested invocation (what BridgeApp sends in the FT_O
// context), and on each timeout reissued with that identifier to the
// next gateway, until a reply answers it. Every replica calls; the
// remote replicas' duplicate detection collapses the copies (the paper's
// figure 4c).
func (n *node) call(op *Op) {
	if n.calls[op.Key] != nil {
		return
	}
	cp := *op
	cp.ReplyTo = string(n.id)
	c := &bridgeCall{op: &cp, attempt: 1}
	n.calls[op.Key] = c
	n.sendCall(c)
}

func (n *node) sendCall(c *bridgeCall) {
	gws := n.w.doms[c.op.Dom].gateways
	n.w.send(n.ep, nodeName(c.op.Dom, gws[(c.attempt-1)%len(gws)]), &msg{kind: mRequest, op: c.op})
	n.after(callTimeout(c.attempt), func() {
		if c.answered {
			return
		}
		c.attempt++
		n.trace(Event{Kind: EvReissue, Group: c.op.Group, Op: c.op.Key, Val: uint64(c.attempt)})
		n.sendCall(c)
	})
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
