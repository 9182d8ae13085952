package totem

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"eternalgw/internal/memnet"
	"eternalgw/internal/obs"
)

// EventType distinguishes the events a node emits.
type EventType uint8

// Event types. Deliveries and configuration changes arrive on one channel
// so the application observes membership changes ordered with respect to
// message deliveries (virtual synchrony).
const (
	EventDeliver EventType = iota + 1
	EventConfig
)

// Event is one ordered event: a message delivery or a ring installation.
type Event struct {
	Type     EventType
	Delivery Delivery     // valid when Type == EventDeliver
	Config   ConfigChange // valid when Type == EventConfig
}

// ErrStopped is returned by Multicast after Stop.
var ErrStopped = errors.New("totem: node stopped")

// ErrTooLarge is returned by Multicast for a payload no datagram of the
// node's transport can carry (Ceiling).
var ErrTooLarge = errors.New("totem: message exceeds the transport's largest datagram")

// eventBufSize bounds the ordered event stream: once this many events are
// undelivered — in the hand-off channel and in the queue behind it — the
// protocol goroutine waits for the consumer. It is a bound, not an
// allocation: the queue grows only as far as the consumer falls behind.
const eventBufSize = 4096

// eventHandoff is the capacity of the events channel itself: one token
// visit's worth of messages (maxBurst), so a consumer that keeps pace with
// the ring takes every event straight off the channel, and the queue
// behind it is allocated only once the consumer falls further behind.
// 64 Events are 7.5 KiB.
const eventHandoff = 64

// eventQueue holds the ordered events the consumer has not taken and the
// hand-off channel has no slot for, oldest first: a ring that doubles when
// full and keeps its array, so a consumer that falls behind as far as it
// has before costs no allocation. Only the run goroutine touches it; depth
// mirrors n for the metrics scrape.
//
// gwlint:arena-carrier — the queued events are deliveries on their way to
// the consumer, who takes them through the channel exactly as if the
// channel had held them all.
type eventQueue struct {
	ring    []Event // a power of two long, or empty
	head, n int
	depth   atomic.Int64
}

func (q *eventQueue) push(ev Event) {
	if q.n == len(q.ring) {
		grown := make([]Event, max(eventHandoff, 2*len(q.ring)))
		k := copy(grown, q.ring[q.head:])
		copy(grown[k:], q.ring[:q.head])
		q.ring, q.head = grown, 0
	}
	q.ring[(q.head+q.n)&(len(q.ring)-1)] = ev
	q.n++
	q.depth.Store(int64(q.n))
}

func (q *eventQueue) front() Event { return q.ring[q.head] }

// pop drops the front event, and the queue's reference to its datagram.
func (q *eventQueue) pop() {
	q.ring[q.head] = Event{}
	q.head = (q.head + 1) & (len(q.ring) - 1)
	q.n--
	q.depth.Store(int64(q.n))
}

// Node is one member of a Totem ring. Create with Start, stop with Stop.
// It is the driver of a protocol core (core.go): one goroutine owns the
// core and feeds it the transport's datagrams, the application's
// submissions and the time; the public methods communicate with that
// goroutine through channels and read the mirrors the core publishes.
type Node struct {
	core *Core
	ep   Transport
	// ceiling is the longest buffer MulticastFramed takes, zero for any.
	ceiling int

	events chan Event
	// waiting is the rest of the event stream, behind events.
	waiting eventQueue
	sendq   chan []byte
	stop    chan struct{}
	done    chan struct{}
}

// Start creates a node and launches its protocol goroutine. The founding
// members immediately run a membership exchange to install the first
// ring, so callers should wait for the initial EventConfig before
// multicasting if they need the full ring assembled.
func Start(cfg Config) (*Node, error) {
	cfg.applyDefaults()
	if cfg.Endpoint == nil {
		return nil, errors.New("totem: config needs an endpoint")
	}
	if cfg.ID == "" {
		cfg.ID = cfg.Endpoint.ID()
	}
	if cfg.ID != cfg.Endpoint.ID() {
		return nil, fmt.Errorf("totem: id %q does not match endpoint %q", cfg.ID, cfg.Endpoint.ID())
	}
	n := &Node{
		ep:     cfg.Endpoint,
		events: make(chan Event, eventHandoff),
		sendq:  make(chan []byte, 1024),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	n.core = NewCore(cfg, time.Now(), n.broadcast, n.deliver)
	if max := cfg.Endpoint.MaxDatagram(); max > 0 {
		n.ceiling = max - n.core.longestHeader() + n.core.room
	}
	n.registerMetrics(cfg.Metrics)
	go n.run()
	return n, nil
}

// registerMetrics publishes the protocol counters on the registry.
func (n *Node) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	lbl := obs.Labels{"node": string(n.core.cfg.ID)}
	for _, c := range []struct {
		name, help string
		fn         func() uint64
	}{
		{"eternalgw_totem_broadcast_total", "Regular messages this node originated.", n.core.broadcastN.Load},
		{"eternalgw_totem_delivered_total", "Regular messages delivered to the application in total order.", n.core.deliveredN.Load},
		{"eternalgw_totem_retransmitted_total", "Retransmissions this node served.", n.core.retransmittedN.Load},
		{"eternalgw_totem_skipped_total", "Sequence numbers declared unrecoverable and skipped.", n.core.skippedN.Load},
		{"eternalgw_totem_resumed_total", "Times this node resumed at the horizon of a ring history it was not part of.", n.core.resumedN.Load},
		{"eternalgw_totem_token_passes_total", "Tokens this node forwarded.", n.core.tokenPassN.Load},
		{"eternalgw_totem_reconfigs_total", "Ring installations this node participated in.", n.core.reconfigN.Load},
		{"eternalgw_totem_gathers_total", "Membership recoveries this node began; those beyond its reconfigs were abandoned at the commit.", n.core.gatherN.Load},
		{"eternalgw_totem_packed_msgs_total", "Packed datagrams this node originated.", n.core.packedMsgN.Load},
		{"eternalgw_totem_packed_parts_total", "Payloads carried inside packed datagrams.", n.core.packedPartN.Load},
		{"eternalgw_totem_fastpath_forwarded_total", "Payloads forwarded to a sequencer in leader mode.", n.core.forwardedN.Load},
		{"eternalgw_totem_fastpath_batches_total", "Ordered batches this node multicast as sequencer.", n.core.leaderBatchN.Load},
		{"eternalgw_totem_fastpath_refs_total", "Sequence numbers this node ordered by reference as sequencer (batches without payloads).", n.core.refN.Load},
		{"eternalgw_totem_fastpath_ref_misses_total", "By-reference batches this node could not bind to a held forward and had served by retransmission.", n.core.refMissN.Load},
		{"eternalgw_totem_fastpath_promotions_total", "Leader epochs installed on this node.", n.core.promotionN.Load},
		{"eternalgw_totem_fastpath_demotions_total", "Falls from leader mode back to ring rotation.", n.core.demotionN.Load},
		{"eternalgw_totem_framed_in_place_total", "Payload-bearing datagrams framed in the buffer their one payload was submitted in.", n.core.framedInPlaceN.Load},
		{"eternalgw_totem_framed_by_copy_total", "Payload-bearing datagrams built by copying their payloads: packs, retransmissions, a payload sent a second time.", n.core.framedByCopyN.Load},
	} {
		reg.CounterFunc(c.name, c.help, lbl, c.fn)
	}
	reg.GaugeFunc("eternalgw_totem_event_backlog", "Ordered events queued behind the full hand-off channel, waiting for the consumer.", lbl,
		func() float64 { return float64(n.waiting.depth.Load()) })
	reg.GaugeFunc("eternalgw_totem_fastpath_stability_lag", "Sequence numbers the sequencer has assigned beyond its stability horizon.", lbl,
		func() float64 { return float64(n.stabilityLagN()) })
}

// ID returns the node's identity.
func (n *Node) ID() memnet.NodeID { return n.core.cfg.ID }

// Events returns the ordered event stream. The channel holds a few dozen
// events (eventHandoff); what the consumer has not taken beyond that waits
// in order on the protocol goroutine, which offers it as the channel frees.
// The consumer must keep draining it: at eventBufSize undelivered events
// the protocol goroutine blocks, which stalls the ring (and will
// eventually look like a failure to peers).
func (n *Node) Events() <-chan Event { return n.events }

// Multicast submits a payload for totally-ordered delivery to every ring
// member (including this node): MulticastFramed of a copy of the payload
// behind the room.
func (n *Node) Multicast(payload []byte) error {
	return n.MulticastFramed(n.core.framed(payload))
}

// Headroom is how many bytes MulticastFramed's caller leaves in front of
// a payload: this node's longest header ahead of a message sent alone.
func (n *Node) Headroom() int { return n.core.Headroom() }

// Ceiling is the longest buffer MulticastFramed takes, Headroom included,
// and zero if the transport sets no limit: the payload then fits one
// datagram under the longest header any configured member would send or
// retransmit it with. It is the same payload length at every member.
func (n *Node) Ceiling() int { return n.ceiling }

// MulticastFramed is Multicast for a payload built behind Headroom
// unwritten bytes, in a buffer that ends with it and that the node takes
// over: a payload that travels alone has its header written into the room
// and the buffer itself broadcast (DESIGN.md section 7). A buffer longer
// than Ceiling is refused with ErrTooLarge and stays the caller's.
func (n *Node) MulticastFramed(buf []byte) error {
	if len(buf) < n.core.room {
		return fmt.Errorf("totem: a framed buffer of %d bytes has no room for the %d-byte header", len(buf), n.core.room)
	}
	if n.ceiling > 0 && len(buf) > n.ceiling {
		return fmt.Errorf("%w: %d bytes, ceiling %d", ErrTooLarge, len(buf)-n.core.room, n.ceiling-n.core.room)
	}
	select {
	case <-n.stop:
		return ErrStopped
	default:
	}
	select {
	case n.sendq <- buf:
		return nil
	case <-n.stop:
		return ErrStopped
	}
}

// Backlog reports the send-side backpressure signal: how many payloads
// are queued for ordered broadcast (submitted but not yet consumed by a
// token visit) against the submission queue's capacity. A backlog near
// the capacity means Multicast callers are about to block — the domain
// is not keeping up with offered load.
func (n *Node) Backlog() (queued, capacity int) {
	return len(n.sendq) + int(n.core.pendingN.Load()), cap(n.sendq)
}

// Members returns the most recently installed ring.
func (n *Node) Members() []memnet.NodeID {
	n.core.mu.Lock()
	defer n.core.mu.Unlock()
	out := make([]memnet.NodeID, len(n.core.curMembers))
	copy(out, n.core.curMembers)
	return out
}

// RingID returns the id of the most recently installed ring.
func (n *Node) RingID() uint64 {
	n.core.mu.Lock()
	defer n.core.mu.Unlock()
	return n.core.curRing
}

// Stats returns a snapshot of protocol counters.
func (n *Node) Stats() Stats {
	return Stats{
		Broadcast:     n.core.broadcastN.Load(),
		Delivered:     n.core.deliveredN.Load(),
		Retransmitted: n.core.retransmittedN.Load(),
		Skipped:       n.core.skippedN.Load(),
		Resumed:       n.core.resumedN.Load(),
		TokenPasses:   n.core.tokenPassN.Load(),
		Reconfigs:     n.core.reconfigN.Load(),
		Gathers:       n.core.gatherN.Load(),
		PackedMsgs:    n.core.packedMsgN.Load(),
		PackedParts:   n.core.packedPartN.Load(),
		Forwarded:     n.core.forwardedN.Load(),
		LeaderBatches: n.core.leaderBatchN.Load(),
		RefBatches:    n.core.refN.Load(),
		RefMisses:     n.core.refMissN.Load(),
		Promotions:    n.core.promotionN.Load(),
		Demotions:     n.core.demotionN.Load(),
		StabilityLag:  n.stabilityLagN(),
		FramedInPlace: n.core.framedInPlaceN.Load(),
		FramedByCopy:  n.core.framedByCopyN.Load(),
	}
}

// stabilityLagN reports how far the sequencer has assigned sequence
// numbers beyond its stability horizon (zero off the fast path).
func (n *Node) stabilityLagN() uint64 {
	seq, stable := n.core.fpSeqA.Load(), n.core.fpStableA.Load()
	if seq > stable {
		return seq - stable
	}
	return 0
}

// Fastpath reports the installed sequencer for the current ring, if the
// leader-ordered fast path is active: the leader's identity and the
// agreed ring-ordered sequence number the mode switch was installed at.
func (n *Node) Fastpath() (leader memnet.NodeID, startSeq uint64, ok bool) {
	n.core.mu.Lock()
	defer n.core.mu.Unlock()
	if n.core.curLeader == "" {
		return "", 0, false
	}
	return n.core.curLeader, n.core.curLeaderSeq, true
}

// Stop terminates the protocol goroutine and waits for it to exit.
// Stop is idempotent.
func (n *Node) Stop() {
	select {
	case <-n.stop:
	default:
		close(n.stop)
	}
	<-n.done
}

// run is the driver: it waits for a datagram, a submission, the core's
// next deadline, the consumer taking the oldest waiting event, or Stop,
// reads the clock once, steps the core, and hands the consumer what the
// channel has room for.
func (n *Node) run() {
	defer close(n.done)
	timer := time.NewTimer(0)
	defer timer.Stop()
	var batch [][]byte // submissions drained for one step; the backing array is reused
	for {
		var pkt memnet.Packet
		fired := false
		var out chan Event // the events channel while an event waits for it
		var head Event
		if n.waiting.n > 0 {
			out, head = n.events, n.waiting.front()
		}
		select {
		case <-n.stop:
			return
		//lint:allow arenaalias the delivery channel is the borrow's sanctioned handoff point
		case out <- head:
			n.waiting.pop()
			n.flush()
			continue // the core has not moved: its deadline stands
		case pkt = <-n.ep.Recv():
		case p := <-n.sendq:
			batch = append(batch, p)
		case <-timer.C:
			fired = true
		}
		for more := true; more; {
			select {
			case p := <-n.sendq:
				batch = append(batch, p)
			default:
				more = false
			}
		}
		now := time.Now()
		if len(batch) > 0 {
			n.core.Submit(now, batch)
			clear(batch)
			batch = batch[:0]
		}
		if pkt.Payload != nil {
			n.core.Receive(now, pkt.Payload, len(n.ep.Recv()))
		}
		if fired {
			n.core.Tick(now, len(n.ep.Recv()))
		} else if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		n.flush()
		wait := time.Hour
		if next := n.core.Next(); !next.IsZero() {
			wait = max(0, next.Sub(now))
		}
		timer.Reset(wait)
	}
}

// broadcast is the core's send hook. A crashed node's sends fail; the
// loop keeps running so the node can rejoin after a simulated restart.
func (n *Node) broadcast(b []byte) { _ = n.ep.Broadcast(b) }

// deliver is the core's event hook. An event goes straight onto the
// channel while none waits before it, and otherwise behind them; at
// eventBufSize undelivered events it waits for the consumer to take one,
// or for Stop.
func (n *Node) deliver(ev Event) {
	if n.waiting.n == 0 {
		select {
		// This send is where the arena borrow begins, not where it leaks:
		// the events channel is the protocol's delivery handoff, and the
		// consumer contract (Events doc) is to finish or copy each event
		// before taking the next.
		//lint:allow arenaalias the delivery channel is the borrow's sanctioned handoff point
		case n.events <- ev:
			return
		default:
		}
	}
	for len(n.events)+n.waiting.n >= eventBufSize {
		//lint:allow looplock delivery backpressure is intentional and the stop channel bounds the wait
		select {
		//lint:allow arenaalias the delivery channel is the borrow's sanctioned handoff point
		case n.events <- n.waiting.front():
			n.waiting.pop()
		case <-n.stop:
			return
		}
	}
	n.waiting.push(ev)
}

// flush moves waiting events onto the channel, oldest first, as far as it
// has room, without waiting.
func (n *Node) flush() {
	for n.waiting.n > 0 {
		select {
		//lint:allow arenaalias the delivery channel is the borrow's sanctioned handoff point
		case n.events <- n.waiting.front():
			n.waiting.pop()
		default:
			return
		}
	}
}
