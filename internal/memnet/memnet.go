// Package memnet provides a simulated, in-process datagram network used
// as the transport substrate for the Totem protocol and for fault
// tolerance domains built in tests, examples and benchmarks.
//
// The network delivers unicast and broadcast datagrams between attached
// endpoints with best-effort (UDP-like) semantics: configurable loss,
// duplication and delay, plus scripted partitions and node crashes. The
// Totem layer above supplies reliability and total ordering, exactly as
// it does over a real LAN; memnet exists because this reproduction runs
// laptop-scale topologies inside one process (see DESIGN.md section 2).
package memnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NodeID names an endpoint on the network.
type NodeID string

// Clock is the timer source used for delayed delivery. The default
// implementation schedules on the runtime's wall clock; deterministic
// simulation harnesses (internal/sim) inject a virtual clock whose
// callbacks fire from a single-threaded event loop, so a seeded run
// replays the same delivery schedule byte for byte.
type Clock interface {
	// AfterFunc arranges for f to run once d has elapsed.
	AfterFunc(d time.Duration, f func())
}

// realClock is the default Clock: the runtime timer wheel.
type realClock struct{}

func (realClock) AfterFunc(d time.Duration, f func()) {
	// The wall clock is this type's whole purpose: it is the documented
	// real-time default, and deterministic harnesses swap in a virtual
	// Clock instead of using it.
	//lint:allow simdet realClock is the real-time default behind the injectable Clock seam
	time.AfterFunc(d, f)
}

// Packet is one datagram. Payload belongs to the receivers and is
// read-only: Broadcast hands every destination the sender's slice, so
// the same bytes sit in several inboxes at once and whoever writes to
// them — sender or receiver — corrupts the datagram for the others.
type Packet struct {
	From    NodeID
	Payload []byte
}

// Stats counts network activity.
type Stats struct {
	Sent      uint64 // datagrams submitted (one per destination)
	Delivered uint64 // datagrams placed in an inbox
	Lost      uint64 // dropped by loss injection
	Blocked   uint64 // dropped by partition or crash
	Overflow  uint64 // dropped because an inbox was full
}

// Errors reported by the package.
var (
	ErrDuplicateNode = errors.New("memnet: node id already attached")
)

const defaultInboxSize = 4096

// Network is a simulated datagram network. All methods are safe for
// concurrent use.
type Network struct {
	mu        sync.Mutex
	nodes     map[NodeID]*Endpoint
	rng       *rand.Rand
	clock     Clock
	lossRate  float64
	dupRate   float64
	maxDelay  time.Duration
	partition map[NodeID]int // partition group per node; absent = group 0
	crashed   map[NodeID]bool
	// sorted holds the attached ids in sorted order, the order Broadcast
	// consumes the RNG in: part of the determinism contract. Attach
	// replaces it (never writes into it), so Broadcast can walk a
	// snapshot taken under mu after releasing the lock.
	sorted []NodeID

	sent, delivered, lost, blocked, overflow atomic.Uint64
}

// Option configures a Network.
type Option interface{ apply(*Network) }

type optionFunc func(*Network)

func (f optionFunc) apply(n *Network) { f(n) }

// WithSeed sets the RNG seed used for loss, duplication and delay,
// making fault injection reproducible.
func WithSeed(seed int64) Option {
	return optionFunc(func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) })
}

// WithLoss sets the probability in [0,1] that any datagram is dropped.
func WithLoss(rate float64) Option {
	return optionFunc(func(n *Network) { n.lossRate = rate })
}

// WithDuplication sets the probability in [0,1] that a datagram is
// delivered twice.
func WithDuplication(rate float64) Option {
	return optionFunc(func(n *Network) { n.dupRate = rate })
}

// WithMaxDelay sets an upper bound on random per-datagram delivery delay.
// Zero (the default) delivers synchronously, which keeps tests fast and
// deterministic.
func WithMaxDelay(d time.Duration) Option {
	return optionFunc(func(n *Network) { n.maxDelay = d })
}

// WithClock sets the timer source for delayed delivery. The default is
// the runtime's wall clock; simulation harnesses supply a virtual clock
// so delivery timing is part of the deterministic event schedule.
func WithClock(c Clock) Option {
	return optionFunc(func(n *Network) { n.clock = c })
}

// New creates a network.
func New(opts ...Option) *Network {
	n := &Network{
		nodes:     make(map[NodeID]*Endpoint),
		rng:       rand.New(rand.NewSource(1)),
		clock:     realClock{},
		partition: make(map[NodeID]int),
		crashed:   make(map[NodeID]bool),
	}
	for _, o := range opts {
		o.apply(n)
	}
	return n
}

// Attach adds an endpoint with the given id.
func (n *Network) Attach(id NodeID) (*Endpoint, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[id]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	e := &Endpoint{
		id:    id,
		net:   n,
		inbox: make(chan Packet, defaultInboxSize),
	}
	n.nodes[id] = e
	n.resortLocked()
	delete(n.crashed, id)
	return e, nil
}

// Crash marks a node as crashed: it neither sends nor receives until
// Restart. The endpoint object stays valid so the owning process can
// observe the crash through send errors.
func (n *Network) Crash(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
}

// Restart clears the crashed state of a node.
func (n *Network) Restart(id NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, id)
}

// Crashed reports whether a node is currently crashed.
func (n *Network) Crashed(id NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

// Partition splits the network: each slice of ids becomes an isolated
// group; nodes not listed join group 0 (together with the first slice's
// complement). Delivery crosses group boundaries in neither direction.
func (n *Network) Partition(groups ...[]NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[NodeID]int)
	for i, g := range groups {
		for _, id := range g {
			n.partition[id] = i + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partition = make(map[NodeID]int)
}

// SetLoss updates the loss rate at runtime.
func (n *Network) SetLoss(rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.lossRate = rate
}

// resortLocked rebuilds sorted after the node set changed. Callers hold
// mu.
func (n *Network) resortLocked() {
	out := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n.sorted = out
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() Stats {
	return Stats{
		Sent:      n.sent.Load(),
		Delivered: n.delivered.Load(),
		Lost:      n.lost.Load(),
		Blocked:   n.blocked.Load(),
		Overflow:  n.overflow.Load(),
	}
}

// send routes one datagram from -> to, applying crash, partition, loss,
// duplication and delay. Callers hold no locks.
func (n *Network) send(from, to NodeID, payload []byte) {
	n.sent.Add(1)

	n.mu.Lock()
	dst, ok := n.nodes[to]
	if !ok || n.crashed[from] || n.crashed[to] || n.partition[from] != n.partition[to] {
		n.mu.Unlock()
		n.blocked.Add(1)
		return
	}
	copies := 1
	if n.lossRate > 0 && n.rng.Float64() < n.lossRate {
		copies = 0
	} else if n.dupRate > 0 && n.rng.Float64() < n.dupRate {
		copies = 2
	}
	var delay time.Duration
	if n.maxDelay > 0 {
		delay = time.Duration(n.rng.Int63n(int64(n.maxDelay)))
	}
	n.mu.Unlock()

	if copies == 0 {
		n.lost.Add(1)
		return
	}
	pkt := Packet{From: from, Payload: payload}
	for i := 0; i < copies; i++ {
		if delay > 0 {
			n.clock.AfterFunc(delay, func() { n.deliver(dst, pkt) })
		} else {
			n.deliver(dst, pkt)
		}
	}
}

func (n *Network) deliver(dst *Endpoint, pkt Packet) {
	select {
	case dst.inbox <- pkt:
		n.delivered.Add(1)
	default:
		n.overflow.Add(1)
	}
}

// Endpoint is one attached node's interface to the network.
type Endpoint struct {
	id    NodeID
	net   *Network
	inbox chan Packet
}

// ID returns the endpoint's node id.
func (e *Endpoint) ID() NodeID { return e.id }

// Recv returns the endpoint's inbox channel.
func (e *Endpoint) Recv() <-chan Packet { return e.inbox }

// MaxDatagram reports that the simulated network carries a datagram of
// any size (zero: no limit).
func (e *Endpoint) MaxDatagram() int { return 0 }

// Send transmits a unicast datagram. The payload is not copied; callers
// must not mutate it after sending.
func (e *Endpoint) Send(to NodeID, payload []byte) error {
	if e.net.Crashed(e.id) {
		return fmt.Errorf("memnet: node %q crashed", e.id)
	}
	e.net.send(e.id, to, payload)
	return nil
}

// Broadcast transmits a datagram to every attached node, including the
// sender itself (matching IP-multicast loopback semantics that Totem
// relies on to self-deliver its own messages in total order).
func (e *Endpoint) Broadcast(payload []byte) error {
	if e.net.Crashed(e.id) {
		return fmt.Errorf("memnet: node %q crashed", e.id)
	}
	e.net.mu.Lock()
	ids := e.net.sorted
	e.net.mu.Unlock()
	for _, id := range ids {
		e.net.send(e.id, id, payload)
	}
	return nil
}
