// Package nodewait exercises the protocol-goroutine class: step is the
// consumer a totem node runs, so the goroutine is held against every lock
// step takes. Holding one of those locks across a call that waits on the
// node — a multicast into a full submission queue, Stop — closes a cycle;
// a consumer that waits on its own node waits on itself. A multicast the
// consumer queues in step (MulticastInStep) waits on nothing.
package nodewait

import (
	"sync"

	"eternalgw/internal/totem"
)

type mech struct {
	mu   sync.RWMutex
	seen int
	node *totem.Node
}

func run(n *totem.Node) *mech {
	m := &mech{node: n}
	n.Run(m.step)
	return m
}

func (m *mech) step(ev totem.Event) {
	m.mu.Lock() // want `lock order cycle: .*mech\.mu acquired while .*totem\.Node\.run \(the protocol goroutine\) is held here, but .*totem\.Node\.run \(the protocol goroutine\) is acquired while .*mech\.mu is held at .*nodewait\.go:39`
	defer m.mu.Unlock()
	m.seen++
	_ = m.node.MulticastInStep(nil)
}

// announce waits on the node under the read lock that step's write lock
// waits for.
func (m *mech) announce(b []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.node.Multicast(b)
}

// announceAfter reads under the lock and multicasts after release.
func (m *mech) announceAfter(b []byte) error {
	m.mu.RLock()
	n := m.seen
	m.mu.RUnlock()
	return m.node.Multicast(append(b, byte(n)))
}

type echo struct{ node *totem.Node }

func runEcho(n *totem.Node) {
	e := &echo{node: n}
	n.Run(e.step)
}

// step multicasts from the protocol goroutine itself.
func (e *echo) step(ev totem.Event) {
	e.send(ev.Delivery.Payload)
}

func (e *echo) send(b []byte) {
	_ = e.node.Multicast(b) // want `code a totem node's protocol goroutine runs \(.*\) waits on that goroutine`
}
