// Package syncx exercises the syncextra analyzer: function-style
// sync/atomic calls are rejected in favor of the typed atomics, with the
// 32-bit misalignment called out when it is provable.
package syncx

import "sync/atomic"

// counters mixes a 32-bit field before a 64-bit one: under GOARCH=386
// layout the uint64 lands at offset 4, which is the crash the typed
// atomics exist to prevent.
type counters struct {
	flag uint32
	n    uint64
}

func bumpMisaligned(c *counters) {
	atomic.AddUint64(&c.n, 1) // want `function-style sync/atomic call AddUint64.*crashes on 386/arm`
}

type aligned struct {
	n uint64
}

func bumpAligned(a *aligned) {
	atomic.AddUint64(&a.n, 1) // want `function-style sync/atomic call AddUint64`
}

func load32(c *counters) uint32 {
	return atomic.LoadUint32(&c.flag) // want `function-style sync/atomic call LoadUint32`
}

// The typed atomics are the sanctioned API; nothing to report.
type modern struct {
	n atomic.Uint64
}

func bumpTyped(m *modern) uint64 {
	return m.n.Add(1)
}

// The escape hatch applies here too.
func sanctioned(c *counters) {
	atomic.AddUint32(&c.flag, 1) //lint:allow syncextra interop with a cgo counter that predates the typed atomics
}
