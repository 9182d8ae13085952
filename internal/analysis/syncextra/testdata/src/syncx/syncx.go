// Package syncx exercises the syncextra analyzer: the gwlint:nocopy
// directive puts lock-free ring types under copylocks-style rules, sync
// primitives are covered transitively, and function-style sync/atomic
// calls are rejected in favor of the typed atomics — with the 32-bit
// misalignment called out when it is provable.
package syncx

import (
	"sync"
	"sync/atomic"

	"eternalgw/internal/fifo"
)

// ring has no locks — it is guarded by its shard's mutex — so stock
// vet's copylocks says nothing about copying it; the directive does.
//
// gwlint:nocopy
type ring struct {
	buf  []uint64
	head int
}

// table contains a mutex, so it is covered automatically, like vet.
type table struct {
	mu sync.Mutex
	n  int
}

var t0 table

func byValueParam(r ring) int { // want `parameter of no-copy type`
	return r.head
}

func byValueResult(r *ring) (ring, bool) { // want `result of no-copy type`
	return *r, true // want `return copies a value of no-copy type`
}

func assigns(r *ring) int {
	cp := *r // want `assignment copies a value of no-copy type`
	return cp.head
}

func ranges(rs []ring) int {
	n := 0
	for _, r := range rs { // want `range copies a value of no-copy type`
		n += r.head
	}
	return n
}

func consume(any) {}

func passes(r *ring) {
	consume(*r) // want `call passes by value a value of no-copy type`
}

func snapshot() table { // want `result of no-copy type`
	return t0 // want `return copies a value of no-copy type`
}

// Pointers are always fine.
func viaPointer(r *ring) *ring {
	return r
}

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

// A generic no-copy type: every instantiation is covered by the one
// directive on its declaration.
//
// gwlint:nocopy
type gring[K comparable] struct {
	buf  []K
	head int
}

func (g *gring[K]) push(k K) { g.buf = append(g.buf, k) }

type shard struct {
	keys gring[uint64]
}

func genericAssign(s *shard) int {
	cp := s.keys // want `assignment copies a value of no-copy type`
	return cp.head
}

func genericParam(g gring[string]) int { // want `parameter of no-copy type`
	return g.head
}

func genericInGeneric[K comparable](g *gring[K]) gring[K] { // want `result of no-copy type`
	return *g // want `return copies a value of no-copy type`
}

// A struct embedding an instantiation is no-copy transitively.
func shardCopy(s *shard) shard { // want `result of no-copy type`
	return *s // want `return copies a value of no-copy type`
}

// Using an instantiation in place, or through a pointer, is fine.
func genericInPlace(s *shard) *gring[uint64] {
	s.keys.push(1)
	var fresh gring[int]
	fresh.push(2)
	return &s.keys
}

// The directive travels with an imported type: the production table is
// declared no-copy once, in its own package.
type records struct {
	seen fifo.Map[uint64]
}

func importedCopy(r *records) int {
	cp := r.seen // want `assignment copies a value of no-copy type eternalgw/internal/fifo.Map`
	return cp.Len()
}

func importedParam(m fifo.Map[string]) int { // want `parameter of no-copy type`
	return m.Len()
}

func importedInPlace(r *records) bool {
	r.seen.Init(4, 64)
	return r.seen.Add(1, nil)
}
