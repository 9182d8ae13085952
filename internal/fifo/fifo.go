// Package fifo provides the bounded first-wins table behind every
// duplicate-suppression record in the gateway: a processor's
// answered-operation table, which is also the gateway group's reply
// record, and the replica's executed-operation cache (both replication).
package fifo

import "slices"

// Map is a map bounded at a fixed capacity: Add inserts only absent
// keys (the first value recorded for a key wins, the deduplication
// rule), and inserting into a full Map evicts the oldest key in O(1)
// through a ring of keys in insertion order.
//
// A Map holds no lock; its owner guards it (a shard mutex, or
// confinement to one goroutine). A by-value copy would alias the ring's
// backing array while diverging its head index, corrupting eviction as
// silently as a copied mutex corrupts exclusion, hence the directive.
//
// gwlint:nocopy
type Map[K comparable, V any] struct {
	m    map[K]V
	ring []K // insertion order; the oldest key is at head once full
	head int
	max  int
}

// Init sizes the Map to hold at most capacity entries (at least one).
// It must be called before any other method.
func (t *Map[K, V]) Init(capacity int) {
	if capacity < 1 {
		capacity = 1
	}
	t.m = make(map[K]V)
	t.max = capacity
}

// Add records v under k and reports whether it was inserted; a key
// already present keeps its value. Inserting into a full Map evicts
// the oldest entry and returns its value (otherwise the zero V), for an
// owner that keeps a count of what its values hold.
func (t *Map[K, V]) Add(k K, v V) (evicted V, inserted bool) {
	if _, ok := t.m[k]; ok {
		return evicted, false
	}
	if len(t.ring) < t.max {
		t.m[k] = v
		t.ring = append(t.ring, k)
		return evicted, true
	}
	oldest := t.ring[t.head]
	evicted = t.m[oldest]
	delete(t.m, oldest)
	t.m[k] = v
	t.ring[t.head] = k
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	return evicted, true
}

// Get returns the value recorded under k.
func (t *Map[K, V]) Get(k K) (V, bool) {
	v, ok := t.m[k]
	return v, ok
}

// Has reports whether k is present.
func (t *Map[K, V]) Has(k K) bool {
	_, ok := t.m[k]
	return ok
}

// Len reports the number of entries held.
func (t *Map[K, V]) Len() int { return len(t.m) }

// DeleteFunc removes every entry whose key del reports true for,
// visiting them oldest first, and preserves the eviction order of the
// rest. It compacts the ring in place: O(Len), no allocation. del may
// read the Map (Get, Has) but not add to it.
func (t *Map[K, V]) DeleteFunc(del func(K) bool) {
	n := len(t.ring)
	kept := 0
	for i := 0; i < n; i++ {
		k := t.ring[(t.head+i)%n]
		if del(k) {
			delete(t.m, k)
			continue
		}
		// kept <= i: the write never overtakes the read.
		t.ring[(t.head+kept)%n] = k
		kept++
	}
	if kept == n {
		return
	}
	// The ring is no longer full, and a ring that is not full holds its
	// keys from index 0: rotate the survivors down (three reversals).
	slices.Reverse(t.ring[:t.head])
	slices.Reverse(t.ring[t.head:])
	slices.Reverse(t.ring)
	clear(t.ring[kept:])
	t.ring = t.ring[:kept]
	t.head = 0
}
