// Package fifo provides the bounded first-wins table behind every
// duplicate-suppression record in the gateway: the gateway group's
// request and reply records (core), the answered-operation set and the
// replica's executed-operation cache (replication).
package fifo

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
// the oldest entry.
func (t *Map[K, V]) Add(k K, v V) bool {
	if _, ok := t.m[k]; ok {
		return false
	}
	t.m[k] = v
	if len(t.ring) < t.max {
		t.ring = append(t.ring, k)
		return true
	}
	delete(t.m, t.ring[t.head])
	t.ring[t.head] = k
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
	return true
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

// DeleteFunc removes every entry whose key del reports true for and
// preserves the eviction order of the rest. O(Len).
func (t *Map[K, V]) DeleteFunc(del func(K) bool) {
	n := len(t.ring)
	kept := make([]K, 0, n)
	for i := 0; i < n; i++ {
		k := t.ring[(t.head+i)%n]
		if del(k) {
			delete(t.m, k)
			continue
		}
		kept = append(kept, k)
	}
	t.ring = kept
	t.head = 0
}
