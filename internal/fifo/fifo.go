// Package fifo provides the bounded first-wins table behind every
// duplicate-suppression record in the gateway: a processor's
// answered-operation table, which is also the gateway group's reply
// record, and each replica's operation table (both replication).
package fifo

import "slices"

// Map is a table of operation identifiers, each with the reply recorded
// for it or none (a tombstone: the identifier alone), under two bounds.
// Identifiers are bounded by count: inserting into a full Map evicts the
// oldest key in O(1) through a ring of keys in insertion order. The
// replies among them are bounded by bytes: when they exceed the window
// the oldest reply is stripped to a tombstone, so an identifier outlives
// its reply and what the Map keeps alive does not grow with the size of a
// reply. The first reply recorded for a key wins, the deduplication rule.
//
// A Map holds no lock; its owner guards it (a shard mutex, or
// confinement to one goroutine). A by-value copy would alias the ring's
// backing array while diverging its head index, corrupting eviction as
// silently as a copied mutex corrupts exclusion, hence the directive.
//
// gwlint:nocopy
type Map[K comparable] struct {
	m    map[K][]byte
	ring []K // insertion order; the oldest key is at head once full
	head int
	max  int

	window  int // bound on bytes
	bytes   int // the kept replies' lengths, summed
	replies int // how many entries hold one
	// bare counts entries from the oldest on that are known to hold no
	// reply: where stripping resumes.
	bare int
}

// Init sizes the Map to hold at most capacity entries (at least one) and
// window bytes of replies. It must be called before any other method.
func (t *Map[K]) Init(capacity, window int) {
	*t = Map[K]{m: make(map[K][]byte), max: max(capacity, 1), window: window}
}

// Add records k, with reply if there is one, and reports whether k was
// absent. A key already present keeps its place and the reply it holds;
// one that holds none takes reply (the identifier is recorded where an
// operation is first seen, the reply where it ran). An empty reply, or
// one the whole window could not hold, is none.
func (t *Map[K]) Add(k K, reply []byte) (inserted bool) {
	if len(reply) == 0 || len(reply) > t.window {
		reply = nil
	}
	held, present := t.m[k]
	if present && (held != nil || reply == nil) {
		return false
	}
	if present {
		t.bare = 0 // the reply may lie behind where stripping stood
	} else {
		t.place(k)
	}
	t.m[k] = reply
	if reply != nil {
		t.replies++
		t.bytes += len(reply)
		t.strip()
	}
	return !present
}

// place gives an absent key the newest place in the ring, the oldest
// key's if the ring is full.
func (t *Map[K]) place(k K) {
	if len(t.ring) < t.max {
		t.ring = append(t.ring, k)
		return
	}
	t.forget(t.ring[t.head])
	t.ring[t.head] = k
	t.head = (t.head + 1) % len(t.ring)
	t.bare = max(t.bare-1, 0)
}

// strip turns the oldest replies into tombstones until the rest fit the
// window.
func (t *Map[K]) strip() {
	for t.bytes > t.window {
		k := t.ring[(t.head+t.bare)%len(t.ring)]
		if held := t.m[k]; held != nil {
			t.m[k] = nil
			t.replies--
			t.bytes -= len(held)
		}
		t.bare++
	}
}

// forget removes k from the map and its reply from the counts; the ring
// is the caller's.
func (t *Map[K]) forget(k K) {
	if held := t.m[k]; held != nil {
		t.replies--
		t.bytes -= len(held)
	}
	delete(t.m, k)
}

// Get returns the reply recorded under k, nil if k is a tombstone, and
// whether k is present.
func (t *Map[K]) Get(k K) ([]byte, bool) {
	reply, ok := t.m[k]
	return reply, ok
}

// Has reports whether k is present.
func (t *Map[K]) Has(k K) bool {
	_, ok := t.m[k]
	return ok
}

// Len reports the number of entries held.
func (t *Map[K]) Len() int { return len(t.m) }

// Replies reports how many entries hold a reply and the bytes of those.
func (t *Map[K]) Replies() (n, bytes int) { return t.replies, t.bytes }

// DeleteFunc removes every entry whose key del reports true for,
// visiting them oldest first, and preserves the eviction order of the
// rest. It compacts the ring in place: O(Len), no allocation. del may
// read the Map (Get, Has) but not add to it.
func (t *Map[K]) DeleteFunc(del func(K) bool) {
	n := len(t.ring)
	kept, bare := 0, t.bare
	for i := 0; i < n; i++ {
		k := t.ring[(t.head+i)%n]
		if del(k) {
			t.forget(k)
			if i < bare {
				t.bare--
			}
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
