// Package slab is a supply of short-lived regions carved out of chunks, so
// that what is carved does not allocate on its own.
package slab

// Slab carves regions of T, each cut from a chunk of a fixed number of
// elements, with its capacity clipped to what it was carved for, so an
// append onto one reallocates instead of running into the next. A full
// chunk is replaced, never reused: a region lives as long as whoever holds
// it, and the collector frees a chunk once nothing carved from it is
// held. So what a slab's regions pin is the rule of its owner, stated
// where the owner carves: a totem core's part lists and control datagrams
// (internal/totem), a replica's responses and a gateway record shard's
// copies (internal/replication), a UDP endpoint's received payloads
// (internal/udpnet), a gateway's requests (internal/core). Nothing
// carved may be written after it is handed out. A request of more than a
// quarter of a chunk, which would waste up to as much, and every request
// of a nil slab is made on its own. The first chunk is made at the first
// request, not with the slab. A Slab is not safe for concurrent use.
type Slab[T any] struct {
	chunk []T // the chunk being carved: its length is what is carved
	size  int // a chunk's length
}

// ByteChunk is how long the chunks of every byte slab are: a totem core's
// control datagrams, a replica's responses, a UDP endpoint's payloads, a
// gateway's requests and a record shard's copies are carved out of chunks
// of ByteChunk bytes, anything over a quarter of it made on its own. What
// a region of one pins, and so DESIGN.md section 8's bounds, is counted
// in it.
const ByteChunk = 4 << 10

// New returns a slab whose chunks hold size elements each.
func New[T any](size int) Slab[T] { return Slab[T]{size: size} }

// Carve returns an empty region with room for n elements.
func (s *Slab[T]) Carve(n int) []T {
	if s == nil || n > s.size/4 {
		return make([]T, 0, n)
	}
	if cap(s.chunk)-len(s.chunk) < n {
		s.chunk = make([]T, 0, s.size)
	}
	at := len(s.chunk)
	s.chunk = s.chunk[:at+n]
	return s.chunk[at : at : at+n]
}

// Chunk returns the chunk being carved, up to what has been carved of it:
// nil before the first request.
func (s *Slab[T]) Chunk() []T { return s.chunk }
