package slab

import (
	"bytes"
	"testing"
	"unsafe"
)

// within reports whether b's bytes lie inside region's backing array, up
// to its capacity.
func within[T any](region, b []T) bool {
	if cap(region) == 0 || cap(b) == 0 {
		return false
	}
	var zero T
	size := unsafe.Sizeof(zero)
	start := uintptr(unsafe.Pointer(unsafe.SliceData(region)))
	at := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return at >= start && at+uintptr(cap(b))*size <= start+uintptr(cap(region))*size
}

// overlap reports whether a's and b's backing regions, up to their
// capacities, share a byte.
func overlap(a, b []byte) bool {
	as, bs := uintptr(unsafe.Pointer(unsafe.SliceData(a))), uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return as < bs+uintptr(cap(b)) && bs < as+uintptr(cap(a))
}

// TestCarveClipsDisjointRegions: what a slab carves lies in its chunk,
// no region overlaps another, each is clipped to what it was carved for —
// an append onto one reallocates and leaves its neighbours as they were.
func TestCarveClipsDisjointRegions(t *testing.T) {
	s := New[byte](4 << 10)
	if s.Chunk() != nil {
		t.Fatal("a new slab made its chunk before the first request")
	}
	var got [][]byte
	for i, n := range []int{1, 7, 48, 13, 200} {
		got = append(got, append(s.Carve(n), bytes.Repeat([]byte{byte(i + 1)}, n)...))
	}
	for i, r := range got {
		if !within(s.Chunk(), r) {
			t.Errorf("region %d: not carved from the chunk", i)
		}
		if cap(r) != len(r) {
			t.Errorf("region %d: capacity %d behind %d bytes", i, cap(r), len(r))
		}
		for j, o := range got {
			if i != j && overlap(r, o) {
				t.Errorf("regions %d and %d overlap", i, j)
			}
		}
		if grown := append(r, 0xff); unsafe.SliceData(grown) == unsafe.SliceData(r) {
			t.Errorf("region %d: an append wrote into the chunk", i)
		}
	}
	for i, r := range got {
		if !bytes.Equal(r, bytes.Repeat([]byte{byte(i + 1)}, len(r))) {
			t.Errorf("region %d: changed by an append onto another", i)
		}
	}
}

// TestAFullChunkIsReplaced: a request that does not fit what is left of
// the chunk gets a new chunk; what was carved from the old one stays as it
// was, and the old chunk is never carved from again.
func TestAFullChunkIsReplaced(t *testing.T) {
	s := New[byte](64)
	var carved [][]byte
	for i := 0; i < 4; i++ {
		carved = append(carved, append(s.Carve(16), bytes.Repeat([]byte{byte(i + 1)}, 16)...))
	}
	first := s.Chunk()
	if len(first) != 64 {
		t.Fatalf("four regions of 16 carved %d bytes of a 64-byte chunk", len(first))
	}
	next := s.Carve(1)
	if within(first, next) || !within(s.Chunk(), next) {
		t.Fatal("a request past a full chunk was not carved from a new one")
	}
	for i, r := range carved {
		if !within(first, r) || !bytes.Equal(r, bytes.Repeat([]byte{byte(i + 1)}, 16)) {
			t.Fatalf("region %d moved or changed when the chunk was replaced", i)
		}
	}
}

// TestOversizedAndNilSlabsMakeTheirOwn: a request of more than a quarter
// of a chunk, and every request of a nil slab, is a buffer of its own, and
// the chunk carries on where it was.
func TestOversizedAndNilSlabsMakeTheirOwn(t *testing.T) {
	const size = 4 << 10
	s := New[byte](size)
	s.Carve(8)
	chunk := s.Chunk()
	big := s.Carve(size/4 + 1)
	if within(chunk, big) || cap(big) != size/4+1 || len(s.Chunk()) != 8 || unsafe.SliceData(s.Chunk()) != unsafe.SliceData(chunk) {
		t.Fatal("an oversized request was carved, or moved the chunk")
	}
	if r := s.Carve(size / 4); !within(chunk, r) {
		t.Fatal("a request of a quarter of a chunk was not carved")
	}
	var none *Slab[byte]
	if r := none.Carve(10); cap(r) != 10 || len(r) != 0 {
		t.Fatalf("a nil slab carved len %d cap %d, want 0 and 10", len(r), cap(r))
	}
	var noLists *Slab[[]byte]
	if r := noLists.Carve(3); cap(r) != 3 {
		t.Fatalf("a nil slab of slices made a region of capacity %d, want 3", cap(r))
	}
}
