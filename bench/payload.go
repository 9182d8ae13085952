package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
)

// Every request payload starts with a 24-byte head {magic, op id,
// send-ns}; the rest is cut from a block of bytes drawn from the seed.
// The op id is the benchmark's own operation identifier (the program's
// identifiers are internal to it): it lets the servant count executions
// per operation and lets the client check that a reply answers the
// request it was matched to.
const (
	headLen             = 24
	payloadMagic uint64 = 0x4654424e43483031 // "FTBNCH01"
	// bodySlack is how many distinct body offsets the seeded block
	// offers; consecutive op ids cut different bytes.
	bodySlack = 4096
	// fullCompareEvery: one reply body in this many is compared byte for
	// byte; every reply has its head and length checked.
	fullCompareEvery = 64
)

// payloadSource generates and verifies request payloads of one size.
type payloadSource struct {
	size  int // payload bytes per request, head included
	block []byte
}

func newPayloadSource(seed int64, size int) *payloadSource {
	if size < headLen {
		size = headLen
	}
	block := make([]byte, size-headLen+bodySlack)
	rand.New(rand.NewSource(seed)).Read(block)
	return &payloadSource{size: size, block: block}
}

func (p *payloadSource) body(op uint64) []byte {
	off := int(op * 131 % bodySlack)
	return p.block[off : off+p.size-headLen]
}

// argsLen is the length of the CDR in-parameter stream carrying one
// payload as a sequence<octet>: a big-endian ulong length, then the
// bytes.
func (p *payloadSource) argsLen() int { return 4 + p.size }

// fillArgs writes the CDR-encoded sequence<octet> argument for op into
// dst, which must be argsLen() long. Writing in place lets a closed-loop
// client reuse one buffer, as the recorded benchmarks do.
func (p *payloadSource) fillArgs(dst []byte, op uint64, sendNs int64) {
	binary.BigEndian.PutUint32(dst, uint32(p.size))
	binary.BigEndian.PutUint64(dst[4:], payloadMagic)
	binary.BigEndian.PutUint64(dst[12:], op)
	binary.BigEndian.PutUint64(dst[20:], uint64(sendNs))
	copy(dst[4+headLen:], p.body(op))
}

// parseHead extracts the op id and send time from a payload, reporting
// whether it carries the benchmark's magic.
func parseHead(payload []byte) (op uint64, sendNs int64, ok bool) {
	if len(payload) < headLen || binary.BigEndian.Uint64(payload) != payloadMagic {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(payload[8:]), int64(binary.BigEndian.Uint64(payload[16:])), true
}

// checkEcho verifies an echoed payload against the request it answers.
func (p *payloadSource) checkEcho(got []byte, op uint64) bool {
	gotOp, _, ok := parseHead(got)
	if !ok || gotOp != op || len(got) != p.size {
		return false
	}
	if op%fullCompareEvery == 0 {
		return bytes.Equal(got[headLen:], p.body(op))
	}
	return true
}

const chunkBits = 14

// chunked is a sparse array indexed by op id, grown a chunk at a time so
// that recording never copies what was already recorded.
type chunked[T any] struct{ chunks [][]T }

func (c *chunked[T]) at(i uint64) *T {
	ci := i >> chunkBits
	for uint64(len(c.chunks)) <= ci {
		c.chunks = append(c.chunks, nil)
	}
	if c.chunks[ci] == nil {
		c.chunks[ci] = make([]T, 1<<chunkBits)
	}
	return &c.chunks[ci][i&(1<<chunkBits-1)]
}

// get reads index i without growing.
func (c *chunked[T]) get(i uint64) (v T) {
	ci := i >> chunkBits
	if ci >= uint64(len(c.chunks)) || c.chunks[ci] == nil {
		return v
	}
	return c.chunks[ci][i&(1<<chunkBits-1)]
}

// ledger is one domain's account of the benchmark's operations: ids
// handed out, and which of them a client saw acknowledged. The
// exactly-once check reconciles it with the servants' execution counts
// and the object's own operation counter.
type ledger struct {
	mu     sync.Mutex
	issued uint64
	nAcked uint64
	acked  chunked[bool]
}

// next allocates the next op id (ids start at 1).
func (l *ledger) next() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.issued++
	return l.issued
}

func (l *ledger) ack(op uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if p := l.acked.at(op); !*p {
		*p = true
		l.nAcked++
	}
}

func (l *ledger) isAcked(op uint64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked.get(op)
}

func (l *ledger) totals() (issued, acked uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.issued, l.nAcked
}
