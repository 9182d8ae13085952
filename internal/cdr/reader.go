package cdr

import (
	"errors"
	"fmt"
	"math"
)

// ErrTruncated reports that a CDR stream ended before a complete value
// could be decoded.
var ErrTruncated = errors.New("cdr: truncated stream")

// maxSeqLen bounds the declared length of strings and octet sequences so a
// corrupt or hostile stream cannot trigger enormous allocations. A
// sequence can never be longer than the remaining bytes anyway, so the
// reader checks the declared length against what is left.
const maxSeqLen = 1 << 30

// Reader decodes values from a CDR stream. Errors are sticky: after the
// first decoding error every subsequent read returns a zero value, and the
// error is reported by Err. This keeps sequential unmarshalling code free
// of per-field error checks; callers must check Err once at the end.
type Reader struct {
	buf   []byte
	pos   int
	order ByteOrder
	err   error
}

// NewReader returns a Reader over buf decoding in the given byte order.
func NewReader(buf []byte, order ByteOrder) *Reader {
	return &Reader{buf: buf, order: order}
}

// Order reports the byte order the reader decodes with.
func (r *Reader) Order() ByteOrder { return r.order }

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Pos returns the current decoding position within the stream.
func (r *Reader) Pos() int { return r.pos }

// Remaining returns the number of bytes left to decode.
func (r *Reader) Remaining() int { return len(r.buf) - r.pos }

// fail records the first error.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Align advances the position to the next multiple of n bytes.
func (r *Reader) Align(n int) {
	if r.err != nil {
		return
	}
	pad := align(r.pos, n)
	if r.pos+pad > len(r.buf) {
		r.fail(ErrTruncated)
		return
	}
	r.pos += pad
}

// take returns the next n bytes after aligning to n (for primitives) and
// advances the position, or nil on error.
func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	r.Align(n)
	if r.err != nil {
		return nil
	}
	if r.pos+n > len(r.buf) {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// ReadOctet decodes a single octet.
func (r *Reader) ReadOctet() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.buf) {
		r.fail(ErrTruncated)
		return 0
	}
	b := r.buf[r.pos]
	r.pos++
	return b
}

// ReadBool decodes a CDR boolean.
func (r *Reader) ReadBool() bool { return r.ReadOctet() != 0 }

// ReadUShort decodes an unsigned short.
func (r *Reader) ReadUShort() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	if r.order == BigEndian {
		return uint16(b[0])<<8 | uint16(b[1])
	}
	return uint16(b[1])<<8 | uint16(b[0])
}

// ReadShort decodes a signed short.
func (r *Reader) ReadShort() int16 { return int16(r.ReadUShort()) }

// ReadULong decodes an unsigned long.
func (r *Reader) ReadULong() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	if r.order == BigEndian {
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	}
	return uint32(b[3])<<24 | uint32(b[2])<<16 | uint32(b[1])<<8 | uint32(b[0])
}

// ReadLong decodes a signed long.
func (r *Reader) ReadLong() int32 { return int32(r.ReadULong()) }

// ReadULongLong decodes an unsigned long long.
func (r *Reader) ReadULongLong() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	if r.order == BigEndian {
		return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
			uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
	}
	return uint64(b[7])<<56 | uint64(b[6])<<48 | uint64(b[5])<<40 | uint64(b[4])<<32 |
		uint64(b[3])<<24 | uint64(b[2])<<16 | uint64(b[1])<<8 | uint64(b[0])
}

// ReadLongLong decodes a signed long long.
func (r *Reader) ReadLongLong() int64 { return int64(r.ReadULongLong()) }

// ReadFloat decodes a single-precision float.
func (r *Reader) ReadFloat() float32 { return math.Float32frombits(r.ReadULong()) }

// ReadDouble decodes a double-precision float.
func (r *Reader) ReadDouble() float64 { return math.Float64frombits(r.ReadULongLong()) }

// ReadString decodes a CDR string (length includes the terminating NUL).
func (r *Reader) ReadString() string { return string(r.ReadStringBytes()) }

// ReadStringBytes decodes a CDR string as a view of its characters: the
// same length and NUL checks as ReadString, but the returned slice
// aliases the reader's buffer (without the terminator) instead of being
// copied into a string. For callers that only compare or look the string
// up (m[string(b)] does not allocate).
func (r *Reader) ReadStringBytes() []byte {
	n := r.ReadULong()
	if r.err != nil {
		return nil
	}
	if n == 0 {
		// Tolerated: some ORBs emit zero-length (rather than 1 + NUL)
		// for empty strings.
		return nil
	}
	if n > maxSeqLen || int(n) > r.Remaining() {
		r.fail(fmt.Errorf("cdr: string length %d exceeds remaining %d bytes: %w", n, r.Remaining(), ErrTruncated))
		return nil
	}
	b := r.buf[r.pos : r.pos+int(n)]
	r.pos += int(n)
	if b[len(b)-1] != 0 {
		r.fail(errors.New("cdr: string missing NUL terminator"))
		return nil
	}
	return b[: len(b)-1 : len(b)-1]
}

// ReadOctets decodes n raw bytes without alignment. The returned slice
// aliases the reader's buffer.
func (r *Reader) ReadOctets(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Remaining() {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b
}

// ReadOctetSeq decodes a sequence<octet>. The returned slice aliases the
// reader's buffer.
func (r *Reader) ReadOctetSeq() []byte {
	n := r.ReadULong()
	if r.err != nil {
		return nil
	}
	if n > maxSeqLen || int(n) > r.Remaining() {
		r.fail(fmt.Errorf("cdr: sequence length %d exceeds remaining %d bytes: %w", n, r.Remaining(), ErrTruncated))
		return nil
	}
	return r.ReadOctets(int(n))
}

// ReadEncapsulation decodes a sequence<octet> holding a CDR encapsulation
// and returns a Reader positioned after the leading byte-order octet,
// decoding in the encapsulated order.
func (r *Reader) ReadEncapsulation() *Reader {
	data := r.ReadOctetSeq()
	if r.err != nil {
		return &Reader{err: r.err}
	}
	if len(data) == 0 {
		r.fail(errors.New("cdr: empty encapsulation"))
		return &Reader{err: r.err}
	}
	order := ByteOrder(data[0] & 1)
	inner := NewReader(data, order)
	inner.pos = 1
	return inner
}
