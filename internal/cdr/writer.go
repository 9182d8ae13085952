package cdr

import (
	"fmt"
	"math"
)

// Writer encodes values into a CDR stream. The zero value is not usable;
// construct one with NewWriter.
//
// Errors are sticky: the first error (there are none in the write path
// today, but encapsulation helpers may add them) is retained and every
// subsequent operation becomes a no-op. Check Err before using Bytes.
type Writer struct {
	buf   []byte
	order ByteOrder
	// base is the stream position of buf[0]: zero for a writer that owns
	// its buffer, minus the prefix length for one that appends a new
	// stream behind bytes already in the buffer (NewWriterOn), so that
	// alignment stays relative to where the stream starts.
	base int
	err  error
}

// NewWriter returns a Writer producing a stream in the given byte order.
func NewWriter(order ByteOrder) *Writer {
	return &Writer{buf: make([]byte, 0, 64), order: order}
}

// NewWriterCap returns a Writer whose buffer is preallocated to the given
// capacity, for callers that can bound the encoded size up front and want
// to avoid growth copies on the hot path.
func NewWriterCap(order ByteOrder, capacity int) *Writer {
	if capacity < 0 {
		capacity = 0
	}
	return &Writer{buf: make([]byte, 0, capacity), order: order}
}

// NewWriterOn returns a Writer that appends a new stream to buf: stream
// position zero, which alignment is relative to, is buf's current end.
// Bytes returns buf followed by the stream, and Len counts both. This is
// how an encapsulating layer and the message it encapsulates are built
// in one buffer.
func NewWriterOn(buf []byte, order ByteOrder) *Writer {
	return &Writer{buf: buf, order: order, base: -len(buf)}
}

// Order reports the byte order the writer encodes with.
func (w *Writer) Order() ByteOrder { return w.order }

// Len returns the length of Bytes: the bytes written so far, behind any
// prefix the writer was started on.
func (w *Writer) Len() int { return len(w.buf) }

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Bytes returns the encoded stream. The returned slice aliases the
// writer's internal buffer; the caller must not retain it across
// further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Align inserts padding so that the next value begins at a multiple of n
// bytes from the start of the stream.
func (w *Writer) Align(n int) {
	if w.err != nil {
		return
	}
	pad := align(w.base+len(w.buf), n)
	for i := 0; i < pad; i++ {
		w.buf = append(w.buf, 0)
	}
}

// WriteOctet appends a single octet.
func (w *Writer) WriteOctet(v byte) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, v)
}

// WriteBool appends a CDR boolean (one octet, 0 or 1).
func (w *Writer) WriteBool(v bool) {
	if v {
		w.WriteOctet(1)
	} else {
		w.WriteOctet(0)
	}
}

// WriteUShort appends an unsigned short aligned to 2 bytes.
func (w *Writer) WriteUShort(v uint16) {
	if w.err != nil {
		return
	}
	w.Align(2)
	if w.order == BigEndian {
		w.buf = append(w.buf, byte(v>>8), byte(v))
	} else {
		w.buf = append(w.buf, byte(v), byte(v>>8))
	}
}

// WriteShort appends a signed short aligned to 2 bytes.
func (w *Writer) WriteShort(v int16) { w.WriteUShort(uint16(v)) }

// WriteULong appends an unsigned long aligned to 4 bytes.
func (w *Writer) WriteULong(v uint32) {
	if w.err != nil {
		return
	}
	w.Align(4)
	if w.order == BigEndian {
		w.buf = append(w.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

// WriteLong appends a signed long aligned to 4 bytes.
func (w *Writer) WriteLong(v int32) { w.WriteULong(uint32(v)) }

// WriteULongLong appends an unsigned long long aligned to 8 bytes.
func (w *Writer) WriteULongLong(v uint64) {
	if w.err != nil {
		return
	}
	w.Align(8)
	if w.order == BigEndian {
		w.buf = append(w.buf,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	} else {
		w.buf = append(w.buf,
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
			byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
	}
}

// WriteLongLong appends a signed long long aligned to 8 bytes.
func (w *Writer) WriteLongLong(v int64) { w.WriteULongLong(uint64(v)) }

// WriteFloat appends an IEEE 754 single-precision float aligned to 4 bytes.
func (w *Writer) WriteFloat(v float32) { w.WriteULong(math.Float32bits(v)) }

// WriteDouble appends an IEEE 754 double-precision float aligned to 8 bytes.
func (w *Writer) WriteDouble(v float64) { w.WriteULongLong(math.Float64bits(v)) }

// WriteString appends a CDR string: a ulong length that counts the
// terminating NUL, the bytes, and a trailing NUL octet.
func (w *Writer) WriteString(s string) {
	if w.err != nil {
		return
	}
	w.WriteULong(uint32(len(s) + 1))
	w.buf = append(w.buf, s...)
	w.buf = append(w.buf, 0)
}

// WriteOctets appends raw bytes without alignment or a length prefix.
func (w *Writer) WriteOctets(b []byte) {
	if w.err != nil {
		return
	}
	w.buf = append(w.buf, b...)
}

// WriteOctetSeq appends a sequence<octet>: a ulong count followed by the
// bytes.
func (w *Writer) WriteOctetSeq(b []byte) {
	if w.err != nil {
		return
	}
	w.WriteULong(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// WriteEncapsulation appends a sequence<octet> whose contents are a CDR
// encapsulation: a byte-order octet followed by the data produced by body,
// which receives a fresh writer in the requested order.
func (w *Writer) WriteEncapsulation(order ByteOrder, body func(*Writer)) {
	if w.err != nil {
		return
	}
	inner := NewWriter(order)
	inner.WriteOctet(byte(order))
	body(inner)
	if inner.err != nil {
		w.err = fmt.Errorf("cdr: encapsulation: %w", inner.err)
		return
	}
	w.WriteOctetSeq(inner.Bytes())
}
