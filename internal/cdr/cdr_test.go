package cdr

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestAlignPadding(t *testing.T) {
	tests := []struct {
		pos, n, want int
	}{
		{0, 4, 0},
		{1, 4, 3},
		{2, 4, 2},
		{3, 4, 1},
		{4, 4, 0},
		{1, 2, 1},
		{7, 8, 1},
		{8, 8, 0},
		{9, 8, 7},
		{5, 1, 0},
	}
	for _, tt := range tests {
		if got := align(tt.pos, tt.n); got != tt.want {
			t.Errorf("align(%d, %d) = %d, want %d", tt.pos, tt.n, got, tt.want)
		}
	}
}

func TestWriterAlignmentInsertsPadding(t *testing.T) {
	w := NewWriter(BigEndian)
	w.WriteOctet(0xAA)
	w.WriteULong(0x01020304)
	want := []byte{0xAA, 0, 0, 0, 0x01, 0x02, 0x03, 0x04}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("got % x, want % x", w.Bytes(), want)
	}
}

func TestWriterLittleEndianULong(t *testing.T) {
	w := NewWriter(LittleEndian)
	w.WriteULong(0x01020304)
	want := []byte{0x04, 0x03, 0x02, 0x01}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("got % x, want % x", w.Bytes(), want)
	}
}

func TestStringEncoding(t *testing.T) {
	w := NewWriter(BigEndian)
	w.WriteString("hi")
	want := []byte{0, 0, 0, 3, 'h', 'i', 0}
	if !bytes.Equal(w.Bytes(), want) {
		t.Fatalf("got % x, want % x", w.Bytes(), want)
	}
	r := NewReader(w.Bytes(), BigEndian)
	if got := r.ReadString(); got != "hi" || r.Err() != nil {
		t.Fatalf("ReadString = %q, err %v", got, r.Err())
	}
}

func TestEmptyStringTolerated(t *testing.T) {
	// A zero-length string (no NUL at all) must decode as "".
	r := NewReader([]byte{0, 0, 0, 0}, BigEndian)
	if got := r.ReadString(); got != "" || r.Err() != nil {
		t.Fatalf("ReadString = %q, err %v", got, r.Err())
	}
}

func TestStringMissingNUL(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 2, 'h', 'i'}, BigEndian)
	r.ReadString()
	if r.Err() == nil {
		t.Fatal("expected error for string without NUL terminator")
	}
}

// TestReadStringBytesIsAView: the same string, length and terminator
// checks as ReadString, as a cap-clipped window onto the stream.
func TestReadStringBytesIsAView(t *testing.T) {
	w := NewWriter(BigEndian)
	w.WriteString("hi")
	w.WriteULong(7)
	buf := w.Bytes()
	r := NewReader(buf, BigEndian)
	got := r.ReadStringBytes()
	if string(got) != "hi" || cap(got) != 2 || r.Err() != nil {
		t.Fatalf("ReadStringBytes = %q (cap %d), err %v", got, cap(got), r.Err())
	}
	if &got[0] != &buf[4] {
		t.Fatal("ReadStringBytes copied")
	}
	if r.ReadULong() != 7 || r.Err() != nil {
		t.Fatal("the reader is not behind the terminator")
	}
	if n := testing.AllocsPerRun(100, func() { NewReader(buf, BigEndian).ReadStringBytes() }); n != 0 {
		t.Fatalf("ReadStringBytes allocates %v times", n)
	}
	for name, bad := range map[string][]byte{
		"no terminator": {0, 0, 0, 2, 'h', 'i'},
		"too long":      {0, 0, 0, 9, 'h', 0},
		"truncated":     {0, 0},
	} {
		r := NewReader(bad, BigEndian)
		if got := r.ReadStringBytes(); got != nil || r.Err() == nil {
			t.Errorf("%s: ReadStringBytes = %q, err %v", name, got, r.Err())
		}
	}
	if got := NewReader([]byte{0, 0, 0, 0}, BigEndian).ReadStringBytes(); got != nil {
		t.Errorf("zero-length string = %q", got)
	}
}

func TestRoundTripAllPrimitives(t *testing.T) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		w := NewWriter(order)
		w.WriteOctet(0x7F)
		w.WriteBool(true)
		w.WriteUShort(0xBEEF)
		w.WriteShort(-12345)
		w.WriteULong(0xDEADBEEF)
		w.WriteLong(-123456789)
		w.WriteULongLong(0x0102030405060708)
		w.WriteLongLong(-987654321012345)
		w.WriteFloat(3.25)
		w.WriteDouble(math.Pi)
		w.WriteString("eternal")
		w.WriteOctetSeq([]byte{1, 2, 3})
		if w.Err() != nil {
			t.Fatalf("%v: write err: %v", order, w.Err())
		}

		r := NewReader(w.Bytes(), order)
		if got := r.ReadOctet(); got != 0x7F {
			t.Errorf("%v: octet = %#x", order, got)
		}
		if got := r.ReadBool(); !got {
			t.Errorf("%v: bool = %v", order, got)
		}
		if got := r.ReadUShort(); got != 0xBEEF {
			t.Errorf("%v: ushort = %#x", order, got)
		}
		if got := r.ReadShort(); got != -12345 {
			t.Errorf("%v: short = %d", order, got)
		}
		if got := r.ReadULong(); got != 0xDEADBEEF {
			t.Errorf("%v: ulong = %#x", order, got)
		}
		if got := r.ReadLong(); got != -123456789 {
			t.Errorf("%v: long = %d", order, got)
		}
		if got := r.ReadULongLong(); got != 0x0102030405060708 {
			t.Errorf("%v: ulonglong = %#x", order, got)
		}
		if got := r.ReadLongLong(); got != -987654321012345 {
			t.Errorf("%v: longlong = %d", order, got)
		}
		if got := r.ReadFloat(); got != 3.25 {
			t.Errorf("%v: float = %v", order, got)
		}
		if got := r.ReadDouble(); got != math.Pi {
			t.Errorf("%v: double = %v", order, got)
		}
		if got := r.ReadString(); got != "eternal" {
			t.Errorf("%v: string = %q", order, got)
		}
		if got := r.ReadOctetSeq(); !bytes.Equal(got, []byte{1, 2, 3}) {
			t.Errorf("%v: octetseq = % x", order, got)
		}
		if r.Err() != nil {
			t.Fatalf("%v: read err: %v", order, r.Err())
		}
		if r.Remaining() != 0 {
			t.Errorf("%v: %d bytes left over", order, r.Remaining())
		}
	}
}

func TestReaderTruncation(t *testing.T) {
	tests := []struct {
		name string
		read func(*Reader)
	}{
		{"octet", func(r *Reader) { r.ReadOctet() }},
		{"ushort", func(r *Reader) { r.ReadUShort() }},
		{"ulong", func(r *Reader) { r.ReadULong() }},
		{"ulonglong", func(r *Reader) { r.ReadULongLong() }},
		{"string", func(r *Reader) { r.ReadString() }},
		{"octetseq", func(r *Reader) { r.ReadOctetSeq() }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := NewReader(nil, BigEndian)
			tt.read(r)
			if !errors.Is(r.Err(), ErrTruncated) {
				t.Fatalf("err = %v, want ErrTruncated", r.Err())
			}
		})
	}
}

func TestReaderStickyError(t *testing.T) {
	r := NewReader([]byte{1, 2}, BigEndian)
	r.ReadULong() // fails: only 2 bytes
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	first := r.Err()
	// All further reads return zero values without changing the error.
	if got := r.ReadOctet(); got != 0 {
		t.Errorf("post-error octet = %d", got)
	}
	if got := r.ReadString(); got != "" {
		t.Errorf("post-error string = %q", got)
	}
	if r.Err() != first {
		t.Errorf("error changed: %v -> %v", first, r.Err())
	}
}

func TestHugeSequenceLengthRejected(t *testing.T) {
	// Declared length 0xFFFFFFFF with no payload must fail cleanly rather
	// than attempt the allocation.
	r := NewReader([]byte{0xFF, 0xFF, 0xFF, 0xFF}, BigEndian)
	r.ReadOctetSeq()
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
}

func TestEncapsulationRoundTrip(t *testing.T) {
	for _, inner := range []ByteOrder{BigEndian, LittleEndian} {
		w := NewWriter(BigEndian)
		w.WriteEncapsulation(inner, func(ew *Writer) {
			ew.WriteULong(42)
			ew.WriteString("profile")
		})
		if w.Err() != nil {
			t.Fatalf("write: %v", w.Err())
		}
		r := NewReader(w.Bytes(), BigEndian)
		er := r.ReadEncapsulation()
		if r.Err() != nil {
			t.Fatalf("read: %v", r.Err())
		}
		if er.Order() != inner {
			t.Errorf("inner order = %v, want %v", er.Order(), inner)
		}
		if got := er.ReadULong(); got != 42 {
			t.Errorf("ulong = %d", got)
		}
		if got := er.ReadString(); got != "profile" {
			t.Errorf("string = %q", got)
		}
		if er.Err() != nil {
			t.Fatalf("inner err: %v", er.Err())
		}
	}
}

func TestEncapsulationAlignmentIsSelfRelative(t *testing.T) {
	// Alignment inside an encapsulation is relative to the start of the
	// encapsulation, not the outer stream: write an odd number of octets
	// first so an absolute-position implementation would misalign.
	w := NewWriter(BigEndian)
	w.WriteOctet(0xEE)
	w.WriteEncapsulation(BigEndian, func(ew *Writer) {
		ew.WriteULongLong(0x1122334455667788)
	})
	r := NewReader(w.Bytes(), BigEndian)
	if got := r.ReadOctet(); got != 0xEE {
		t.Fatalf("prefix octet = %#x", got)
	}
	er := r.ReadEncapsulation()
	if got := er.ReadULongLong(); got != 0x1122334455667788 {
		t.Fatalf("ulonglong = %#x, err %v", got, er.Err())
	}
}

func TestEmptyEncapsulationRejected(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 0}, BigEndian)
	r.ReadEncapsulation()
	if r.Err() == nil {
		t.Fatal("expected error for empty encapsulation")
	}
}

func TestReaderAlignTruncated(t *testing.T) {
	r := NewReader([]byte{1}, BigEndian)
	r.ReadOctet()
	r.Align(4)
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", r.Err())
	}
}

func TestWriterAppendsAreSequential(t *testing.T) {
	w := NewWriter(BigEndian)
	w.WriteUShort(1)
	w.WriteUShort(2)
	w.WriteULong(3)
	// ushort(2) is already 2-aligned at pos 2; ulong needs no pad at pos 4.
	if w.Len() != 8 {
		t.Fatalf("len = %d, want 8", w.Len())
	}
}

// TestWriterOnAlignsToItsOwnStart: a stream appended behind a prefix of
// any length is the stream a fresh writer produces, and the prefix is
// left as it was.
func TestWriterOnAlignsToItsOwnStart(t *testing.T) {
	write := func(w *Writer) {
		w.WriteOctet(1)
		w.WriteULongLong(2)
		w.WriteUShort(3)
		w.WriteString("four")
		w.WriteULong(5)
	}
	fresh := NewWriter(LittleEndian)
	write(fresh)
	for _, prefix := range []string{"", "x", "abc", "12345678", "123456789"} {
		w := NewWriterOn([]byte(prefix), LittleEndian)
		write(w)
		got := w.Bytes()
		if w.Len() != len(got) || string(got[:len(prefix)]) != prefix || !bytes.Equal(got[len(prefix):], fresh.Bytes()) {
			t.Fatalf("prefix %q: stream %x, want %x", prefix, got[len(prefix):], fresh.Bytes())
		}
	}
}
